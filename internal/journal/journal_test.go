package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []rec{{1, "a"}, {2, "b"}, {3, "c"}}
	for _, r := range want {
		if err := w.Encode(r); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	total := int64(buf.Len())
	var got []rec
	valid, err := Scan(&buf, func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if valid != total {
		t.Fatalf("valid prefix %d, want whole file %d", valid, total)
	}
}

func TestEncodeFlushesEachRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Encode(rec{1, "a"}); err != nil {
		t.Fatal(err)
	}
	// Without an explicit Flush call the record must already be in buf.
	if buf.Len() == 0 {
		t.Fatal("Encode did not flush the record through")
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Fatal("record not newline-terminated")
	}
}

func TestScanDropsTornTail(t *testing.T) {
	data := "{\"n\":1,\"s\":\"a\"}\n{\"n\":2,\"s\":\"b\"}\n{\"n\":3,\"s\":"
	var got []rec
	valid, err := Scan(strings.NewReader(data), func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2 (torn tail dropped)", len(got))
	}
	wantValid := int64(len("{\"n\":1,\"s\":\"a\"}\n{\"n\":2,\"s\":\"b\"}\n"))
	if valid != wantValid {
		t.Fatalf("valid prefix %d, want %d", valid, wantValid)
	}
}

func TestScanDropsRejectedFinalLine(t *testing.T) {
	// The final complete line is malformed — treated as a lower-layer
	// tear and dropped, not an error.
	data := "{\"n\":1,\"s\":\"a\"}\ngarbage-not-json\n"
	var got []rec
	valid, err := Scan(strings.NewReader(data), func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}
	wantValid := int64(len("{\"n\":1,\"s\":\"a\"}\n"))
	if valid != wantValid {
		t.Fatalf("valid prefix %d, want %d", valid, wantValid)
	}
}

func TestScanMidStreamErrorAborts(t *testing.T) {
	sentinel := errors.New("bad line")
	data := "{\"n\":1}\ngarbage\n{\"n\":3}\n"
	var calls int
	_, err := Scan(strings.NewReader(data), func(line []byte) error {
		calls++
		if !json.Valid(line) {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Scan err = %v, want sentinel", err)
	}
}

func TestScanEmptyLines(t *testing.T) {
	data := "{\"n\":1,\"s\":\"a\"}\n\n\r\n{\"n\":2,\"s\":\"b\"}\n"
	var got []rec
	valid, err := Scan(strings.NewReader(data), func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if valid != int64(len(data)) {
		t.Fatalf("valid prefix %d, want %d", valid, len(data))
	}
}

func TestScanCRLF(t *testing.T) {
	data := "{\"n\":7,\"s\":\"x\"}\r\n"
	var got []rec
	_, err := Scan(strings.NewReader(data), func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 1 || got[0].N != 7 {
		t.Fatalf("got %+v, want one record n=7", got)
	}
}

func TestScanEmptyInput(t *testing.T) {
	valid, err := Scan(strings.NewReader(""), func([]byte) error {
		t.Fatal("fn called on empty input")
		return nil
	})
	if err != nil || valid != 0 {
		t.Fatalf("Scan empty = (%d, %v), want (0, nil)", valid, err)
	}
}

func TestScanTruncateAppendRoundTrip(t *testing.T) {
	// Simulate the resume discipline: write records, tear the tail,
	// truncate to the valid prefix, append more, re-scan.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Encode(rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	torn := append([]byte(nil), buf.Bytes()...)
	torn = append(torn, []byte("{\"n\":99")...) // torn append, no newline

	count := func(b []byte) (int, int64) {
		n := 0
		valid, err := Scan(bytes.NewReader(b), func(line []byte) error {
			var r rec
			if err := json.Unmarshal(line, &r); err != nil {
				return err
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, valid
	}

	n, valid := count(torn)
	if n != 3 {
		t.Fatalf("torn scan: %d records, want 3", n)
	}
	healed := torn[:valid]
	var buf2 bytes.Buffer
	buf2.Write(healed)
	w2 := NewWriter(&buf2)
	if err := w2.Encode(rec{N: 3}); err != nil {
		t.Fatal(err)
	}
	n, _ = count(buf2.Bytes())
	if n != 4 {
		t.Fatalf("after heal+append: %d records, want 4", n)
	}
}

// TestOpenRun drives the run-file open/resume sequence through every file
// state a resuming producer can meet. Each case starts from literal file
// bytes (absent for a fresh run), opens under format f/v1 and config hash
// "aa", appends one record, and checks what a reader then sees.
func TestOpenRun(t *testing.T) {
	const (
		hdrLine = `{"format":"f/v1","config_hash":"aa"}` + "\n"
		rec1    = `{"n":1,"s":"a"}` + "\n"
		rec2    = `{"n":2,"s":"b"}` + "\n"
		added   = `{"n":9,"s":"new"}` + "\n"
	)
	// parentHdr is a header line exactly as the campaign driver wrote it
	// before the header type moved here; such files must keep resuming.
	const parentHdr = `{"format":"risotto-campaign/v1","config_hash":"5d0c2a9e1f3b4c7d"}` + "\n"

	for _, tc := range []struct {
		name    string
		file    string // initial contents; "" with !resume means absent
		hdr     Header
		resume  bool
		wantErr string // substring; "" means success
		resumed int    // records OpenRun hands back
		final   string // file contents after appending `added`
	}{
		{name: "fresh", hdr: Header{"f/v1", "aa"},
			final: hdrLine + added},
		{name: "fresh overwrites", file: hdrLine + rec1, hdr: Header{"f/v1", "aa"},
			final: hdrLine + added},
		{name: "resume", file: hdrLine + rec1 + rec2, hdr: Header{"f/v1", "aa"}, resume: true,
			resumed: 2, final: hdrLine + rec1 + rec2 + added},
		{name: "resume header only", file: hdrLine, hdr: Header{"f/v1", "aa"}, resume: true,
			final: hdrLine + added},
		{name: "torn tail", file: hdrLine + rec1 + `{"n":2,"s":`, hdr: Header{"f/v1", "aa"}, resume: true,
			resumed: 1, final: hdrLine + rec1 + added},
		{name: "rejected final line", file: hdrLine + rec1 + "not json\n", hdr: Header{"f/v1", "aa"}, resume: true,
			resumed: 1, final: hdrLine + rec1 + added},
		{name: "rejected middle line", file: hdrLine + "not json\n" + rec1, hdr: Header{"f/v1", "aa"}, resume: true,
			wantErr: "bad record line"},
		{name: "foreign config hash", file: hdrLine + rec1, hdr: Header{"f/v1", "bb"}, resume: true,
			wantErr: "refusing to resume"},
		{name: "wrong format tag", file: hdrLine + rec1, hdr: Header{"g/v1", "aa"}, resume: true,
			wantErr: `format "f/v1", want "g/v1"`},
		{name: "wrong format tag, header only", file: hdrLine, hdr: Header{"g/v1", "aa"}, resume: true,
			wantErr: `format "f/v1", want "g/v1"`},
		{name: "header-less file", file: rec1 + rec2, hdr: Header{"f/v1", "aa"}, resume: true,
			wantErr: `format "", want "f/v1"`},
		{name: "empty file", file: "", hdr: Header{"f/v1", "aa"}, resume: true,
			wantErr: "EOF"},
		{name: "parent-written header", file: parentHdr + rec1,
			hdr: Header{"risotto-campaign/v1", "5d0c2a9e1f3b4c7d"}, resume: true,
			resumed: 1, final: parentHdr + rec1 + added},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			if tc.file != "" || tc.resume {
				if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			f, recs, err := OpenRun[rec](path, tc.hdr, tc.resume)
			if tc.wantErr != "" {
				if err == nil {
					f.Close()
					t.Fatalf("OpenRun succeeded, want error containing %q", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("OpenRun error %q, want it to contain %q", err, tc.wantErr)
				}
				if got, _ := os.ReadFile(path); string(got) != tc.file {
					t.Errorf("refused resume modified the file:\n got %q\nwant %q", got, tc.file)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.resumed {
				t.Errorf("OpenRun returned %d records, want %d", len(recs), tc.resumed)
			}
			if err := NewWriter(f).Encode(rec{9, "new"}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.final {
				t.Errorf("file after append:\n got %q\nwant %q", got, tc.final)
			}
			hdr, back, err := ReadRun[rec](bytes.NewReader(got), tc.hdr.Format)
			if err != nil {
				t.Fatal(err)
			}
			if hdr != tc.hdr {
				t.Errorf("ReadRun header %+v, want %+v", hdr, tc.hdr)
			}
			if len(back) != tc.resumed+1 || back[len(back)-1] != (rec{9, "new"}) {
				t.Errorf("ReadRun records %+v, want %d resumed then the appended one", back, tc.resumed)
			}
		})
	}

	t.Run("resume of a missing file", func(t *testing.T) {
		_, _, err := OpenRun[rec](filepath.Join(t.TempDir(), "absent.jsonl"), Header{"f/v1", "aa"}, true)
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("error = %v, want not-exist", err)
		}
	})
}

// Package journal is the newline-delimited-JSON discipline behind every
// append-only file the repository reopens: a Writer that flushes after
// every record so a killed process loses at most the line being written,
// a Scan that tolerates exactly that torn final line, and the reopen
// sequence built on them — scan, truncate the torn tail, position for
// append.
//
// Three clients, one run-file shape. Campaign results (internal/campaign)
// and explore soak files (internal/explore) are run files: a Header line
// pinning format tag and config hash, then one record per line, resumed
// through OpenRun, which refuses a foreign format or config. The daemon's
// translation cache (internal/transcache) is the header-less case: every
// line carries its own checksum, so it reopens through OpenAppend with its
// own line function. Replay traces and crash bundles are whole documents
// written once, not journals, and only use the Writer.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Writer writes newline-delimited JSON through a buffered writer, flushing
// after every record so a killed producer loses at most the line being
// written (Scan drops the torn fragment on reopen).
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewWriter returns a Writer appending records to w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Encode appends one record and flushes it through to the underlying
// writer.
func (w *Writer) Encode(v any) error {
	if err := w.enc.Encode(v); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Scan invokes fn for every complete (newline-terminated) line of r in
// order, skipping empty lines, and returns the byte length of the accepted
// prefix — everything up to and including the last accepted line. A
// reopening producer truncates the file to that length before appending,
// so a torn fragment is physically removed rather than welded onto the
// next record.
//
// The tolerance rules mirror a process killed mid-append:
//
//   - A final fragment with no trailing newline (the torn line of a killed
//     Writer) is dropped silently and excluded from the prefix.
//   - fn rejecting the final complete line (returning an error) likewise
//     drops it: a flush-per-record file can only end in a malformed line
//     through a tear at a lower layer.
//   - fn rejecting any earlier line aborts the scan with fn's error — a
//     malformed line with records after it is real corruption. Callers
//     that prefer to skip such lines (the translation cache, whose
//     checksums make every entry independently verifiable) handle the
//     malformed line inside fn and return nil.
func Scan(r io.Reader, fn func(line []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var valid int64
	var pendingErr error
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			// Any unterminated fragment is a torn tail: drop it. A pending
			// rejection was on what turned out to be the final complete
			// line: drop that too.
			return valid, nil
		}
		if rerr != nil {
			return valid, rerr
		}
		if pendingErr != nil {
			// The rejected line was not the last one — a real corruption.
			return valid, pendingErr
		}
		body := line[:len(line)-1]
		if len(body) > 0 && body[len(body)-1] == '\r' {
			body = body[:len(body)-1]
		}
		if len(body) == 0 {
			valid += int64(len(line))
			continue
		}
		if err := fn(body); err != nil {
			pendingErr = err
			continue
		}
		valid += int64(len(line))
	}
}

// Header is the first line of a run file. It pins what produced the
// records: resuming against a file whose config hash differs would
// silently mix two incomparable record sets, so OpenRun refuses it.
type Header struct {
	// Format identifies the file format and version.
	Format string `json:"format"`
	// ConfigHash is the producing run's configuration hash.
	ConfigHash string `json:"config_hash"`
}

// ReadRun parses a run stream: a header line tagged format, then one R per
// line. A torn final line (producer killed mid-write) is dropped; any
// other malformed line is an error, and a stream with no header is io.EOF.
func ReadRun[R any](r io.Reader, format string) (Header, []R, error) {
	hdr, recs, _, err := readRun[R](r, format)
	return hdr, recs, err
}

// readRun additionally reports the byte length of the valid prefix (see
// Scan), where a resuming producer truncates before appending.
func readRun[R any](r io.Reader, format string) (Header, []R, int64, error) {
	var hdr Header
	var recs []R
	// hdrErr is the verdict on the header line: io.EOF until a first line
	// arrives. It is kept outside Scan's drop-the-rejected-final-line
	// tolerance — a bad header is never a tear worth resuming past, even
	// as the file's only line.
	hdrErr, first := error(io.EOF), true
	valid, err := Scan(r, func(line []byte) error {
		if first {
			first, hdrErr = false, nil
			if err := json.Unmarshal(line, &hdr); err != nil {
				hdrErr = fmt.Errorf("journal: bad header line: %w", err)
			} else if hdr.Format != format {
				hdrErr = fmt.Errorf("journal: format %q, want %q", hdr.Format, format)
			}
			return hdrErr
		}
		var rec R
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("journal: bad record line: %w", err)
		}
		recs = append(recs, rec)
		return nil
	})
	if err == nil {
		err = hdrErr
	}
	if err != nil {
		return hdr, nil, 0, err
	}
	return hdr, recs, valid, nil
}

// OpenRun opens the run file at path for appending records under hdr. With
// resume false the file is created (truncating any previous contents) and
// hdr written as its first line. With resume true the existing file must
// carry hdr's format and config hash; its records are returned so the
// caller can skip work already done, and a torn final line is truncated
// away. The caller appends through NewWriter and closes the file.
func OpenRun[R any](path string, hdr Header, resume bool) (*os.File, []R, error) {
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		if err := NewWriter(f).Encode(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
		return f, nil, nil
	}
	var recs []R
	f, err := reopen(path, 0, func(r io.Reader) (int64, error) {
		have, rs, valid, err := readRun[R](r, hdr.Format)
		if err != nil {
			return 0, fmt.Errorf("journal: reading %s for resume: %w", path, err)
		}
		if have.ConfigHash != hdr.ConfigHash {
			return 0, fmt.Errorf("journal: %s was produced by config %s, refusing to resume with config %s",
				path, have.ConfigHash, hdr.ConfigHash)
		}
		recs = rs
		return valid, nil
	})
	return f, recs, err
}

// OpenAppend opens (creating if absent) the header-less journal at path,
// replays its lines through fn under Scan's tolerance rules, truncates a
// torn final line and returns the file positioned for appending.
func OpenAppend(path string, fn func(line []byte) error) (*os.File, error) {
	return reopen(path, os.O_CREATE, func(r io.Reader) (int64, error) { return Scan(r, fn) })
}

// reopen is the shared tail of resuming any journal: scan reports the valid
// prefix, everything after it is physically removed — appending after a
// fragment with no trailing newline would weld two records into one — and
// the file is left positioned at its new end.
func reopen(path string, flag int, scan func(io.Reader) (int64, error)) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|flag, 0o644)
	if err != nil {
		return nil, err
	}
	valid, err := scan(f)
	if err == nil {
		err = f.Truncate(valid)
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

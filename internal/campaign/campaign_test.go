package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/litmusgen"
)

// smokeConfig is a small deterministic campaign used by several tests:
// every shape family at both levels, a couple hundred tests total.
func smokeConfig() Config {
	return Config{
		Gen: litmusgen.Config{
			Seed:        1,
			MaxThreads:  2,
			MaxPerShape: 12,
		},
		Workers:      4,
		OpcheckSeeds: 2,
	}
}

// TestCampaignSmoke runs a small seeded campaign end to end and demands
// zero verdict failures: the verified mapping chain and the operational
// machine must agree with the models on every generated test.
func TestCampaignSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	sum, err := RunFile(smokeConfig(), path, false)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tests == 0 {
		t.Fatal("campaign produced no tests")
	}
	if sum.Fail != 0 {
		for _, f := range sum.Failures {
			t.Errorf("FAIL %s (%s): %s", f.Name, f.Level, f.Detail)
		}
		t.Fatalf("%d/%d verdicts failed", sum.Fail, sum.Tests)
	}
	if sum.Pass == 0 {
		t.Fatal("no passing verdicts — every test skipped?")
	}
	t.Logf("tests=%d pass=%d skip=%d checksRun=%d checksSkipped=%d (%.0f tests/s)",
		sum.Tests, sum.Pass, sum.Skip, sum.ChecksRun, sum.ChecksSkipped, sum.TestsPerSec)
}

// recordKey reduces a record to its comparable identity (everything that
// matters for the merged-verdict-set comparison).
func recordKey(r Record) string {
	checks := make([]string, 0, len(r.Checks))
	for k, v := range r.Checks {
		checks = append(checks, k+"="+v)
	}
	sort.Strings(checks)
	return fmt.Sprintf("%d|%s|%s|%s|%v", r.Idx, r.Name, r.FP, r.Verdict, checks)
}

// killedCopy writes dst as what a campaign killed mid-write leaves of the
// complete results file src: the header, ⌊n/3⌋ of its n records, then half
// of the next line. It returns how many whole records it kept.
func killedCopy(t *testing.T, src, dst string) int {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	n := len(lines) - 2 // less the header and the empty tail after the last newline
	if n < 3 {
		t.Fatalf("%s holds %d records; too few to cut", src, n)
	}
	keep := n / 3
	out := bytes.Join(lines[:1+keep], nil)
	next := lines[1+keep]
	out = append(out, next[:len(next)/2]...)
	if err := os.WriteFile(dst, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return keep
}

// TestCampaignCrashResume kills a campaign mid-write (killedCopy of a
// complete results file), resumes from the JSONL file, and asserts the
// merged verdict set is identical to an uninterrupted run — the resume
// contract.
func TestCampaignCrashResume(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeConfig()

	full := filepath.Join(dir, "full.jsonl")
	sumFull, err := RunFile(cfg, full, false)
	if err != nil {
		t.Fatal(err)
	}

	part := filepath.Join(dir, "part.jsonl")
	kept := killedCopy(t, full, part)

	sumRes, err := RunFile(cfg, part, true)
	if err != nil {
		t.Fatal(err)
	}
	if sumRes.Resumed != kept {
		t.Errorf("resume skipped %d tests, want %d already-done", sumRes.Resumed, kept)
	}
	if got, want := sumRes.Tests+sumRes.Resumed, sumFull.Tests; got != want {
		t.Errorf("resumed campaign covered %d tests, want %d", got, want)
	}

	read := func(path string) map[string]bool {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		hdr, recs, err := ReadResults(f)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.ConfigHash != cfg.Hash() {
			t.Fatalf("header hash %s, want %s", hdr.ConfigHash, cfg.Hash())
		}
		set := make(map[string]bool, len(recs))
		for _, r := range recs {
			if set[recordKey(r)] {
				t.Fatalf("duplicate record idx %d in %s", r.Idx, path)
			}
			set[recordKey(r)] = true
		}
		return set
	}
	fullSet, mergedSet := read(full), read(part)
	if len(fullSet) != len(mergedSet) {
		t.Fatalf("merged run has %d records, uninterrupted %d", len(mergedSet), len(fullSet))
	}
	for k := range fullSet {
		if !mergedSet[k] {
			t.Errorf("record missing from merged run: %s", k)
		}
	}
}

// TestCampaignResumeAfterTornLine models the harsher kill: the process
// died mid-write, so the file ends in a torn half record with no trailing
// newline. Resume must drop the fragment (not weld the first appended
// record onto it) and still converge to the uninterrupted record set.
func TestCampaignResumeAfterTornLine(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeConfig()

	full := filepath.Join(dir, "full.jsonl")
	sumFull, err := RunFile(cfg, full, false)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.jsonl")
	// Cut mid-line somewhere past the header: a torn final record.
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFile(cfg, torn, true); err != nil {
		t.Fatal(err)
	}

	read := func(path string) map[string]bool {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, recs, err := ReadResults(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		set := make(map[string]bool, len(recs))
		for _, r := range recs {
			set[recordKey(r)] = true
		}
		return set
	}
	fullSet, mergedSet := read(full), read(torn)
	if len(mergedSet) != sumFull.Tests || len(mergedSet) != len(fullSet) {
		t.Fatalf("merged run has %d records, uninterrupted %d", len(mergedSet), len(fullSet))
	}
	for k := range fullSet {
		if !mergedSet[k] {
			t.Errorf("record missing from merged run: %s", k)
		}
	}
}

// TestResumeRejectsForeignConfig pins the config-hash gate: resuming a
// results file with a different generation space must error out rather
// than mixing two corpora.
func TestResumeRejectsForeignConfig(t *testing.T) {
	dir := t.TempDir()
	full, path := filepath.Join(dir, "full.jsonl"), filepath.Join(dir, "r.jsonl")
	cfg := smokeConfig()
	if _, err := RunFile(cfg, full, false); err != nil {
		t.Fatal(err)
	}
	killedCopy(t, full, path)
	other := cfg
	other.Gen.Seed = 99
	other.Gen.MaxPerShape = 7
	if _, err := RunFile(other, path, true); err == nil {
		t.Fatal("resume with a different config succeeded, want refusal")
	}
}

// TestResumeRejectsOldExploreLeg: a results file whose explore leg drew its
// walks from the old overlapping seed sequence (hash suffix "/ex4") must not
// be resumed into one drawing walks 0..3, or the merged file would mix
// verdicts of two samplers under one hash.
func TestResumeRejectsOldExploreLeg(t *testing.T) {
	cfg := smokeConfig()
	cfg.ExploreSeeds = 4
	old := fmt.Sprintf("%s/op%d/ex4", cfg.Gen.Hash(), cfg.opcheckSeeds())
	path := filepath.Join(t.TempDir(), "old.jsonl")
	hdr := fmt.Sprintf("{\"format\":%q,\"config_hash\":%q}\n", FormatV1, old)
	if err := os.WriteFile(path, []byte(hdr), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFile(cfg, path, true); err == nil {
		t.Fatalf("resumed a %q results file under %q, want refusal", old, cfg.Hash())
	}
}

// TestCampaignExploreCheck runs a campaign with the exploration soak
// enabled: the explore check must actually run (not all skip), find zero
// op-ref violations, and change the config hash only when enabled.
func TestCampaignExploreCheck(t *testing.T) {
	cfg := smokeConfig()
	cfg.Gen.MaxPerShape = 4
	cfg.ExploreSeeds = 4
	if cfg.Hash() == smokeConfig().Hash() {
		t.Fatal("enabling the explore soak must change the config hash")
	}
	path := filepath.Join(t.TempDir(), "results.jsonl")
	sum, err := RunFile(cfg, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fail != 0 {
		for _, f := range sum.Failures {
			t.Errorf("FAIL %s (%s): %s", f.Name, f.Level, f.Detail)
		}
		t.Fatalf("%d/%d verdicts failed under the explore soak", sum.Fail, sum.Tests)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, recs, err := ReadResults(f)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, r := range recs {
		if r.Checks["explore"] == VerdictPass {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("explore check never ran on any generated test")
	}
}

// failingWriter accepts failAt-1 writes, then fails every later one.
type failingWriter struct{ writes, failAt int }

var errDiskFull = errors.New("no space left on device")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= w.failAt {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestRunStopsOnWriteError: a results write that fails stops the campaign.
// Run returns the error, and the generator emits no more tests than the
// writer consumed plus what the pipeline holds — both channels (2×workers
// each), one test per worker, and the one test the generator is refused —
// instead of generating and checking the rest of the corpus.
func TestRunStopsOnWriteError(t *testing.T) {
	cfg := smokeConfig()
	w := &failingWriter{failAt: 4}
	sum, err := Run(cfg, w, nil)
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("Run error = %v, want %v", err, errDiskFull)
	}
	if sum.Tests != 3 {
		t.Errorf("%d records written, want 3", sum.Tests)
	}
	bound := w.failAt + 5*cfg.Workers + 1
	if sum.Gen.Emitted > bound {
		t.Errorf("generator emitted %d tests after the write error at record %d, want at most %d",
			sum.Gen.Emitted, w.failAt, bound)
	}
}

package explore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/models/opref"
	"repro/internal/opcheck"
)

func run(t *testing.T, p *litmus.Program, cfg Config) *Result {
	t.Helper()
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("explore %s: %v", p.Name, err)
	}
	return res
}

// TestDPORReachesAllAllowedOutcomes: exhaustive exploration against the
// machine's exact axiomatic twin must cover the allowed set completely —
// including the weak outcomes of the unfenced shapes — with zero
// violations. This is the two-sided correspondence the one-sided opcheck
// sweep cannot establish.
func TestDPORReachesAllAllowedOutcomes(t *testing.T) {
	for _, p := range []*litmus.Program{
		litmus.MP(), litmus.SB(), litmus.LB(), litmus.TwoPlusTwoW(),
	} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res := run(t, p, Config{Mode: ModeDPOR})
			if len(res.Violations) > 0 {
				t.Fatalf("violations: %+v", res.Violations[0])
			}
			if !res.Full() {
				t.Fatalf("coverage %d/%d (partial=%v %s), observed %v",
					res.Covered, res.Allowed, res.Partial, res.PartialReason, res.Observed)
			}
		})
	}
}

// TestDPORFencedShapesReachOnlySC: the fenced variants' allowed sets are
// the SC sets, and the machine must both cover them and produce nothing
// else.
func TestDPORFencedShapesReachOnlySC(t *testing.T) {
	for _, p := range []*litmus.Program{litmus.SBFenced(), litmus.MPArmDMB()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res := run(t, p, Config{Mode: ModeDPOR})
			if len(res.Violations) > 0 {
				t.Fatalf("non-SC outcome reached: %+v", res.Violations[0])
			}
			if !res.Full() {
				t.Fatalf("coverage %d/%d, observed %v", res.Covered, res.Allowed, res.Observed)
			}
			if res.Allowed != 3 {
				t.Fatalf("fenced shape has %d allowed outcomes, want the 3 SC ones", res.Allowed)
			}
		})
	}
}

// TestSeededDrainsWithinExploredSystem ties the machine's two drivers
// together: RunAll under the seeded drain policy (the `-weak` demo path of
// core.WithWeakMemory) resolves the same choices the transition system
// offers, so every outcome it reaches, over 256 seeds and three quanta,
// must be one the exhaustive exploration observed.
func TestSeededDrainsWithinExploredSystem(t *testing.T) {
	for _, p := range []*litmus.Program{litmus.SB(), litmus.MP(), litmus.TwoPlusTwoW()} {
		t.Run(p.Name, func(t *testing.T) {
			explored := make(map[litmus.Outcome]bool)
			for _, o := range run(t, p, Config{Mode: ModeDPOR}).Observed {
				explored[o] = true
			}
			c, err := opcheck.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			seeded := make(map[litmus.Outcome]bool)
			for _, quantum := range []int{1, 2, 8} {
				for seed := int64(0); seed < 256; seed++ {
					m, err := c.NewMachine()
					if err != nil {
						t.Fatal(err)
					}
					m.EnableWeakMode(machine.NewSeededDrains(seed, 48))
					if err := m.RunAll(quantum, 100_000); err != nil {
						t.Fatal(err)
					}
					o, err := c.Outcome(m)
					if err != nil {
						t.Fatal(err)
					}
					if !explored[o] {
						t.Fatalf("quantum %d seed %d reached %q, which DPOR did not observe (%v)", quantum, seed, o, explored)
					}
					seeded[o] = true
				}
			}
			if len(seeded) < 2 {
				t.Errorf("768 seeded runs reached only %v: the comparison is vacuous", seeded)
			}
		})
	}
}

// TestWalkSoundOnCorpus: every random-walk outcome across the .lit corpus
// (16 seeds per test) must be admitted by the op-ref model — the at-scale
// soak of the acceptance criteria, in miniature.
func TestWalkSoundOnCorpus(t *testing.T) {
	files, err := filepath.Glob("../models/*/testdata/*.lit")
	if err != nil || len(files) == 0 {
		t.Fatalf("no .lit corpus found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := litmus.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			res := run(t, pt.Program, Config{Mode: ModeWalk, Seeds: 16})
			if len(res.Violations) > 0 {
				v := res.Violations[0]
				t.Fatalf("operational outcome outside op-ref: %q (%s), trace %d decisions",
					v.Outcome, v.Reason, len(v.Trace))
			}
		})
	}
}

// TestWalkDeterministicPerSeed: the same seed must produce the same
// run — the property that makes the soak reproducible without traces.
func TestWalkDeterministicPerSeed(t *testing.T) {
	a := run(t, litmus.SB(), Config{Mode: ModeWalk, Seeds: 8, Seed: 7})
	b := run(t, litmus.SB(), Config{Mode: ModeWalk, Seeds: 8, Seed: 7})
	if strings.Join(outcomes(a), "|") != strings.Join(outcomes(b), "|") || a.States != b.States {
		t.Fatalf("same-seed walks diverged: %v/%d vs %v/%d", a.Observed, a.States, b.Observed, b.States)
	}
}

func outcomes(r *Result) []string {
	var s []string
	for _, o := range r.Observed {
		s = append(s, string(o))
	}
	return s
}

// TestReplayByteIdentity: a recorded trace, replayed, must re-encode to
// the identical bytes — for a violation-free walk trace and for a
// budget-cut partial trace alike.
func TestReplayByteIdentity(t *testing.T) {
	p := litmus.SB()

	// Manufacture a complete trace by walking to a leaf and recording.
	c, err := opcheck.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := litmus.Enumerate(p, opref.New(), litmus.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	var decisions []machine.Transition
	halted, err := m.Walk(42, 4096, func(tr machine.Transition, _ error) bool {
		decisions = append(decisions, tr)
		return true
	})
	if err != nil || !halted {
		t.Fatalf("walk: halted=%v err=%v", halted, err)
	}
	o, err := c.Outcome(m)
	if err != nil {
		t.Fatal(err)
	}
	verdict := VerdictViolation
	if allowed[o] {
		verdict = VerdictAllowed
	}
	orig := Trace{
		Header:    TraceHeader{Format: TraceFormatV1, Test: p.Name, Mode: string(ModeWalk)},
		Decisions: decisions,
		Final:     TraceFinal{Outcome: string(o), Verdict: verdict, Steps: len(decisions)},
	}
	origBytes, err := EncodeTrace(orig)
	if err != nil {
		t.Fatal(err)
	}

	decoded, err := DecodeTrace(bytes.NewReader(origBytes))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(p, decoded, Config{})
	if err != nil {
		t.Fatal(err)
	}
	replayBytes, err := EncodeTrace(*replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(origBytes, replayBytes) {
		t.Fatalf("replay not byte-identical:\n--- recorded\n%s--- replayed\n%s", origBytes, replayBytes)
	}

	// Partial trace: cut the same decisions short; replay must report
	// partial with the same byte rendering.
	cutN := len(decisions) / 2
	partial := Trace{
		Header:    orig.Header,
		Decisions: decisions[:cutN],
		Final:     TraceFinal{Verdict: VerdictPartial, Steps: cutN},
	}
	partialBytes, err := EncodeTrace(partial)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Replay(p, &partial, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rpBytes, err := EncodeTrace(*rp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(partialBytes, rpBytes) {
		t.Fatalf("partial replay not byte-identical:\n%s\nvs\n%s", partialBytes, rpBytes)
	}
}

// TestBudgetYieldsPartialNotHang: a tiny state budget must cut the
// exploration with a partial verdict and a replayable trace, never an
// error or a hang.
func TestBudgetYieldsPartialNotHang(t *testing.T) {
	res := run(t, litmus.SB(), Config{Mode: ModeDPOR, MaxStates: 5})
	if !res.Partial {
		t.Fatal("5-state budget did not yield a partial verdict")
	}
	tr, ok := res.FirstTrace()
	if !ok {
		t.Fatal("partial result carries no trace")
	}
	if tr.Final.Verdict != VerdictPartial {
		t.Fatalf("trace verdict %q, want partial", tr.Final.Verdict)
	}
	if _, err := Replay(litmus.SB(), &tr, Config{}); err != nil {
		t.Fatalf("partial trace does not replay: %v", err)
	}
}

// TestSoakFileResume: killing a soak between records and resuming must
// produce the same merged record set as an uninterrupted run, and a
// config change must refuse to resume.
func TestSoakFileResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "soak.jsonl")
	tests := []*litmus.Program{litmus.MP(), litmus.SB(), litmus.LB()}
	cfg := Config{Mode: ModeWalk, Seeds: 4}

	// First leg: only the first test.
	if _, err := RunFile(tests[:1], cfg, path, false); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"test":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	soak, err := RunFile(tests, cfg, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if soak.Resumed != 1 || soak.Tests != 2 {
		t.Fatalf("resume ran %d tests, skipped %d; want 2 and 1", soak.Tests, soak.Resumed)
	}
	data, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	_, recs, err := ReadSoak(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("merged file has %d records, want 3: %+v", len(recs), recs)
	}
	for i, p := range tests {
		if recs[i].Test != p.Name {
			t.Fatalf("record %d is %q, want %q", i, recs[i].Test, p.Name)
		}
	}

	other := cfg
	other.Seeds = 5
	if _, err := RunFile(tests, other, path, true); err == nil {
		t.Fatal("resume with a different config must be refused")
	}
}

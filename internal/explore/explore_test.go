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
	a := run(t, litmus.SB(), Config{Mode: ModeWalk, Seeds: 8})
	b := run(t, litmus.SB(), Config{Mode: ModeWalk, Seeds: 8})
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
	allowed, err := litmus.Enumerate(p, opref.New())
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
	replayed, err := Replay(p, decoded)
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
	rp, err := Replay(p, &partial)
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
	if _, err := Replay(litmus.SB(), &tr); err != nil {
		t.Fatalf("partial trace does not replay: %v", err)
	}
}

// TestWalkBudgetCutsOnlyUnfinishedWalks: a state budget that a walk's last
// transition spends leaves the walk complete, and one transition less cuts
// it with a trace that replays byte-identically as partial.
func TestWalkBudgetCutsOnlyUnfinishedWalks(t *testing.T) {
	p := litmus.MP()
	n := run(t, p, Config{Mode: ModeWalk, Seeds: 1}).States
	if res := run(t, p, Config{Mode: ModeWalk, Seeds: 1, MaxStates: n}); res.Partial || res.Runs != 1 {
		t.Fatalf("budget %d = the walk's length: partial=%v runs=%d, want a complete walk", n, res.Partial, res.Runs)
	}
	res := run(t, p, Config{Mode: ModeWalk, Seeds: 1, MaxStates: n - 1})
	tr, ok := res.FirstTrace()
	if !ok || tr.Final.Verdict != VerdictPartial {
		t.Fatalf("budget %d: no partial trace (partial=%v)", n-1, res.Partial)
	}
	want, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(p, &tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := EncodeTrace(*replayed); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cut walk does not replay byte-identically (%v):\n%s\nvs\n%s", err, want, got)
	}
}

// TestDPORBudgetCutsOnlyUnfinishedRuns is the DPOR twin of
// TestWalkBudgetCutsOnlyUnfinishedWalks: a budget that expires on a leaf
// records that run rather than cutting it, so at every budget the partial
// trace stops where transitions are left and replays byte-identically.
// The budgets run past MP's first few leaves.
func TestDPORBudgetCutsOnlyUnfinishedRuns(t *testing.T) {
	p := litmus.MP()
	runs := 0
	for budget := 1; budget <= 64; budget++ {
		res := run(t, p, Config{Mode: ModeDPOR, MaxStates: budget})
		runs = res.Runs
		tr, ok := res.FirstTrace()
		if !ok || tr.Final.Verdict != VerdictPartial {
			t.Fatalf("budget %d: no partial trace (partial=%v)", budget, res.Partial)
		}
		want, err := EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := Replay(p, &tr)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := EncodeTrace(*replayed); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("budget %d: cut run does not replay byte-identically (%v):\n%s\nvs\n%s", budget, err, want, got)
		}
	}
	if runs == 0 {
		t.Fatal("no budget up to 64 reached a leaf")
	}
}

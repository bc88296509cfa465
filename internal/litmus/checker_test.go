package litmus_test

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/models"
)

// keep deep-copies a candidate, which is valid only until
// EnumerateCandidates' fn returns: the events (their values), the seven
// relations and the register files are the enumerator's storage, rewritten
// for the next candidate (Rf, Co, values, registers) and for the next
// skeleton (the events, Po, Rmw and the dependencies).
func keep(c *litmus.Candidate) *litmus.Candidate {
	x := *c.X
	x.Events = slices.Clone(x.Events)
	x.Po, x.Rf, x.Co, x.Rmw = x.Po.Clone(), x.Rf.Clone(), x.Co.Clone(), x.Rmw.Clone()
	x.Data, x.Addr, x.Ctrl = x.Data.Clone(), x.Addr.Clone(), x.Ctrl.Clone()
	regs := make([]map[litmus.Reg]int64, len(c.Regs))
	for t, rs := range c.Regs {
		regs[t] = maps.Clone(rs)
	}
	return &litmus.Candidate{X: &x, Regs: regs}
}

// skeletons groups copies of p's candidates by skeleton job. Every job is
// enumerated in the same storage, so the grouping goes by the job index
// EnumerateJobs reports, not by what the candidates hold: two control
// paths can even lower to equal skeletons.
func skeletons(p *litmus.Program) [][]*litmus.Candidate {
	var out [][]*litmus.Candidate
	last := -1
	litmus.EnumerateJobs(p, func(job int, c *litmus.Candidate) bool {
		if job != last {
			out, last = append(out, nil), job
		}
		out[len(out)-1] = append(out[len(out)-1], keep(c))
		return true
	})
	return out
}

// candidateCount is the number of candidates EnumerateCandidates produces.
func candidateCount(p *litmus.Program) int {
	n := 0
	litmus.EnumerateCandidates(p, func(*litmus.Candidate) bool { n++; return true })
	return n
}

// requireKept fails unless sks holds, in enumeration order, a copy of every
// candidate EnumerateCandidates produces, as TestCandidateStream renders
// them, and returns how many that is. A skeletons that kept the
// enumerator's storage instead of copying it would hold the state of a
// later candidate, or of a later skeleton, where an earlier one belongs,
// and a differential run on it would compare far less than it claims
// while still passing.
func requireKept(t *testing.T, p *litmus.Program, sks [][]*litmus.Candidate) int {
	t.Helper()
	kept := slices.Concat(sks...)
	n := 0
	litmus.EnumerateCandidates(p, func(c *litmus.Candidate) bool {
		if n >= len(kept) || litmus.RenderCandidate(kept[n]) != litmus.RenderCandidate(c) {
			t.Fatalf("%s: kept candidate %d of %d differs from the one enumerated: skeletons must copy what it keeps",
				p.Name, n, len(kept))
		}
		n++
		return true
	})
	if n != len(kept) {
		t.Fatalf("%s: %d candidates kept, %d enumerated", p.Name, len(kept), n)
	}
	return n
}

// newChecker prepares m for the skeleton x is a candidate of.
func newChecker(m memmodel.Model, x *memmodel.Execution) *memmodel.Checker {
	return memmodel.NewChecker(m, &memmodel.Skeleton{
		Events: x.Events, Po: x.Po, Rmw: x.Rmw, Data: x.Data, Addr: x.Addr, Ctrl: x.Ctrl})
}

// differentialPrograms is the input of the evaluator differential: the
// named corpus (x86, TCG and Arm level; MPDataRfiAddr is the program where
// Arm-Cats' and IMM's candidate-varying (addr ∪ data);rfi term decides the
// verdict), the x86 corpus carried to every other level by its verified
// route (SPARC membars, IMM and IR fences, Arm barriers and casal), and a
// generated slice decorated with addr/data/ctrl dependencies,
// acquire/release attributes and CAS RMWs.
func differentialPrograms(t *testing.T) []*litmus.Program {
	progs := litmus.TestCorpus()
	for _, l := range memmodel.Levels()[1:] {
		route, ok := mapping.DefaultSchemes().VerifiedRoute(memmodel.LevelX86, l)
		if !ok {
			t.Fatalf("no verified route x86→%s", l)
		}
		for _, p := range litmus.X86Corpus() {
			progs = append(progs, mapping.ApplyRoute(route, p))
		}
	}
	litmusgen.Stream(litmusgen.Config{Seed: 12, MaxPerShape: 6}, func(gt *litmusgen.Test) bool {
		progs = append(progs, gt.Prog)
		return true
	})
	return progs
}

// TestPreparedMatchesPlain is the one differential that holds the model
// evaluators together: for every registered model (variants included) and
// every candidate of every input program, the Checker prepared for the
// candidate's skeleton — invariant terms hoisted, closures elided, empty
// terms skipped, scratch reused from candidate to candidate — returns the
// verdict of the plain reference evaluator. requireKept first holds the
// compared candidates to every candidate of the program. The skeletons of
// all programs are visited largest, smallest, next largest, next smallest,
// and so on, so the checker each one takes from the model's pool was
// mostly last prepared for a skeleton of another size: larger, then
// smaller.
func TestPreparedMatchesPlain(t *testing.T) {
	type skeleton struct {
		prog  string
		cands []*litmus.Candidate
	}
	var all []skeleton
	want := 0
	entries := models.Default().Entries()
	for _, p := range differentialPrograms(t) {
		sks := skeletons(p)
		want += requireKept(t, p, sks) * len(entries)
		for _, cands := range sks {
			all = append(all, skeleton{p.Name, cands})
		}
	}
	size := func(sk skeleton) int { return len(sk.cands[0].X.Events) }
	slices.SortStableFunc(all, func(a, b skeleton) int { return size(a) - size(b) })
	order := make([]skeleton, 0, len(all))
	for lo, hi := 0, len(all)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, all[hi])
		if lo < hi {
			order = append(order, all[lo])
		}
	}
	shrank, grew := 0, 0
	for i := 1; i < len(order); i++ {
		switch d := size(order[i]) - size(order[i-1]); {
		case d < 0:
			shrank++
		case d > 0:
			grew++
		}
	}
	if shrank == 0 || grew == 0 {
		t.Fatalf("skeleton sizes shrink %d and grow %d times from one to the next; want both", shrank, grew)
	}
	verdicts := 0
	for _, e := range entries {
		for _, sk := range order {
			ck := newChecker(e.Model, sk.cands[0].X)
			for _, c := range sk.cands {
				if got, want := ck.Consistent(c.X), memmodel.ReferenceConsistent(e.Model, c.X); got != want {
					t.Fatalf("%s under %s: checker=%v reference=%v for\n%v", sk.prog, e.Name, got, want, c.X)
				}
			}
			ck.Release()
			verdicts += len(sk.cands)
		}
	}
	if verdicts != want {
		t.Fatalf("%d verdicts compared, want one per candidate per model: %d", verdicts, want)
	}
	t.Logf("%d verdicts compared; skeleton size shrank %d and grew %d times between checkers", verdicts, shrank, grew)
}

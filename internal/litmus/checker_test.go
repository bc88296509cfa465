package litmus_test

import (
	"fmt"
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
// EnumerateCandidates' fn returns: the events (their values), Rf, Co and the
// register files are the enumerator's storage, rewritten for the next
// candidate, while the skeleton's relations (Po, Rmw and the dependencies)
// are shared by every candidate of a skeleton and stay shared.
func keep(c *litmus.Candidate) *litmus.Candidate {
	x := *c.X
	x.Events = slices.Clone(x.Events)
	x.Rf, x.Co = x.Rf.Clone(), x.Co.Clone()
	regs := make([]map[litmus.Reg]int64, len(c.Regs))
	for t, rs := range c.Regs {
		regs[t] = maps.Clone(rs)
	}
	return &litmus.Candidate{X: &x, Regs: regs}
}

// skeletons groups copies of p's candidates by skeleton. Candidates of one
// skeleton share its relations, so a new Po pointer marks a new skeleton.
func skeletons(p *litmus.Program) [][]*litmus.Candidate {
	var out [][]*litmus.Candidate
	litmus.EnumerateCandidates(p, func(c *litmus.Candidate) bool {
		if k := len(out); k == 0 || out[k-1][0].X.Po != c.X.Po {
			out = append(out, nil)
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

// requireKept fails unless sks holds as many distinct candidates, rendered
// as TestCandidateStream renders them, as EnumerateCandidates produces. A
// skeletons that kept the enumerator's storage instead of copying it would
// hold one candidate per skeleton many times over, and a differential run
// on it would compare almost nothing while still passing. (Within one
// skeleton, distinct candidates differ in rf or co; the skeleton index
// keeps two skeletons' equal candidates apart.)
func requireKept(t *testing.T, p *litmus.Program, sks [][]*litmus.Candidate) int {
	t.Helper()
	distinct := make(map[string]bool)
	for k, cands := range sks {
		for _, c := range cands {
			distinct[fmt.Sprint(k, "\n", litmus.RenderCandidate(c))] = true
		}
	}
	n := candidateCount(p)
	if len(distinct) != n {
		t.Fatalf("%s: %d distinct candidates kept, %d enumerated: skeletons must copy what it keeps",
			p.Name, len(distinct), n)
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
// compared candidates to every candidate of the program.
func TestPreparedMatchesPlain(t *testing.T) {
	verdicts, want := 0, 0
	entries := models.Default().Entries()
	for _, p := range differentialPrograms(t) {
		sks := skeletons(p)
		want += requireKept(t, p, sks) * len(entries)
		for _, e := range entries {
			for _, cands := range sks {
				ck := newChecker(e.Model, cands[0].X)
				for _, c := range cands {
					if got, want := ck.Consistent(c.X), memmodel.ReferenceConsistent(e.Model, c.X); got != want {
						t.Fatalf("%s under %s: checker=%v reference=%v for\n%v", p.Name, e.Name, got, want, c.X)
					}
				}
				ck.Release()
				verdicts += len(cands)
			}
		}
	}
	if verdicts != want {
		t.Fatalf("%d verdicts compared, want one per candidate per model: %d", verdicts, want)
	}
	t.Logf("%d verdicts compared", verdicts)
}

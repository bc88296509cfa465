package litmus_test

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/models"
)

// skeletons groups p's candidates by skeleton. Candidates of one skeleton
// share its relations, so a new Po pointer marks a new skeleton.
func skeletons(p *litmus.Program) [][]*memmodel.Execution {
	var out [][]*memmodel.Execution
	litmus.EnumerateCandidates(p, func(c *litmus.Candidate) bool {
		if k := len(out); k == 0 || out[k-1][0].Po != c.X.Po {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], c.X)
		return true
	})
	return out
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
// verdict of the plain reference evaluator.
func TestPreparedMatchesPlain(t *testing.T) {
	verdicts := 0
	for _, p := range differentialPrograms(t) {
		sks := skeletons(p)
		for _, e := range models.Default().Entries() {
			for _, cands := range sks {
				ck := newChecker(e.Model, cands[0])
				for _, x := range cands {
					if got, want := ck.Consistent(x), memmodel.ReferenceConsistent(e.Model, x); got != want {
						t.Fatalf("%s under %s: checker=%v reference=%v for\n%v", p.Name, e.Name, got, want, x)
					}
				}
				ck.Release()
				verdicts += len(cands)
			}
		}
	}
	t.Logf("%d verdicts compared", verdicts)
}

package litmus

import (
	"os"
	"testing"
)

// TestCorpus exposes the in-package corpus list to the external tests.
var TestCorpus = testCorpus

// DepShapes exposes the register-dataflow shapes to the external tests.
var DepShapes = depShapes

// RenderCandidate exposes TestCandidateStream's rendering of everything a
// candidate carries.
var RenderCandidate = renderCandidate

// LitFilePrograms parses every .lit file shipped as model test data.
func LitFilePrograms(t testing.TB) []*Program {
	var out []*Program
	for _, path := range corpusLitFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, pt.Program)
	}
	return out
}

// EnumerateRendered is EnumerateCandidates that also hands fn the outcome
// the enumerator renders in place for the candidate, as Enumerate interns
// it.
func EnumerateRendered(p *Program, fn func(c *Candidate, outcome []byte) bool) {
	mustCompile(p).forEachJob(func(j *skeletonJob) bool {
		return j.enumerate(func(s *scratch) bool { return fn(&s.c, s.appendOutcome(nil)) })
	})
}

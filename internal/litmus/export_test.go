package litmus

import (
	"os"
	"testing"

	"repro/internal/memmodel"
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

// EnumerateJobs is EnumerateCandidates that also hands fn the index of the
// skeleton job the candidate belongs to, counted from 0 in enumeration
// order. The job's storage is the same for every skeleton, so nothing in a
// candidate tells two skeletons apart; this index does.
func EnumerateJobs(p *Program, fn func(job int, c *Candidate) bool) {
	job := -1
	mustCompile(p).forEachJob(func(j *skeletonJob) bool {
		job++
		return j.enumerate(func(s *scratch) bool { return fn(job, &s.c) })
	})
}

// Compiled lowers p once and returns its serial enumeration under a model,
// so a test can count what enumerating costs apart from compiling.
func Compiled(p *Program) func(memmodel.Model) OutcomeSet {
	return mustCompile(p).outcomes
}

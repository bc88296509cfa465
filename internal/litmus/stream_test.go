package litmus

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const streamGolden = "testdata/stream.golden"

// renderCandidate writes out everything a candidate carries: every event
// field (resolved values included), the seven relations as sorted edge
// lists, and the final registers by thread then name.
func renderCandidate(c *Candidate) string {
	var b strings.Builder
	for _, e := range c.X.Events {
		fmt.Fprintf(&b, "%d/%d/%d/%s/%d/%d/%t/%t/%t/%t/%d\n", e.ID, e.Thread, int(e.Kind),
			e.Loc, e.Val, int(e.Fence), e.Acq, e.AcqPC, e.Rel, e.SC, int(e.RMW))
	}
	x := c.X
	fmt.Fprintf(&b, "po=%v rf=%v co=%v rmw=%v data=%v addr=%v ctrl=%v\n",
		x.Po, x.Rf, x.Co, x.Rmw, x.Data, x.Addr, x.Ctrl)
	for t, regs := range c.Regs {
		names := make([]string, 0, len(regs))
		for r := range regs {
			names = append(names, string(r))
		}
		sort.Strings(names)
		for _, r := range names {
			fmt.Fprintf(&b, "%d:%s=%d ", t, r, regs[Reg(r)])
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// TestCandidateStream pins the enumerator itself rather than what the models
// make of it: per program of the corpus and of depShapes, the number of
// skeleton jobs, the number of
// candidates, and a hash over every candidate in enumeration order — seen or
// not by any model. Regenerate with
// go test ./internal/litmus -run TestCandidateStream -update, and only for a
// change that means to alter the search.
func TestCandidateStream(t *testing.T) {
	var got strings.Builder
	for _, p := range append(testCorpus(), depShapes()...) {
		jobs, candidates := 0, 0
		mustCompile(p).forEachJob(func(*skeletonJob) bool { jobs++; return true })
		h := sha256.New()
		EnumerateCandidates(p, func(c *Candidate) bool {
			h.Write([]byte(renderCandidate(c)))
			candidates++
			return true
		})
		fmt.Fprintf(&got, "%s jobs=%d candidates=%d sha256=%x\n",
			p.Name, jobs, candidates, h.Sum(nil))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(streamGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(want) != got.String() {
		t.Errorf("candidate stream diverges from %s\n--- golden ---\n%s--- current ---\n%s",
			streamGolden, want, got.String())
	}
}

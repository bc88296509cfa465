package explore

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/opcheck"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explore.golden")

// goldenCorpus is every named corpus test (litmus.Named), then the .lit
// corpus under internal/models, labelled by file name.
func goldenCorpus(t *testing.T) (labels []string, progs []*litmus.Program) {
	t.Helper()
	for _, p := range litmus.Named() {
		labels, progs = append(labels, p.Name), append(progs, p)
	}
	files, err := filepath.Glob("../models/*/testdata/*.lit")
	if err != nil || len(files) == 0 {
		t.Fatalf("no .lit corpus found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := litmus.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		labels, progs = append(labels, filepath.Base(f)), append(progs, pt.Program)
	}
	return labels, progs
}

// goldenMaxStates is the golden's DPOR state budget: DPOR completes on all
// but the four-thread shapes.
const goldenMaxStates = 20_000

// traceHash renders a decision sequence's identity in 12 hex digits.
func traceHash(ts []machine.Transition) string {
	h := sha256.New()
	for _, tr := range ts {
		fmt.Fprintf(h, "%s%d.%d ", tr.Op, tr.CPU, tr.Seq)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:6])
}

func joinOutcomes(outs []litmus.Outcome) string {
	s := make([]string, len(outs))
	for i, o := range outs {
		s[i] = string(o)
	}
	return strings.Join(s, " | ")
}

// TestExploreGolden pins what exploration computes over the corpus:
// ModeDPOR (bounded by goldenMaxStates) states, runs, pruned
// branches, coverage, the partial cut and its trace, violations and their
// traces, and every observed outcome; ModeWalk (16 seeds) states and
// outcomes; and opcheck.Observe(8)'s outcome set. A change to the machine,
// opcheck or explore that is not meant to alter the search must leave every
// line as it is. Regenerate with go test ./internal/explore -run
// ExploreGolden -update.
func TestExploreGolden(t *testing.T) {
	labels, progs := goldenCorpus(t)
	var out strings.Builder
	for i, p := range progs {
		label := labels[i]
		c, err := opcheck.Compile(p)
		if errors.Is(err, opcheck.ErrUnsupported) {
			fmt.Fprintf(&out, "%s: unsupported\n", label)
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res := run(t, p, Config{Mode: ModeDPOR, MaxStates: goldenMaxStates})
		fmt.Fprintf(&out, "%s %s: states=%d runs=%d pruned=%d covered=%d/%d partial=%v cut=%s violations=%d",
			label, ModeDPOR, res.States, res.Runs, res.Pruned, res.Covered, res.Allowed,
			res.Partial, traceHash(res.PartialTrace), len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(&out, " [%s %q %s]", traceHash(v.Trace), v.Outcome, v.Reason)
		}
		fmt.Fprintf(&out, " observed=%s\n", joinOutcomes(res.Observed))
		res = run(t, p, Config{Mode: ModeWalk, Seeds: 16})
		fmt.Fprintf(&out, "%s walk: states=%d runs=%d violations=%d observed=%s\n",
			label, res.States, res.Runs, len(res.Violations), joinOutcomes(res.Observed))
		set, err := c.Observe(8)
		if err != nil {
			t.Fatalf("%s: Observe: %v", label, err)
		}
		fmt.Fprintf(&out, "%s observe8: %s\n", label, joinOutcomes(set.Sorted()))
	}

	golden := filepath.Join("testdata", "explore.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<missing>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("line %d differs from %s:\ngot  %s\nwant %s", i+1, golden, gl[i], w)
			}
		}
		t.Fatalf("%s has %d lines, the sweep %d", golden, len(wl), len(gl))
	}
}

// TestWalkIsObserve: explore's walk mode and opcheck.Observe are one
// sampler, so 24 walks reach exactly the outcomes of Observe(8), which
// samples walks 0..23 too.
func TestWalkIsObserve(t *testing.T) {
	labels, progs := goldenCorpus(t)
	for i, p := range progs {
		c, err := opcheck.Compile(p)
		if errors.Is(err, opcheck.ErrUnsupported) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		want, err := c.Observe(8)
		if err != nil {
			t.Fatalf("%s: Observe: %v", labels[i], err)
		}
		got := run(t, p, Config{Mode: ModeWalk, Seeds: 24}).Observed
		if joinOutcomes(got) != joinOutcomes(want.Sorted()) {
			t.Errorf("%s: 24 walks observed %s, Observe(8) %s", labels[i], joinOutcomes(got), joinOutcomes(want.Sorted()))
		}
	}
}

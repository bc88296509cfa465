package litmus

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/models/armcats"
	"repro/internal/models/tcgmm"
	"repro/internal/models/x86tso"
)

var update = flag.Bool("update", false, "rewrite golden outcome files")

// testCorpus returns every named program of corpus.go, across all three
// levels (x86, TCG IR, Arm).
func testCorpus() []*Program {
	ps := X86Corpus()
	ps = append(ps,
		MPAddr(), MPDataRfiAddr(), LBAddr(), IRIWFenced(),
		Fig9a(), Fig9b(),
		LBIR(), MPIR(), FMRSource(), FMRTarget(),
		SBALArm(), MPArm(), MPArmDMB(),
	)
	return ps
}

// testModels returns the four models the golden tests sweep: x86-TSO, the
// TCG IR model, and both Armed-Cats variants.
func testModels() []memmodel.Model {
	return []memmodel.Model{
		x86tso.New(),
		tcgmm.New(),
		armcats.New(),
		armcats.NewVariant(armcats.Original),
	}
}

// goldenFileName maps a program name to its snapshot file, replacing
// characters that are awkward in filenames.
func goldenFileName(prog string) string {
	sanitized := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, prog)
	return filepath.Join("testdata", "golden", sanitized+".txt")
}

// goldenRender computes the canonical snapshot of one program: its sorted
// outcome set under each of the four models, in testModels order.
func goldenRender(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — admitted outcomes per model.\n", p.Name)
	fmt.Fprintf(&b, "# Regenerate: go test ./internal/litmus -run TestGoldenOutcomes -update\n")
	for _, m := range testModels() {
		fmt.Fprintf(&b, "\n[%s]\n", m.Name())
		for _, o := range Outcomes(p, m).Sorted() {
			fmt.Fprintln(&b, string(o))
		}
	}
	return b.String()
}

// TestGoldenOutcomes pins the exact outcome set of every corpus program
// under every model. Any enumerator or model refactor that silently changes
// admitted behaviours fails here; run with -update to bless intended changes.
func TestGoldenOutcomes(t *testing.T) {
	seen := make(map[string]string)
	for _, p := range testCorpus() {
		path := goldenFileName(p.Name)
		if prev, dup := seen[path]; dup {
			t.Fatalf("golden file collision: %q and %q both map to %s", prev, p.Name, path)
		}
		seen[path] = p.Name

		got := goldenRender(p)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: missing golden file (run with -update): %v", p.Name, err)
			continue
		}
		if string(want) != got {
			t.Errorf("%s: outcome set diverges from %s\n--- golden ---\n%s\n--- current ---\n%s",
				p.Name, path, want, got)
		}
	}
}

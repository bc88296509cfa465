package litmusgen

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/models/armcats"
	"repro/internal/models/tcgmm"
	"repro/internal/models/x86tso"
)

var (
	update      = flag.Bool("update", false, "rewrite testdata/gencorpus.golden")
	refreshFuzz = flag.Bool("refresh-fuzz", false,
		"rewrite the generated seed corpus under internal/litmus/testdata/fuzz/FuzzParse")
	diffSeed = flag.Int64("diffseed", 1, "seed for the randomized differential test")
)

// collect materializes a generation run for tests that want the full slice.
func collect(cfg Config) []*Test {
	var out []*Test
	Stream(cfg, func(t *Test) bool {
		out = append(out, t)
		return true
	})
	return out
}

// roundTripConfig spans every shape family at both levels with enough
// per-shape budget that every decoration kind (each fence, each dependency,
// each event attribute, RMWs) appears somewhere in the stream.
func roundTripConfig() Config {
	return Config{Seed: 1, MaxThreads: 3, MaxPerShape: 48}
}

// TestRoundTrip pins Render as the exact inverse of litmus.Parse on the
// whole generated space: parse(render(p)) must reproduce p op-for-op and
// fingerprint-for-fingerprint for every emitted test.
func TestRoundTrip(t *testing.T) {
	tests := collect(roundTripConfig())
	if len(tests) == 0 {
		t.Fatal("generator emitted nothing")
	}
	families := make(map[string]bool)
	for _, gt := range tests {
		families[strings.SplitN(gt.Prog.Name, ".", 3)[1]] = true
		src := Render(gt.Prog)
		pt, err := litmus.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse(render(p)): %v\n%s", gt.Prog.Name, err, src)
		}
		if !reflect.DeepEqual(pt.Program, gt.Prog) {
			t.Fatalf("%s: parse(render(p)) ≠ p\nrendered:\n%s\ngot  %#v\nwant %#v",
				gt.Prog.Name, src, pt.Program, gt.Prog)
		}
		if fp := pt.Program.Fingerprint(); fp != gt.Fingerprint {
			t.Fatalf("%s: fingerprint drifted through the round trip:\n got %s\nwant %s",
				gt.Prog.Name, fp, gt.Fingerprint)
		}
	}
	// The property above is only as strong as the stream's coverage: demand
	// every family actually appeared.
	for _, fam := range []string{"mp", "sb", "lb", "2+2w", "s", "r", "co"} {
		covered := false
		for f := range families {
			if strings.HasPrefix(f, fam) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("round-trip stream never produced family %q (saw %v)", fam, families)
		}
	}
}

// goldenConfig is the pinned corpus of the determinism test. Do not change
// it casually: the golden manifest encodes the exact emission order.
func goldenConfig() Config {
	return Config{Seed: 7, MaxThreads: 3, MaxPerShape: 24}
}

const goldenPath = "testdata/gencorpus.golden"

// manifest renders the deterministic one-line-per-test summary of a run:
// index, fingerprint hash, level and name, in emission order.
func manifest(cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# litmusgen corpus manifest — config %s\n", cfg.Hash())
	fmt.Fprintf(&b, "# Regenerate: go test ./internal/litmusgen -run TestGoldenManifest -update\n")
	st := Stream(cfg, func(t *Test) bool {
		fmt.Fprintf(&b, "%05d %s %s %s\n", t.Idx, t.FPHash(), t.Level, t.Prog.Name)
		return true
	})
	fmt.Fprintf(&b, "# enumerated %d, duplicates %d, emitted %d\n",
		st.Enumerated, st.Duplicates, st.Emitted)
	return b.String()
}

// TestGoldenManifest pins byte-identical determinism: a fixed seed and
// config must reproduce the exact same test sequence — names, order and
// fingerprints — across refactors of the generator. Run with -update to
// bless intended generator changes.
func TestGoldenManifest(t *testing.T) {
	got := manifest(goldenConfig())
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden manifest (run with -update): %v", err)
	}
	if string(want) != got {
		t.Fatalf("generated corpus diverges from %s (byte-identical determinism broken);\n"+
			"re-run with -update only if the generator change is intentional", goldenPath)
	}
	// Same config, second run, same process: the stream must not carry
	// hidden state between runs.
	if again := manifest(goldenConfig()); again != got {
		t.Fatal("two Stream runs with the same config differ within one process")
	}
}

// TestDifferentialPreparedVsPlain draws K random generated tests and checks
// that litmus.Enumerate (cache, options, per-skeleton Checkers) computes
// the same outcome set as the reference evaluator run on every candidate,
// under all three models. litmus's TestPreparedMatchesPlain compares the
// two evaluators verdict by verdict; this pins the enumeration pipeline
// around them on randomly drawn shapes.
func TestDifferentialPreparedVsPlain(t *testing.T) {
	pool := collect(Config{Seed: 3, MaxThreads: 3, MaxPerShape: 64})
	if len(pool) == 0 {
		t.Fatal("generator emitted nothing")
	}
	const k = 48
	rng := rand.New(rand.NewSource(*diffSeed))
	for i := 0; i < k; i++ {
		gt := pool[rng.Intn(len(pool))]
		for _, m := range []memmodel.Model{x86tso.New(), tcgmm.New(), armcats.New()} {
			plain := make(litmus.OutcomeSet)
			litmus.EnumerateCandidates(gt.Prog, func(c *litmus.Candidate) bool {
				if memmodel.ReferenceConsistent(m, c.X) {
					plain[litmus.OutcomeOf(c)] = true
				}
				return true
			})
			prepared, err := litmus.Enumerate(gt.Prog, m, litmus.WithCache(litmus.NewCache()))
			if err != nil {
				t.Fatalf("seed %d: %s under %s: %v", *diffSeed, gt.Prog.Name, m.Name(), err)
			}
			if !sameOutcomes(plain, prepared) {
				t.Errorf("seed %d: %s under %s: Enumerate disagrees with the reference evaluator\n"+
					"plain    %v\nprepared %v\n%s",
					*diffSeed, gt.Prog.Name, m.Name(), plain.Sorted(), prepared.Sorted(),
					Render(gt.Prog))
			}
		}
	}
}

func sameOutcomes(a, b litmus.OutcomeSet) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}

// fuzzCorpusDir is where go's fuzzer looks for FuzzParse seed inputs; the
// litmus package executes every file here during plain `go test` runs too.
const fuzzCorpusDir = "../litmus/testdata/fuzz/FuzzParse"

// fuzzCorpusSize bounds the generated seed files: enough to cover each
// shape family at both levels with varied decorations, small enough that
// the litmus unit tests replaying them stay fast.
const fuzzCorpusSize = 32

// TestRefreshFuzzCorpus regenerates the parser fuzzer's generated seed
// corpus when run with -refresh-fuzz; without the flag it verifies the
// committed seeds are exactly what the generator produces today, so the
// corpus cannot silently rot as the generator evolves.
func TestRefreshFuzzCorpus(t *testing.T) {
	seeds := make(map[string]string, fuzzCorpusSize)
	// Stride through a big spread of the space: one seed per shape family
	// per level first, then decoration-heavy variants, dedup'd by name.
	pool := collect(Config{Seed: 5, MaxThreads: 3, MaxPerShape: 96})
	stride := len(pool) / fuzzCorpusSize
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < len(pool) && len(seeds) < fuzzCorpusSize; i += stride {
		p := pool[i]
		seeds["gen-"+p.FPHash()] = "go test fuzz v1\nstring(" +
			strconv.Quote(Render(p.Prog)) + ")\n"
	}

	if *refreshFuzz {
		if err := os.MkdirAll(fuzzCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		old, err := filepath.Glob(filepath.Join(fuzzCorpusDir, "gen-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range old {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		for name, body := range seeds {
			if err := os.WriteFile(filepath.Join(fuzzCorpusDir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d seed files to %s", len(seeds), fuzzCorpusDir)
		return
	}

	for name, body := range seeds {
		path := filepath.Join(fuzzCorpusDir, name)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing generated fuzz seed (run with -refresh-fuzz): %v", err)
		}
		if string(got) != body {
			t.Errorf("%s is stale (run with -refresh-fuzz)", path)
		}
	}
}

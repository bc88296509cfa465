package litmus

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/models/tcgmm"
	"repro/internal/models/x86tso"
)

func assertSameOutcomes(t *testing.T, prog, model, label string, want, got OutcomeSet) {
	t.Helper()
	ws, gs := want.Sorted(), got.Sorted()
	if len(ws) != len(gs) {
		t.Errorf("%s under %s: %s yields %d outcomes, want %d",
			prog, model, label, len(gs), len(ws))
		return
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Errorf("%s under %s: %s outcome[%d] = %q, want %q",
				prog, model, label, i, gs[i], ws[i])
			return
		}
	}
}

// TestCacheEnumeratesOnce is the concurrency property test: N goroutines
// racing on the same (program, model) key all receive the identical outcome
// set, and the underlying enumeration runs exactly once.
func TestCacheEnumeratesOnce(t *testing.T) {
	c := NewCache()
	var enumerations atomic.Int32
	c.onEnumerate = func(_, _ string) { enumerations.Add(1) }

	p, m := SBQ(), x86tso.New()
	want := Outcomes(p, m).Sorted()

	const goroutines = 16
	results := make([]OutcomeSet, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < goroutines; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // line everyone up on the same cold entry
			r, err := Enumerate(p, m, WithCache(c))
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = r
		}(i)
	}
	start.Done()
	done.Wait()

	if n := enumerations.Load(); n != 1 {
		t.Fatalf("cache enumerated %d times; want exactly 1", n)
	}
	for i, r := range results {
		fresh, err := Enumerate(p, m)
		if err != nil {
			t.Fatalf("fresh enumeration: %v", err)
		}
		assertSameOutcomes(t, p.Name, m.Name(), "cached", fresh, r)
		if len(r.Sorted()) != len(want) {
			t.Fatalf("goroutine %d: wrong outcome count", i)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries; want 1", c.Len())
	}
}

// TestCacheKeying checks that cache keys separate models and program
// structure — and that the program *name* plays no part, so a renamed
// structural twin hits, while a same-named different program misses.
func TestCacheKeying(t *testing.T) {
	c := NewCache()
	var enumerations atomic.Int32
	c.onEnumerate = func(_, _ string) { enumerations.Add(1) }

	mustEnumerate := func(p *Program, m memmodel.Model) OutcomeSet {
		t.Helper()
		out, err := Enumerate(p, m, WithCache(c))
		if err != nil {
			t.Fatalf("%s/%s: %v", p.Name, m.Name(), err)
		}
		return out
	}
	mp := MP()
	outX86 := mustEnumerate(mp, x86tso.New())
	outIR := mustEnumerate(mp, tcgmm.New())
	if enumerations.Load() != 2 {
		t.Fatalf("same program under two models must enumerate twice; got %d", enumerations.Load())
	}
	// MP's weak outcome separates the models, so colliding keys would be
	// observable, not just wasteful.
	if !outIR.Contains("1:a=1", "1:b=0") || outX86.Contains("1:a=1", "1:b=0") {
		t.Fatalf("model keying returned the wrong set: x86=%v ir=%v",
			outX86.Sorted(), outIR.Sorted())
	}

	// Same name, different structure: must be distinct entries.
	sbAlias := SB()
	sbAlias.Name = mp.Name
	outSB := mustEnumerate(sbAlias, x86tso.New())
	if enumerations.Load() != 3 {
		t.Fatalf("structurally different program with a shared name must miss; got %d enumerations",
			enumerations.Load())
	}
	if !outSB.Contains("0:a=0", "1:b=0") {
		t.Fatalf("cache returned MP's set for SB: %v", outSB.Sorted())
	}

	// Different name, same structure: must hit.
	mpTwin := MP()
	mpTwin.Name = "MP-renamed"
	mustEnumerate(mpTwin, x86tso.New())
	if enumerations.Load() != 3 {
		t.Fatalf("structural twin should hit the cache; got %d enumerations", enumerations.Load())
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries; want 3", c.Len())
	}
}

// TestFingerprintDistinguishesStructure spot-checks the fingerprint on
// details that matter to enumeration: values, attributes, fence kinds,
// conditional bodies.
func TestFingerprintDistinguishesStructure(t *testing.T) {
	base := MP()
	if base.Fingerprint() != MP().Fingerprint() {
		t.Fatal("identical programs must share a fingerprint")
	}
	renamed := MP()
	renamed.Name = "other"
	if base.Fingerprint() != renamed.Fingerprint() {
		t.Fatal("fingerprint must ignore the program name")
	}
	distinct := []*Program{
		SB(), SBFenced(), MPQ(), SBAL(), SBALArm(), FMRSource(), FMRTarget(),
	}
	seen := map[string]string{base.Fingerprint(): base.Name}
	for _, p := range distinct {
		fp := p.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s and %s share fingerprint %q", prev, p.Name, fp)
		}
		seen[fp] = p.Name
	}
}

// TestDefaultCacheConsistency ensures the shared DefaultCache (used by the
// mapping and opcheck packages) serves sets equal to fresh enumeration.
func TestDefaultCacheConsistency(t *testing.T) {
	p, m := SBAL(), x86tso.New()
	got, err := Enumerate(p, m, WithCache(DefaultCache))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcomes(t, p.Name, m.Name(), "DefaultCache", Outcomes(p, m), got)
	// A second call must return the identical shared set.
	again, err := Enumerate(p, m, WithCache(DefaultCache))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(got) {
		t.Fatal("repeated cached call diverged")
	}
}

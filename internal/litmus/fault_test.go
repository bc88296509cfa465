package litmus

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/memmodel"
	"repro/internal/models/x86tso"
)

// TestFaultModelPanicBecomesError drives Enumerate's recover() with a real
// panic: a model whose checking panics (its one set predicate does) must
// come back as a faults.TrapWorkerPanic that names the program, not
// injected, never as a live panic — through a cache too.
func TestFaultModelPanicBecomesError(t *testing.T) {
	boom := memmodel.Define("boom", memmodel.Empty("boom",
		memmodel.Set("[boom]", func(memmodel.Event) bool { panic("model panicked") })))
	p := MP()
	for _, opts := range [][]Option{nil, {WithCache(NewCache())}} {
		out, err := Enumerate(p, boom, opts...)
		if out != nil || err == nil {
			t.Fatalf("Enumerate = %v, %v; want nil set and error", out, err)
		}
		tr, ok := faults.As(err)
		if !ok {
			t.Fatalf("error %v is not a trap", err)
		}
		if tr.Kind != faults.TrapWorkerPanic || tr.Injected {
			t.Errorf("trap = %+v; want a worker-panic that was not injected", tr)
		}
		for _, want := range []string{`"MP"`, "model panicked"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
		}
	}
}

// TestFaultShardPanicSerialPathSurfaces pins the shard-panic site: it
// guards each enumeration, and there is no fallback below the one
// enumerator, so an injected fault must surface as a structured, injected
// trap instead of being silently absorbed.
func TestFaultShardPanicSerialPathSurfaces(t *testing.T) {
	p, m := MP(), x86tso.New()
	in := faults.NewInjector()
	in.Arm(faults.SiteLitmusShard, 1, faults.TrapWorkerPanic)

	out, err := Enumerate(p, m, WithInjector(in))
	if err == nil {
		t.Fatalf("enumeration absorbed the injected fault: %v", out)
	}
	tr, ok := faults.As(err)
	if !ok {
		t.Fatalf("error %v is not a trap", err)
	}
	if tr.Kind != faults.TrapWorkerPanic || !tr.Injected {
		t.Errorf("trap = %+v; want injected worker-panic", tr)
	}
	// A real panic's trap names the test; so does an injected one.
	if want := fmt.Sprintf("litmus %q:", p.Name); !strings.HasPrefix(tr.Msg, want) {
		t.Errorf("trap message %q does not start with %s", tr.Msg, want)
	}
}

// TestFaultCacheSurvivesInjectedPanic checks the memoization of a failed
// enumeration: the first enumeration returns the injected trap, the
// entry's once memoizes that error (historically a panic inside once.Do
// left the entry done-but-nil), so a re-read through the same cache
// returns the same trap rather than an empty set, and a fresh cache
// enumerates the program afresh.
func TestFaultCacheSurvivesInjectedPanic(t *testing.T) {
	p, m := SBQ(), x86tso.New()
	c := NewCache()
	in := faults.NewInjector()
	in.Arm(faults.SiteLitmusShard, 1, faults.TrapWorkerPanic)

	first, err := Enumerate(p, m, WithCache(c), WithInjector(in))
	if !faults.IsKind(err, faults.TrapWorkerPanic) || first != nil {
		t.Fatalf("first enumeration = %v, %v; want the injected worker-panic", first, err)
	}
	again, err2 := Enumerate(p, m, WithCache(c))
	if err2 != err || again != nil {
		t.Fatalf("cached re-read = %v, %v; want the memoized trap %v", again, err2, err)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}

	fresh, err := Enumerate(p, m, WithCache(NewCache()))
	if err != nil {
		t.Fatalf("fresh cache: %v", err)
	}
	assertSameOutcomes(t, p.Name, m.Name(), "fresh cache", Outcomes(p, m), fresh)
}

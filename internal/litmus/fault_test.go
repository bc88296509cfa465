package litmus

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/models/x86tso"
)

// TestFaultShardPanicFallsBackToSerial injects a panic into a parallel
// worker shard and checks the enumeration degrades to the serial path: no
// error, and the result equals the reference serial set, for every program
// of the x86 corpus under x86-TSO and Arm from the registry.
func TestFaultShardPanicFallsBackToSerial(t *testing.T) {
	for _, name := range []string{"x86-TSO", "arm"} {
		m, err := models.Default().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range X86Corpus() {
			in := faults.NewInjector()
			in.Arm(faults.SiteLitmusShard, 1, faults.TrapWorkerPanic)

			out, err := Enumerate(p, m, WithWorkers(4), WithInjector(in))
			if err != nil {
				t.Fatalf("%s/%s: fallback did not absorb injected panic: %v", p.Name, name, err)
			}
			if in.Count(faults.SiteLitmusShard) == 0 {
				t.Fatalf("%s/%s: injection site never hit", p.Name, name)
			}
			assertSameOutcomes(t, p.Name, m.Name(), "degraded", Outcomes(p, m), out)
		}
	}
}

// TestFaultShardPanicBecomesError checks the per-shard recover() directly:
// an injected panic must surface as a faults.TrapWorkerPanic naming the
// program, marked Injected, never as a live panic.
func TestFaultShardPanicBecomesError(t *testing.T) {
	p, m := MP(), x86tso.New()
	shards := buildShards(mustCompile(p), 4)
	in := faults.NewInjector()
	in.Arm(faults.SiteLitmusShard, 1, faults.TrapWorkerPanic)

	out, err := runShard(p.Name, m, shards[0], 0, in)
	if out != nil || err == nil {
		t.Fatalf("runShard = %v, %v; want nil set and error", out, err)
	}
	tr, ok := faults.As(err)
	if !ok {
		t.Fatalf("error %v is not a trap", err)
	}
	if tr.Kind != faults.TrapWorkerPanic || !tr.Injected {
		t.Errorf("trap = %+v; want injected worker-panic", tr)
	}
}

// TestFaultShardPanicSerialPathSurfaces pins the unrecovered path: with
// -workers 1 the serial reference runs directly and there is no further
// fallback below it, so an injected shard fault must surface as a
// structured, injected trap instead of being silently absorbed.
func TestFaultShardPanicSerialPathSurfaces(t *testing.T) {
	p, m := MP(), x86tso.New()
	in := faults.NewInjector()
	in.Arm(faults.SiteLitmusShard, 1, faults.TrapWorkerPanic)

	out, err := Enumerate(p, m, WithWorkers(1), WithInjector(in))
	if err == nil {
		t.Fatalf("serial run absorbed the injected fault: %v", out)
	}
	tr, ok := faults.As(err)
	if !ok {
		t.Fatalf("error %v is not a trap", err)
	}
	if tr.Kind != faults.TrapWorkerPanic || !tr.Injected {
		t.Errorf("trap = %+v; want injected worker-panic", tr)
	}
}

// TestFaultCacheSurvivesInjectedPanic checks the memoization path: a first
// enumeration that needed the serial fallback must still populate the cache
// with the correct set (historically a panic inside once.Do left the entry
// done-but-nil), and later hits must return it.
func TestFaultCacheSurvivesInjectedPanic(t *testing.T) {
	p, m := SBQ(), x86tso.New()
	c := NewCache()
	in := faults.NewInjector()
	in.Arm(faults.SiteLitmusShard, 1, faults.TrapWorkerPanic)

	first, err := Enumerate(p, m, WithCache(c), WithWorkers(4), WithInjector(in))
	if err != nil {
		t.Fatalf("first enumeration: %v", err)
	}
	assertSameOutcomes(t, p.Name, m.Name(), "cache-first", Outcomes(p, m), first)

	again, err := Enumerate(p, m, WithCache(c), WithWorkers(4))
	if err != nil {
		t.Fatalf("cached re-read: %v", err)
	}
	if len(again) == 0 {
		t.Fatal("cache entry poisoned: empty set on re-read")
	}
	assertSameOutcomes(t, p.Name, m.Name(), "cache-again", first, again)
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

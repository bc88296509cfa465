//go:build !race

// The race detector's shadow allocations would swamp the ceiling.

package explore

import (
	"runtime"
	"testing"

	"repro/internal/litmus"
)

// dporAllocCeiling bounds the bytes one full DPOR exploration of SB
// allocates. A fresh 64 KiB machine per re-execution allocated ≈460 MB;
// one machine reset in place, ≈19 MB (go1.24 linux/amd64).
const dporAllocCeiling = 64 << 20

// TestDPORAllocCeiling: one DPOR Run of SB stays under dporAllocCeiling, so
// going back to building a machine per re-execution fails the suite.
func TestDPORAllocCeiling(t *testing.T) {
	// TotalAlloc is process-wide, so a runtime goroutine allocating during
	// the window inflates one reading; the smallest of three is the Run's
	// own cost.
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(litmus.SB(), Config{Mode: ModeDPOR})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Full() {
			t.Fatalf("SB: coverage %d/%d, partial=%v", res.Covered, res.Allowed, res.Partial)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("one DPOR run of SB allocated %.1f MB", float64(best)/1e6)
	if best > dporAllocCeiling {
		t.Errorf("one DPOR run of SB allocated %d bytes, over the %d-byte ceiling", best, dporAllocCeiling)
	}
}

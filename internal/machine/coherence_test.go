package machine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// TestDecodeTableCoherence runs the DBT paths that rewrite code the
// machine has already fetched — chaining patches, code-cache flushes with
// pinned extents, miscompile injection and its retranslation, tier-up
// promotion — with every table-served fetch compared against memory. Each
// case also checks that the path it is named for actually ran.
func TestDecodeTableCoherence(t *testing.T) {
	miscompile := faults.NewInjector(1)
	miscompile.Arm(faults.SiteMiscompile, 3, faults.TrapMiscompile)

	cases := []struct {
		name    string
		kernel  string
		scale   int
		opts    []core.Option
		ran     func(core.Stats) uint64
		atLeast uint64
	}{
		{"chained", "histogram", 1,
			[]core.Option{core.WithChain(true)},
			func(s core.Stats) uint64 { return s.ChainPatches }, 1},
		{"code cache overflows twice", "kmeans", 1,
			[]core.Option{core.WithChain(true), core.WithMemSize(4 << 20), core.WithCodeCacheBase(4<<20 - 0x400)},
			func(s core.Stats) uint64 { return s.CacheFlushes }, 2},
		{"miscompile self-heal", "histogram", 1,
			[]core.Option{core.WithChain(true), core.WithFaults(miscompile), core.WithSelfHeal(true)},
			func(s core.Stats) uint64 { return s.Heals }, 1},
		{"tier-up superblocks", "fencechain", 2,
			[]core.Option{core.WithChain(true), core.WithTierUp(core.TierUpConfig{Enabled: true, PromoteThreshold: 4, SuperblockMax: 4})},
			func(s core.Stats) uint64 { return s.Superblocks }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(opts ...core.Option) (*core.Runtime, uint64, *uint64) {
				k, err := workloads.KernelByName(tc.kernel)
				if err != nil {
					t.Fatal(err)
				}
				b, err := k.Build(2, tc.scale)
				if err != nil {
					t.Fatal(err)
				}
				img, err := b.BuildGuest("main")
				if err != nil {
					t.Fatal(err)
				}
				rt, err := core.New(img, append([]core.Option{core.WithVariant(core.VariantRisotto)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				checked := machine.CheckFetches(t, rt.M)
				code, err := rt.Run()
				if err != nil {
					t.Fatal(err)
				}
				return rt, code, checked
			}
			_, want, _ := run()
			rt, code, checked := run(tc.opts...)
			if code != want {
				t.Errorf("exit code %d, the plain run's is %d", code, want)
			}
			if n := tc.ran(rt.Stats()); n < tc.atLeast {
				t.Errorf("the path under test ran %d times, want ≥ %d", n, tc.atLeast)
			}
			if *checked == 0 {
				t.Error("the coherence hook compared no fetch")
			}
		})
	}
}

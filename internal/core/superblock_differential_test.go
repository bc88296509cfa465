package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frontend"
	"repro/internal/tcg"
)

// TestSuperblockIRMatchesSequentialInterp harvests the traces kmeans
// actually promotes and differential-tests the superblock pipeline in the
// interpreter: the optimized superblock installed by tier-up must leave
// the same exit PC, globals and memory as running its unoptimized
// component blocks back to back. kmeans is the harvest kernel because its
// unrolled comparison chain yields overlapping blocks with side exits on
// both branch arms — the shape that caught deadCode's missing exit
// liveness (globals written before a seam's side exit were eliminated
// when a later component overwrote them).
func TestSuperblockIRMatchesSequentialInterp(t *testing.T) {
	if testing.Short() {
		t.Skip("interp differential is slow")
	}
	rt := buildKernelRuntime(t, "kmeans", 1, tierUpOpts())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rt.tierup.promoted) == 0 {
		t.Fatal("no promotions recorded")
	}
	fe := rt.feCfg
	fe.Inject = nil

	for pc, p := range rt.tierup.promoted {
		if len(p.trace) < 2 {
			continue
		}
		var comps []*tcg.Block
		for _, tp := range p.trace {
			blk, err := frontend.Translate(rt.M.Mem, tp, fe)
			if err != nil {
				t.Fatalf("translate %#x: %v", tp, err)
			}
			comps = append(comps, blk)
		}
		super, err := tcg.Concat(comps)
		if err != nil {
			t.Fatalf("concat %#x: %v", pc, err)
		}
		t.Logf("trace head %#x: %v", pc, p.trace)

		maxTemps := super.NumTemps
		if p.ir.NumTemps > maxTemps {
			maxTemps = p.ir.NumTemps
		}
		for _, c := range comps {
			if c.NumTemps > maxTemps {
				maxTemps = c.NumTemps
			}
		}
		memSize := len(rt.M.Mem)

		for seed := int64(0); seed < 24; seed++ {
			rng := rand.New(rand.NewSource(seed))
			baseMem := make([]byte, memSize)
			rng.Read(baseMem)
			baseTemps := make([]uint64, maxTemps)
			for i := 0; i < tcg.NumGlobals; i++ {
				baseTemps[i] = rng.Uint64() % 1024
			}

			// Sequential reference: run each component on the same state,
			// following seams only while the exit matches the next
			// component's entry.
			seq := &tcg.Interp{Temps: append([]uint64(nil), baseTemps...),
				Mem: tcg.Flat(append([]byte(nil), baseMem...))}
			stop := false
			for i, c := range comps {
				if err := seq.Run(c); err != nil {
					stop = true // OOB on random state: skip this seed
					break
				}
				if i < len(comps)-1 && seq.NextPC != comps[i+1].GuestPC {
					break // side exit: superblock must stop here too
				}
			}
			if stop {
				continue
			}

			one := &tcg.Interp{Temps: append([]uint64(nil), baseTemps...),
				Mem: tcg.Flat(append([]byte(nil), baseMem...))}
			if err := one.Run(p.ir); err != nil {
				t.Fatalf("trace %#x seed %d: superblock interp: %v", pc, seed, err)
			}

			diverged := func(it *tcg.Interp) string {
				if it.NextPC != seq.NextPC {
					return fmt.Sprintf("exit %#x != %#x", it.NextPC, seq.NextPC)
				}
				for i := 0; i < tcg.NumGlobals; i++ {
					if it.Temps[i] != seq.Temps[i] {
						return fmt.Sprintf("global %d = %#x != %#x", i, it.Temps[i], seq.Temps[i])
					}
				}
				if !bytes.Equal(it.Mem.(tcg.Flat), seq.Mem.(tcg.Flat)) {
					return "memory diverges"
				}
				return ""
			}
			if msg := diverged(one); msg != "" {
				// Bisect which optimizer pass breaks the superblock.
				for _, probe := range []struct {
					name string
					cfg  tcg.OptConfig
				}{
					{"constprop", tcg.OptConfig{ConstProp: true}},
					{"accesselim", tcg.OptConfig{AccessElim: true}},
					{"fencemerge", tcg.OptConfig{FenceMerge: true}},
					{"deadcode", tcg.OptConfig{DeadCode: true}},
					{"all", tcg.DefaultOpt()},
				} {
					sb := super.Clone()
					tcg.Optimize(sb, probe.cfg)
					it := &tcg.Interp{Temps: append([]uint64(nil), baseTemps...),
						Mem: tcg.Flat(append([]byte(nil), baseMem...))}
					if err := it.Run(sb); err != nil {
						t.Logf("pass %s: interp error %v", probe.name, err)
						continue
					}
					t.Logf("pass %-10s diverged=%q", probe.name, diverged(it))
				}
				t.Fatalf("trace %#x seed %d: %s\nUNOPTIMIZED:\n%s\nOPTIMIZED:\n%s",
					pc, seed, msg, super, p.ir)
			}
		}
	}
}

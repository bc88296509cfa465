//go:build !race

// The sweep runs kmeans 128 times: ≈9 s in a plain build, minutes under
// the race detector, which the other install tests cover.

package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/transcache"
	"repro/internal/workloads"
)

// installSweepK is how many occurrences of each fault site the golden
// sweep arms, one run each; every site is reached at least this often.
const installSweepK = 8

// installSweepBudget bounds each sweep run per vCPU at twice what the clean
// run needs: some faulted runs would otherwise execute for seconds before
// they trap.
const installSweepBudget = 4_000_000

// TestInstallFaultsGolden pins the order in which translation and
// installation reach their fault sites. For each of cache-exhaust,
// miscompile, cache-corrupt and decode it arms occurrence 1..K, one run at
// a time, over kmeans (2 threads, scale 2) under -selfheal — tier-up off
// and on, default cache and a small one — and records the outcome, the
// self-heal counters, the simulated cycles, every site's hit count and a
// hash of what the run stored in a cold translation cache. Any change in
// which translation reaches a site first shows up as a line diff.
// Regenerate with go test ./internal/core -run InstallFaultsGolden -update.
func TestInstallFaultsGolden(t *testing.T) {
	k, err := workloads.KernelByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := k.Build(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	img, err := pb.BuildGuest("main")
	if err != nil {
		t.Fatal(err)
	}
	imageKey := transcache.Fingerprint(img) + "/" + VariantRisotto.String()
	dir := t.TempDir()

	// A 2.5 KiB cache holds kmeans' plain translations but not its
	// superblocks: under tier-up it flushes a dozen times and re-emits
	// promotions. Smaller caches thrash (12,000 flushes at 2 KiB).
	const memSize, smallCache = 32 << 20, 0xA00
	var out strings.Builder
	for _, tierup := range []bool{false, true} {
		for _, small := range []bool{false, true} {
			for _, name := range []string{"cache-exhaust", "miscompile", "cache-corrupt", "decode"} {
				for n := 1; n <= installSweepK; n++ {
					spec := fmt.Sprintf("%s@%d", name, n)
					sp, err := faults.ParseSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					in := faults.NewInjector()
					sp.Arm(in)
					path := filepath.Join(dir, fmt.Sprintf("tc-%v-%v-%s.jsonl", tierup, small, spec))
					tc, err := transcache.Open(path, transcache.Options{Injector: in})
					if err != nil {
						t.Fatal(err)
					}
					opts := []Option{WithVariant(VariantRisotto), WithSelfHeal(true), WithFaults(in),
						WithMemSize(memSize), WithStepBudget(installSweepBudget), WithTranslationCache(tc.ForImage(imageKey))}
					if tierup {
						opts = append(opts, tierUpOpts())
					}
					if small {
						opts = append(opts, WithCodeCacheBase(memSize-smallCache))
					}
					rt, err := New(img, opts...)
					if err != nil {
						t.Fatal(err)
					}
					code, runErr := rt.Run()
					if err := tc.Close(); err != nil {
						t.Fatal(err)
					}
					journal, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					outcome := fmt.Sprintf("exit %d", code)
					if runErr != nil {
						outcome = "error " + runErr.Error()
						if tr, ok := faults.As(runErr); ok {
							outcome = fmt.Sprintf("trap %s pc=%#x guest=%v", tr.Kind, tr.PC, tr.GuestPC)
						}
					}
					st := rt.Stats()
					cache := "default"
					if small {
						cache = "2.5KiB"
					}
					fmt.Fprintf(&out, "tierup=%v cache=%s %s: %s heals=%d quarantines=%d flushes=%d promotions=%d blocks=%d cycles=%d",
						tierup, cache, spec, outcome, st.Heals, st.Quarantines, st.CacheFlushes, st.Promotions, st.Blocks, rt.M.MaxCycles())
					for _, site := range []faults.Site{faults.SiteDecode, faults.SiteCacheAlloc, faults.SiteMiscompile, faults.SiteCacheCorrupt} {
						fmt.Fprintf(&out, " %s=%d", site, in.Count(site))
					}
					fmt.Fprintf(&out, " journal=%x\n", sha256.Sum256(journal))
				}
			}
		}
	}

	checkGolden(t, "install_faults.golden", out.String())
}

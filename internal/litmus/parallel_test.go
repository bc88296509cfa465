package litmus

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/models/armcats"
	"repro/internal/models/tcgmm"
	"repro/internal/models/x86tso"
)

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

// testModels returns the four models the differential and golden tests sweep:
// x86-TSO, the TCG IR model, and both Armed-Cats variants.
func testModels() []memmodel.Model {
	return []memmodel.Model{
		x86tso.New(),
		tcgmm.New(),
		armcats.New(),
		armcats.NewVariant(armcats.Original),
	}
}

func assertSameOutcomes(t *testing.T, prog, model, label string, want, got OutcomeSet) {
	t.Helper()
	ws, gs := want.Sorted(), got.Sorted()
	if len(ws) != len(gs) {
		t.Errorf("%s under %s: %s yields %d outcomes, serial %d",
			prog, model, label, len(gs), len(ws))
		return
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Errorf("%s under %s: %s outcome[%d] = %q, serial %q",
				prog, model, label, i, gs[i], ws[i])
			return
		}
	}
}

// TestParallelMatchesSerial is the differential equivalence test: for every
// corpus program under every model, the sharded parallel enumeration must
// produce exactly the serial outcome set, for several worker counts.
func TestParallelMatchesSerial(t *testing.T) {
	workerCounts := []int{0, 2, 3, 7}
	if testing.Short() {
		workerCounts = []int{0}
	}
	for _, p := range testCorpus() {
		for _, m := range testModels() {
			serial := Outcomes(p, m)
			for _, w := range workerCounts {
				par, err := Enumerate(p, m, WithWorkers(w))
				if err != nil {
					t.Fatalf("%s under %s: %v", p.Name, m.Name(), err)
				}
				assertSameOutcomes(t, p.Name, m.Name(),
					workersLabel(w), serial, par)
			}
		}
	}
}

func workersLabel(w int) string {
	if w <= 0 {
		return "parallel(NumCPU)"
	}
	return fmt.Sprintf("parallel(%d)", w)
}

// TestEnumerateDefault exercises the no-option entrypoint on a couple of
// representative programs.
func TestEnumerateDefault(t *testing.T) {
	for _, p := range []*Program{MPQ(), SBQ()} {
		for _, m := range testModels() {
			got, err := Enumerate(p, m)
			if err != nil {
				t.Fatalf("%s under %s: %v", p.Name, m.Name(), err)
			}
			assertSameOutcomes(t, p.Name, m.Name(), "Enumerate",
				Outcomes(p, m), got)
		}
	}
}

// TestBuildShardsPartition checks the sharding invariants directly: shards
// meet the requested target when the space is large enough, and enumerating
// every shard visits each candidate exactly once (counted against the serial
// enumerator).
func TestBuildShardsPartition(t *testing.T) {
	for _, p := range []*Program{MP(), SBQ(), MPQ(), IRIW()} {
		var serialCount int
		EnumerateCandidates(p, func(*Candidate) bool { serialCount++; return true })

		for _, target := range []int{1, 4, 16, 64} {
			shards := buildShards(mustCompile(p), target)
			if len(shards) == 0 {
				t.Fatalf("%s: no shards for target %d", p.Name, target)
			}
			var shardCount int
			for _, s := range shards {
				s.job.enumerate(s.rfPrefix, func(*scratch) bool {
					shardCount++
					return true
				})
			}
			if shardCount != serialCount {
				t.Errorf("%s target %d: shards visit %d candidates, serial %d",
					p.Name, target, shardCount, serialCount)
			}
		}
	}
}

// TestShardTargetReached checks refinement actually multiplies shards for a
// program with a non-trivial rf tree.
func TestShardTargetReached(t *testing.T) {
	target := 4 * runtime.NumCPU() * shardsPerWorker
	shards := buildShards(mustCompile(SBQ()), target)
	if len(shards) < 2 {
		t.Fatalf("SBQ refined into %d shards; expected several", len(shards))
	}
	// SBQ: 2 CAS bits → 4 skeleton combos, and 6 reads below each; the
	// refinement loop must beat the skeleton-only count once target exceeds
	// it.
	if len(shards) <= 4 {
		t.Errorf("refinement did not split below skeleton level: %d shards", len(shards))
	}
}

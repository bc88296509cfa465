// Parallel candidate-execution enumeration.
//
// The search space of EnumerateCandidates factors into independent shards:
// the outer Cartesian product over per-thread skeletons (control path ×
// choice bits) partitions the space exactly, and within one skeleton the
// reads-from enumeration is a tree whose first levels partition it further.
// A shard is therefore (skeletonJob, rf prefix); two distinct shards can
// never produce the same candidate, and the union over all shards is the
// full space. Shards are fanned out to a bounded worker pool and the
// per-shard OutcomeSets are merged in shard order, so Enumerate is equal to
// the serial Outcomes for every worker count — set union is
// order-insensitive and consistency checks are pure functions of each
// candidate.

package litmus

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

// Options configures outcome computation; build it through the Option
// funcs passed to Enumerate.
type Options struct {
	// Workers bounds enumeration parallelism: 0 (or negative) uses
	// runtime.NumCPU(); 1 selects the serial enumeration path (useful when
	// debugging the enumerator itself).
	Workers int
	// Cache, when non-nil, memoizes outcome sets keyed by (program
	// fingerprint, model name). Sets returned through a cache are shared
	// between callers and must be treated as read-only.
	Cache *Cache
	// Inject, when non-nil, arms deterministic fault injection in the
	// parallel enumerator (faults.SiteLitmusShard fires inside a worker
	// shard, exercising the panic-capture and serial-fallback paths).
	Inject *faults.Injector
	// Obs, when non-nil, receives enumeration metrics and trace spans
	// under its "litmus" child scope. Nil disables instrumentation at the
	// cost of a pointer check.
	Obs *obs.Scope
}

func (o Options) workerCount() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// shardsPerWorker oversubscribes the shard list relative to the pool so that
// uneven shards (rf subtrees prune at very different depths) still balance.
const shardsPerWorker = 4

// outcomesSerial runs the reference serial enumerator with panic capture.
// The injector's shard site guards this path too, so a -workers 1 run can
// surface an unrecovered structured trap (there is no further fallback
// below the serial reference); one-shot plans already consumed by the
// sharded path do not re-fire on the fallback call.
func outcomesSerial(c *code, m memmodel.Model, in *faults.Injector) (out OutcomeSet, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = faults.New(faults.TrapWorkerPanic,
				"litmus %q: serial enumeration panicked: %v", c.name, r)
		}
	}()
	if t := in.Hit(faults.SiteLitmusShard); t != nil {
		return nil, t
	}
	return c.outcomes(m), nil
}

// outcomesSharded fans the shard list out to a bounded worker pool. Each
// shard runs under its own recover(), so one faulty shard poisons only its
// slot; the first captured panic is reported after the pool drains.
func outcomesSharded(c *code, m memmodel.Model, opt Options, workers int, sc *obs.Scope) (OutcomeSet, error) {
	shards := buildShards(c, workers*shardsPerWorker)
	if workers > len(shards) {
		workers = len(shards)
	}
	sc.Counter("shards").Add(uint64(len(shards)))

	// Workers claim shard indices from an atomic cursor; each writes only
	// its own results/errs slot, so the merge below needs no locking.
	results := make([]OutcomeSet, len(shards))
	errs := make([]error, len(shards))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				results[i], errs[i] = runShard(c.name, m, shards[i], i, opt.Inject)
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := make(OutcomeSet)
	for _, r := range results {
		for o := range r {
			merged[o] = true
		}
	}
	return merged, nil
}

// runShard enumerates one shard, converting a panic (including injected
// ones) into a faults.TrapWorkerPanic that names the program and shard.
func runShard(prog string, m memmodel.Model, s shard, idx int, inj *faults.Injector) (out OutcomeSet, err error) {
	defer func() {
		if r := recover(); r != nil {
			t := faults.New(faults.TrapWorkerPanic,
				"litmus %q: worker shard %d panicked: %v", prog, idx, r)
			if tr, ok := r.(*faults.Trap); ok {
				t.Injected = tr.Injected
			}
			out, err = nil, t
		}
	}()
	if t := inj.Hit(faults.SiteLitmusShard); t != nil {
		panic(t)
	}
	// Each shard gets its own prepared checker, built at the shard's first
	// candidate, and its own candidate storage: both are rewritten from
	// candidate to candidate and must not be shared across goroutines, but
	// shards over the same job still share the job's immutable skeleton.
	out = make(OutcomeSet)
	s.job.outcomes(m, s.rfPrefix, out)
	return out, nil
}

// shard is one independent slice of the candidate-execution search space:
// a fixed skeleton combination plus a fixed writer choice for the first
// len(rfPrefix) reads. The job pointer may be shared between shards; it is
// read-only during enumeration.
type shard struct {
	job      *skeletonJob
	rfPrefix []int
}

// buildShards partitions c's search space into at least target shards where
// possible. It starts from the skeleton combinations (the outer loop of
// EnumerateCandidates) and, while too coarse, refines every shard one rf
// level deeper:
// a shard with prefix length d splits into one child per candidate writer of
// read d. Programs whose space is genuinely smaller than target (few
// skeletons, few reads) yield fewer shards.
func buildShards(c *code, target int) []shard {
	var shards []shard
	c.forEachJob(func(j *skeletonJob) bool {
		shards = append(shards, shard{job: j})
		return true
	})

	for len(shards) < target {
		refined := make([]shard, 0, len(shards))
		progress := false
		for _, s := range shards {
			d := len(s.rfPrefix)
			if d == len(s.job.reads) {
				refined = append(refined, s)
				continue
			}
			progress = true
			for _, w := range s.job.writersOf[s.job.events[s.job.reads[d]].Loc] {
				prefix := make([]int, d+1)
				copy(prefix, s.rfPrefix)
				prefix[d] = w
				refined = append(refined, shard{job: s.job, rfPrefix: prefix})
			}
		}
		shards = refined
		if !progress {
			break
		}
	}
	return shards
}

// The canonical outcome-enumeration entrypoint. Earlier revisions grew
// three near-identical entrypoints (OutcomesParallel, OutcomesOpt,
// OutcomesChecked); Enumerate collapses them into one functional-options
// API, and the old names are gone.

package litmus

import (
	"repro/internal/faults"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

// Option configures Enumerate.
type Option func(*Options)

// WithWorkers bounds enumeration parallelism: 0 (or negative) uses
// runtime.NumCPU(); 1 selects the serial reference path.
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// WithCache memoizes outcome sets in c, keyed by (program fingerprint,
// model name). Sets returned through a cache are shared between callers
// and must be treated as read-only.
func WithCache(c *Cache) Option {
	return func(o *Options) { o.Cache = c }
}

// WithInjector arms deterministic fault injection in the parallel
// enumerator (faults.SiteLitmusShard fires inside a worker shard).
func WithInjector(in *faults.Injector) Option {
	return func(o *Options) { o.Inject = in }
}

// WithObs reports enumeration metrics (enumerations, shards dispatched,
// serial fallbacks, outcomes, cache hits/misses, wall time) and
// litmus.enumerate trace spans into the given scope's "litmus" child.
func WithObs(s *obs.Scope) Option {
	return func(o *Options) { o.Obs = s }
}

// Enumerate computes the set of outcomes of p admitted by model m. It is
// the canonical enumeration entrypoint: with no options it runs the
// parallel sharded enumerator on every CPU; WithWorkers(1) selects the
// serial reference path. A panic in any parallel worker shard is
// recovered into a faults.TrapWorkerPanic naming the program and shard,
// and the enumeration is retried once on the serial path (whose result
// is the definition of correctness for the parallel one); an error is
// returned only when the serial retry fails too.
func Enumerate(p *Program, m memmodel.Model, opts ...Option) (OutcomeSet, error) {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	return enumerate(p, m, o)
}

// enumerate is Enumerate with its options applied: the cache in front, the
// instrumentation around, enumerateUninstrumented inside.
func enumerate(p *Program, m memmodel.Model, o Options) (OutcomeSet, error) {
	if o.Cache != nil {
		return o.Cache.outcomes(p, m, o)
	}
	sc := o.Obs.Child("litmus")
	sc.Counter("enumerations").Inc()
	start := sc.Begin()

	out, err := enumerateUninstrumented(p, m, o, sc)

	dur := sc.Span("litmus.enumerate", p.Name, -1, 0, 0, start)
	sc.Histogram("enumerate_ns", obs.DurationBuckets).Observe(uint64(dur))
	sc.Counter("outcomes").Add(uint64(len(out)))
	return out, err
}

func enumerateUninstrumented(p *Program, m memmodel.Model, o Options, sc *obs.Scope) (OutcomeSet, error) {
	c, err := compile(p)
	if err != nil {
		return nil, err
	}
	workers := o.workerCount()
	if workers == 1 {
		return outcomesSerial(c, m, o.Inject)
	}
	out, perr := outcomesSharded(c, m, o, workers, sc)
	if perr == nil {
		return out, nil
	}
	sc.Counter("serial_fallbacks").Inc()
	sc.Event("litmus.serial_fallback", p.Name, -1, 0, 0)
	out, serr := outcomesSerial(c, m, o.Inject)
	if serr != nil {
		t := faults.Wrap(faults.TrapWorkerPanic, serr,
			"litmus %q: parallel enumeration failed (%v) and serial fallback also failed",
			p.Name, perr)
		return nil, t
	}
	return out, nil
}

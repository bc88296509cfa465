// The canonical outcome-enumeration entrypoint. Earlier revisions grew
// three near-identical entrypoints (OutcomesParallel, OutcomesOpt,
// OutcomesChecked); Enumerate collapses them into one functional-options
// API, and the old names are gone.

package litmus

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

// Options configures outcome computation; build it through the Option
// funcs passed to Enumerate.
type Options struct {
	// Cache, when non-nil, memoizes outcome sets keyed by (program
	// fingerprint, model name). Sets returned through a cache are shared
	// between callers and must be treated as read-only.
	Cache *Cache
	// Inject, when non-nil, arms deterministic fault injection in the
	// enumerator (faults.SiteLitmusShard fires once per enumeration,
	// exercising the panic capture).
	Inject *faults.Injector
	// Obs, when non-nil, receives enumeration metrics and trace spans
	// under its "litmus" child scope. Nil disables instrumentation at the
	// cost of a pointer check.
	Obs *obs.Scope
}

// Option configures Enumerate.
type Option func(*Options)

// WithWorkers does nothing: Enumerate has one enumerator, and it is serial.
// Callers that want parallelism run several enumerations at once, as the
// campaign runner's worker pool does.
//
// Deprecated: drop the option; it no longer changes anything.
func WithWorkers(int) Option {
	return func(*Options) {}
}

// WithCache memoizes outcome sets in c, keyed by (program fingerprint,
// model name). Sets returned through a cache are shared between callers
// and must be treated as read-only.
func WithCache(c *Cache) Option {
	return func(o *Options) { o.Cache = c }
}

// WithInjector arms deterministic fault injection in the enumerator
// (faults.SiteLitmusShard fires at the start of each enumeration).
func WithInjector(in *faults.Injector) Option {
	return func(o *Options) { o.Inject = in }
}

// WithObs reports enumeration metrics (enumerations, outcomes, cache
// hits/misses, wall time) and litmus.enumerate trace spans into the given
// scope's "litmus" child.
func WithObs(s *obs.Scope) Option {
	return func(o *Options) { o.Obs = s }
}

// Enumerate computes the set of outcomes of p admitted by model m. It is
// the canonical enumeration entrypoint: Outcomes with a cache, metrics and
// panic capture around it. A panic inside the enumeration is recovered
// into a faults.TrapWorkerPanic naming the program, and a program that
// reads an unassigned register is an error rather than a panic.
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

	out, err := enumerateUninstrumented(p, m, o.Inject)

	dur := sc.Span("litmus.enumerate", p.Name, -1, 0, 0, start)
	sc.Histogram("enumerate_ns", obs.DurationBuckets).Observe(uint64(dur))
	sc.Counter("outcomes").Add(uint64(len(out)))
	return out, err
}

// enumerateUninstrumented compiles p and runs the serial enumerator under a
// recover(), so a panic (a model's, the enumerator's, or one the injector's
// shard site arms) surfaces as a structured trap and never unwinds past
// Enumerate.
func enumerateUninstrumented(p *Program, m memmodel.Model, in *faults.Injector) (out OutcomeSet, err error) {
	c, err := compile(p)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			err = faults.New(faults.TrapWorkerPanic,
				"litmus %q: enumeration panicked: %v", c.name, r)
		}
	}()
	if t := in.Hit(faults.SiteLitmusShard); t != nil {
		t.Msg = fmt.Sprintf("litmus %q: %s", c.name, t.Msg)
		return nil, t
	}
	return c.outcomes(m), nil
}

// Package explore is the operational exploration engine: it drives the
// simulated machine's weak-memory mode through its nondeterminism —
// store-buffer drains and scheduling — and checks every final state
// differentially against the machine's exact axiomatic twin
// (internal/models/opref).
//
// The state space is the machine's own transition system
// (machine.Enabled/Apply) over compiled litmus programs (internal/opcheck):
// from any state, each non-halted CPU offers one "execute" transition (run
// that CPU up to and including its next memory-visible instruction), and
// each coherence-chain head in each store buffer offers one "drain"
// transition (retire exactly that buffered store). Nothing here reads a
// store buffer or steps a CPU; three drivers choose among the transitions
// the machine lists:
//
//   - walk: seeded random walks, one outcome sample per seed — walk i is
//     opcheck's walk i (Compiled.Walk), cheap enough to ride along every
//     campaign test;
//   - dpor: exhaustive depth-first enumeration with sleep-set dynamic
//     partial-order reduction (commuting transitions — different CPUs or
//     non-overlapping drains, disjoint global footprints — are explored
//     in one order only);
//   - replay: re-execution of a recorded transition sequence,
//     reproducing a prior run byte-identically (trace.go).
//
// Any operational outcome the axiomatic model forbids is a hard failure
// carrying its decision trace; budget or deadline exhaustion degrades to
// a partial-coverage verdict (with the cut-off path as a trace), never a
// hang. Coverage of the allowed outcome set is the two-sided metric the
// one-sided opcheck soundness sweep cannot give.
package explore

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/models/opref"
	"repro/internal/obs"
	"repro/internal/opcheck"
)

// Mode selects the exploration driver.
type Mode string

// The exploration modes.
const (
	ModeWalk Mode = "walk"
	ModeDPOR Mode = "dpor"
)

// Config parameterizes one exploration.
type Config struct {
	// Mode selects the driver; empty defaults to ModeWalk.
	Mode Mode
	// Seeds is the number of random walks (walk mode: walks 0..Seeds-1);
	// 0 = 16.
	Seeds int
	// MaxStates bounds the total transitions executed by one exploration
	// (all modes); exhaustion yields a partial verdict. 0 = 1<<20.
	MaxStates int
	// Deadline is the wall-clock watchdog for the whole exploration;
	// 0 disables it. Expiry yields a partial verdict.
	Deadline time.Duration
	// Obs receives counters and the coverage gauge under its "explore"
	// child scope; nil disables instrumentation.
	Obs *obs.Scope
}

func (cfg Config) mode() Mode {
	if cfg.Mode == "" {
		return ModeWalk
	}
	return cfg.Mode
}

func (cfg Config) seeds() int {
	if cfg.Seeds <= 0 {
		return 16
	}
	return cfg.Seeds
}

func (cfg Config) maxStates() int {
	if cfg.MaxStates <= 0 {
		return 1 << 20
	}
	return cfg.MaxStates
}

// Violation is an operational behaviour the axiomatic reference forbids
// — or a run that trapped — with the decision sequence reproducing it.
type Violation struct {
	// Outcome is the offending final state ("" when the run trapped
	// before completing).
	Outcome litmus.Outcome
	// Trace replays the run (see Replay).
	Trace []machine.Transition
	// Reason explains the failure.
	Reason string
}

// Result aggregates one exploration of one program.
type Result struct {
	// Test and Mode echo the inputs.
	Test string
	Mode Mode
	// Runs counts completed executions (walk runs or enumeration
	// leaves); States counts transitions executed, each once (a DPOR
	// branch that traps as the search backtracks to it is not counted);
	// Pruned counts sleep-set cut branches.
	Runs, States, Pruned int
	// Allowed is the axiomatic reference's outcome count; Covered is
	// how many of them the exploration observed. Observed lists every
	// operational outcome seen, sorted.
	Allowed, Covered int
	Observed         []litmus.Outcome
	// Violations holds outcomes the reference forbids, with traces.
	Violations []Violation
	// Partial reports a budget or deadline cut the exploration short;
	// PartialTrace is the decision path at the cut (replayable), and
	// PartialReason says which budget.
	Partial       bool
	PartialReason string
	PartialTrace  []machine.Transition
	// Elapsed is wall time.
	Elapsed time.Duration
}

// Coverage returns Covered/Allowed as a percentage (100 for an empty
// allowed set — nothing to miss).
func (r *Result) Coverage() float64 {
	if r.Allowed == 0 {
		return 100
	}
	return 100 * float64(r.Covered) / float64(r.Allowed)
}

// Full reports complete coverage with no violations and no cut.
func (r *Result) Full() bool {
	return !r.Partial && len(r.Violations) == 0 && r.Covered == r.Allowed
}

// Run explores p under cfg and checks it differentially against op-ref.
// Programs outside the compilable subset return opcheck.ErrUnsupported
// (callers skip, as with opcheck itself).
func Run(p *litmus.Program, cfg Config) (*Result, error) {
	e, err := exploreRun(p, cfg)
	if err != nil {
		return nil, err
	}
	return e.res, nil
}

// exploreRun is Run, returning the explorer that ran. The machine is
// borrowed from opcheck's pool for the length of the run.
func exploreRun(p *litmus.Program, cfg Config) (*explorer, error) {
	c, err := opcheck.Compile(p)
	if err != nil {
		return nil, err
	}
	allowed, err := reference(p)
	if err != nil {
		return nil, err
	}

	m := opcheck.BorrowMachine()
	defer opcheck.ReturnMachine(m)
	e := &explorer{
		cfg:      cfg,
		compiled: c,
		m:        m,
		allowed:  allowed,
		observed: make(map[litmus.Outcome]bool),
		outcomes: make(map[string]litmus.Outcome),
		res:      &Result{Test: p.Name, Mode: cfg.mode()},
		sc:       cfg.Obs.Child("explore"),
	}
	start := time.Now()
	if cfg.Deadline > 0 {
		e.deadline = start.Add(cfg.Deadline)
	}
	switch cfg.mode() {
	case ModeWalk:
		e.runWalks()
	case ModeDPOR:
		e.runDFS()
	default:
		return nil, fmt.Errorf("explore: unknown mode %q", cfg.Mode)
	}
	e.res.Elapsed = time.Since(start)
	e.finish()
	return e, nil
}

// reference enumerates p's outcomes under op-ref, the machine's exact
// axiomatic twin: the one model against which full coverage is a
// meaningful demand.
func reference(p *litmus.Program) (litmus.OutcomeSet, error) {
	allowed, err := litmus.Enumerate(p, opref.New())
	if err != nil {
		return nil, fmt.Errorf("explore: enumerating %q under op-ref: %w", p.Name, err)
	}
	return allowed, nil
}

// explorer is the shared state of one Run.
type explorer struct {
	cfg      Config
	compiled *opcheck.Compiled
	allowed  litmus.OutcomeSet
	observed map[litmus.Outcome]bool
	res      *Result
	sc       *obs.Scope
	deadline time.Time
	// m is the Run's one machine: DPOR resets it once, through restart,
	// and every walk through opcheck's Walk.
	m *machine.Machine
	// restarts counts restart's resets.
	restarts int
	// outcomes memoises compiled.Outcome by the final state's key
	// (opcheck's AppendOutcomeKey), built in key.
	outcomes map[string]litmus.Outcome
	key      []byte
}

// restart returns the Run's machine reset in place to the program's
// initial state.
func (e *explorer) restart() (*machine.Machine, error) {
	e.restarts++
	return e.m, e.compiled.Reset(e.m)
}

// expired names the global budget that has run out, or returns "".
func (e *explorer) expired() string {
	switch {
	case e.res.States >= e.cfg.maxStates():
		return fmt.Sprintf("state budget %d exhausted", e.cfg.maxStates())
	case !e.deadline.IsZero() && time.Now().After(e.deadline):
		return fmt.Sprintf("deadline %v exceeded", e.cfg.Deadline)
	}
	return ""
}

// cut reports whether a global budget has expired, recording the partial
// verdict (first reason wins) with the current decision path.
func (e *explorer) cut(path []machine.Transition) bool {
	reason := e.expired()
	if reason == "" {
		return false
	}
	if !e.res.Partial {
		e.res.Partial = true
		e.res.PartialReason = reason
		e.res.PartialTrace = append([]machine.Transition(nil), path...)
	}
	return true
}

// leaf records one completed run's outcome, checking it against the
// allowed set; a forbidden outcome is a violation carrying its trace.
func (e *explorer) leaf(m *machine.Machine, path []machine.Transition) error {
	key, err := e.compiled.AppendOutcomeKey(e.key[:0], m)
	if err != nil {
		return err
	}
	e.key = key
	o, ok := e.outcomes[string(key)]
	if !ok {
		if o, err = e.compiled.Outcome(m); err != nil {
			return err
		}
		e.outcomes[string(key)] = o
	}
	e.res.Runs++
	e.observed[o] = true
	if !e.allowed[o] {
		e.res.Violations = append(e.res.Violations, Violation{
			Outcome: o,
			Trace:   append([]machine.Transition(nil), path...),
			Reason:  fmt.Sprintf("outcome %q not allowed by the axiomatic reference", o),
		})
	}
	return nil
}

// trapped records a run that faulted mid-execution (a decode or fetch
// trap): always a violation — the reference model has no trapping
// executions.
func (e *explorer) trapped(path []machine.Transition, err error) {
	e.res.Violations = append(e.res.Violations, Violation{
		Trace:  append([]machine.Transition(nil), path...),
		Reason: err.Error(),
	})
}

func (e *explorer) finish() {
	r := e.res
	for o := range e.observed {
		r.Observed = append(r.Observed, o)
		if e.allowed[o] {
			r.Covered++
		}
	}
	sort.Slice(r.Observed, func(i, j int) bool { return r.Observed[i] < r.Observed[j] })
	r.Allowed = len(e.allowed)
	e.sc.Counter("runs").Add(uint64(r.Runs))
	e.sc.Counter("states").Add(uint64(r.States))
	e.sc.Counter("sleep_pruned").Add(uint64(r.Pruned))
	e.sc.Counter("violations").Add(uint64(len(r.Violations)))
	if r.Partial {
		e.sc.Counter("partial").Inc()
	}
	e.sc.Gauge("coverage_pct").Set(int64(r.Coverage()))
}

// --- Independence -------------------------------------------------------------

// footprint is what an applied transition touched, for the independence
// relation: the move itself and the globally visible memory accesses
// machine.Apply reported for it.
type footprint struct {
	t    machine.Transition
	accs []machine.MemAccess
}

// independent reports that two transitions commute. Same-CPU moves are
// ordered by the program/buffer except two drains of distinct coherence
// chains; across CPUs, moves commute unless their global footprints
// conflict (overlapping addresses, at least one write).
func independent(a, b footprint) bool {
	if a.t.CPU == b.t.CPU && !(a.t.Op == machine.OpDrain && b.t.Op == machine.OpDrain) {
		return false
	}
	for _, x := range a.accs {
		for _, y := range b.accs {
			if !x.Write && !y.Write {
				continue
			}
			if x.Addr < y.Addr+uint64(y.Size) && y.Addr < x.Addr+uint64(x.Size) {
				return false
			}
		}
	}
	return true
}

// --- Random walk --------------------------------------------------------------

// runWalks samples one outcome per seed: walks 0..Seeds-1 of
// opcheck.Compiled.Walk, the sampler opcheck.Observe draws from. Each walk
// is bounded by opcheck.WalkSteps and the global budgets; a cut walk
// contributes its partial trace and no outcome.
func (e *explorer) runWalks() {
	for i := 0; i < e.cfg.seeds(); i++ {
		if !e.walk(i) {
			return
		}
	}
}

// walk runs walk seed; false means a global budget expired.
func (e *explorer) walk(seed int) bool {
	m := e.m
	var path []machine.Transition
	cut := false
	halted, err := e.compiled.Walk(m, seed, func(t machine.Transition, err error) bool {
		path = append(path, t)
		if err != nil {
			return false
		}
		e.res.States++
		// A walk whose last transition spends the budget is complete,
		// not cut: its path replays to an outcome.
		cut = e.expired() != "" && len(m.Enabled(nil)) > 0 && e.cut(path)
		return !cut
	})
	switch {
	case err != nil:
		e.trapped(path, err)
	case halted:
		if err := e.leaf(m, path); err != nil {
			e.trapped(path, err)
		}
	case cut:
		return false
	case !e.res.Partial:
		// Per-run watchdog: record the cut path once, keep walking other
		// seeds (the global budgets still bound the soak).
		e.res.Partial = true
		e.res.PartialReason = fmt.Sprintf("walk step budget %d exhausted", opcheck.WalkSteps)
		e.res.PartialTrace = path
	}
	return true
}

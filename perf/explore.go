package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/models"
	"repro/internal/opcheck"
)

// exploreCfg is a full sleep-set DPOR enumeration against the machine's
// axiomatic twin, as `litmusctl explore -mode dpor` runs it.
var exploreCfg = explore.Config{Mode: explore.ModeDPOR}

// exploreWL is the explore_dpor workload: an operation is one round, a full
// enumeration of every program in the set.
type exploreWL struct {
	p     params
	progs []*litmus.Program
}

func newExplore(p params) *exploreWL { return &exploreWL{p: p} }

func (e *exploreWL) close() error { return nil }

func (e *exploreWL) setup() error {
	e.progs = []*litmus.Program{litmus.SB(), litmus.MP(), litmus.LB(), litmus.TwoPlusTwoW()}
	if e.p.smoke {
		e.progs = e.progs[:1]
	}
	// The programs are fixed; the seed orders the set and the threads of
	// each program, which changes the order DPOR meets the transitions in.
	rng := rand.New(rand.NewSource(e.p.seed))
	rng.Shuffle(len(e.progs), func(i, j int) { e.progs[i], e.progs[j] = e.progs[j], e.progs[i] })
	for _, p := range e.progs {
		rng.Shuffle(len(p.Threads), func(i, j int) { p.Threads[i], p.Threads[j] = p.Threads[j], p.Threads[i] })
	}
	// One round warms the process.
	_, _, err := e.round(nil, 0)
	return err
}

// round explores every program once and returns the states visited and how
// many explorations were not full. With a tracer, each exploration is a span
// under the round's.
func (e *exploreWL) round(tr *tracer, it int) (results []*explore.Result, notFull int, err error) {
	op := 0
	if tr != nil {
		op = tr.begin(0, it, "op")
		defer tr.end(op)
	}
	for _, p := range e.progs {
		var res *explore.Result
		run := func() { res, err = explore.Run(p, exploreCfg) }
		if tr != nil {
			tr.do(op, it, "explore.run", run)
		} else {
			run()
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p.Name, err)
		}
		if !res.Full() {
			notFull++
		}
		results = append(results, res)
	}
	return results, notFull, nil
}

func (e *exploreWL) loop(stop stopFn) (*sample, error) {
	s := &sample{}
	var exact exactCheck
	var states uint64
	for it := 0; !stop(it); it++ {
		t0 := time.Now()
		results, notFull, err := e.round(nil, it)
		if err != nil {
			return nil, err
		}
		wall := ms(time.Since(t0))
		if notFull > 0 {
			s.failed++
		}
		states = 0
		for _, r := range results {
			states += uint64(r.States)
			exact.observe(r.Test, uint64(r.States), uint64(r.Runs), uint64(r.Pruned))
		}
		s.windows = append(s.windows, window{wallMS: wall, opMS: []float64{wall}, units: float64(states)})
	}
	s.exactCost = float64(states)
	s.mismatches = exact.mismatches
	return s, nil
}

// traced spans every explore.Run and replays the two steps it takes before
// exploring: compiling the program for the machine and enumerating the
// reference outcome set; the rest of a Run is the exploration itself.
func (e *exploreWL) traced(tr *tracer, stop stopFn, lm layers) error {
	ref, err := models.Default().Lookup("op-ref")
	if err != nil {
		return err
	}
	var exact exactCheck
	var failed int
	var states, runs, pruned, coverage float64
	it := 0
	for ; !stop(it); it++ {
		results, notFull, err := e.round(tr, it)
		if err != nil {
			return err
		}
		if notFull > 0 {
			failed++
		}
		states, runs, pruned, coverage = 0, 0, 0, 0
		for _, r := range results {
			states += float64(r.States)
			runs += float64(r.Runs)
			pruned += float64(r.Pruned)
			coverage += r.Coverage() / float64(len(results))
			exact.observe(r.Test, uint64(r.States), uint64(r.Runs), uint64(r.Pruned))
		}
		for _, p := range e.progs {
			tr.do(0, it, "opcheck.compile", func() { _, err = opcheck.Compile(p) })
			if err != nil {
				return err
			}
			tr.do(0, it, "litmus.enumerate", func() {
				_, err = litmus.Enumerate(p, ref, litmus.WithWorkers(1), litmus.WithCache(litmus.NewCache()))
			})
			if err != nil {
				return err
			}
		}
	}
	run := quiet(tr.perIter("explore.run"))
	compile := quiet(tr.perIter("opcheck.compile"))
	reference := quiet(tr.perIter("litmus.enumerate"))
	lm["explore.states"] = states
	lm["explore.runs"] = runs
	lm["explore.pruned"] = pruned
	if runs+pruned > 0 {
		lm["explore.pruned_ratio"] = pruned / (runs + pruned)
	}
	if states > 0 {
		lm["explore.ns_per_state"] = (run - compile - reference) * 1e6 / states
	}
	lm["explore.reference_ms"] = reference
	lm["explore.coverage_pct"] = coverage
	lm["harness.failed"] += float64(failed)
	lm["harness.determinism_mismatches"] += float64(exact.mismatches)

	fmt.Printf("attribution of explore.Run over the set (quiet decile of %d traced rounds)\n", it)
	row := func(name string, v float64) { fmt.Printf("  %-34s %10.3f ms %6.1f%%\n", name, v, v/run*100) }
	row("opcheck.Compile (replayed)", compile)
	row("reference enumeration (replayed)", reference)
	row("exploration (the rest)", run-compile-reference)
	row("explore.Run", run)
	return nil
}

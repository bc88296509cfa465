package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/campaign"
	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/models"
	"repro/internal/opcheck"
	"repro/internal/rel"
)

// campaignCfg is the verdict pipeline's configuration, as `litmusctl
// campaign -opcheck-seeds 2` runs it.
var campaignCfg = campaign.Config{OpcheckSeeds: 2}

// campaignWL is the campaign workload: an operation is one generated test
// through campaign.Check; the corpus is gone through in rounds.
type campaignWL struct {
	p     params
	tests []*litmusgen.Test
}

func newCampaign(p params) *campaignWL { return &campaignWL{p: p} }

func (c *campaignWL) close() error { return nil }

// genConfig is the generator's configuration. The generator's enumeration
// order is fixed and takes no seed; setup orders the corpus by the seed.
func (c *campaignWL) genConfig() litmusgen.Config {
	cfg := litmusgen.Config{Seed: c.p.seed, MaxThreads: 3, MaxPerShape: 8}
	if c.p.smoke {
		cfg.MaxThreads, cfg.MaxPerShape = 2, 2
	}
	return cfg
}

func (c *campaignWL) generate() []*litmusgen.Test {
	var tests []*litmusgen.Test
	litmusgen.Stream(c.genConfig(), func(t *litmusgen.Test) bool {
		tests = append(tests, t)
		return true
	})
	return tests
}

func (c *campaignWL) setup() error {
	c.tests = c.generate()
	if len(c.tests) == 0 {
		return errors.New("the generator emitted no tests")
	}
	rng := rand.New(rand.NewSource(c.p.seed))
	rng.Shuffle(len(c.tests), func(i, j int) { c.tests[i], c.tests[j] = c.tests[j], c.tests[i] })
	// One round warms the process; a failing verdict here fails every round.
	for _, t := range c.tests {
		if rec := campaign.Check(campaignCfg, t); rec.Verdict == campaign.VerdictFail {
			return fmt.Errorf("%s: %s", rec.Name, rec.Detail)
		}
	}
	return nil
}

// undecided counts the checks of a record that were skipped, and all of them.
func undecided(rec campaign.Record) (skipped, all uint64) {
	for _, v := range rec.Checks {
		if v == campaign.VerdictSkip {
			skipped++
		}
	}
	return skipped, uint64(len(rec.Checks))
}

func (c *campaignWL) loop(stop stopFn) (*sample, error) {
	s := &sample{}
	var exact exactCheck
	var skipped, checks uint64
	for round := 0; !stop(round); round++ {
		skipped, checks = 0, 0
		w := window{opMS: make([]float64, 0, len(c.tests)), units: float64(len(c.tests))}
		start := time.Now()
		for _, t := range c.tests {
			t0 := time.Now()
			rec := campaign.Check(campaignCfg, t)
			w.opMS = append(w.opMS, ms(time.Since(t0)))
			if rec.Verdict == campaign.VerdictFail {
				s.failed++
			}
			sk, all := undecided(rec)
			skipped, checks = skipped+sk, checks+all
		}
		w.wallMS = ms(time.Since(start))
		s.windows = append(s.windows, w)
		exact.observe("round", skipped, checks)
	}
	// Checks the pipeline could not decide (programs opcheck does not
	// support), per thousand checks.
	s.exactCost = 1000 * float64(skipped) / float64(checks)
	s.mismatches = exact.mismatches
	return s, nil
}

// traced spans every campaign.Check and then replays the test's constituent
// calls, each under its own span and with one enumeration cache per test as
// campaign's checkTest does; what the replays do not cover of a Check is
// campaign's own time.
func (c *campaignWL) traced(tr *tracer, stop stopFn, lm layers) error {
	x86M := models.ByLevel(memmodel.LevelX86)
	tcgM := models.ByLevel(memmodel.LevelTCG)
	armM := models.ByLevel(memmodel.LevelArm)
	var exact exactCheck
	var selfUS []float64
	var failed, skipped, unsupported, outcomes uint64

	op := 0
	for round := 0; !stop(round); round++ {
		skipped, unsupported, outcomes = 0, 0, 0
		for _, t := range c.tests {
			var rec campaign.Record
			checkMS := tr.do(0, op, "op", func() { rec = campaign.Check(campaignCfg, t) })
			switch rec.Verdict {
			case campaign.VerdictFail:
				failed++
			case campaign.VerdictSkip:
				skipped++
			}

			opts := []litmus.Option{litmus.WithWorkers(1), litmus.WithCache(litmus.NewCache())}
			rep := tr.begin(0, op, "replay")
			theorem1 := func(tgt *litmus.Program, m memmodel.Model) {
				tr.do(rep, op, "mapping.theorem1", func() {
					if v := mapping.VerifyTheorem1(t.Prog, x86M, tgt, m, opts...); !v.Correct() {
						failed++
					}
				})
			}
			sound := func(p *litmus.Program) {
				tr.do(rep, op, "opcheck.sound", func() {
					bad, err := opcheck.CheckSound(p, armM, campaignCfg.OpcheckSeeds, opts...)
					switch {
					case errors.Is(err, opcheck.ErrUnsupported):
						unsupported++
					case err != nil || len(bad) > 0:
						failed++
					}
				})
			}
			switch t.Level {
			case litmusgen.LevelX86:
				tcgP, armP := mapping.TranslateVerified(t.Prog, mapping.RMWCasal)
				theorem1(tcgP, tcgM)
				theorem1(armP, armM)
				if t.HasRMW {
					_, armX := mapping.TranslateVerified(t.Prog, mapping.RMWExclusiveFenced)
					theorem1(armX, armM)
				}
				sound(armP)
			case litmusgen.LevelArm:
				tr.do(rep, op, "litmus.enumerate", func() {
					out, err := litmus.Enumerate(t.Prog, armM, opts...)
					if err != nil || len(out) == 0 {
						failed++
					}
					outcomes += uint64(len(out))
				})
				sound(t.Prog)
			}
			selfUS = append(selfUS, (checkMS-tr.end(rep))*1e3)
			op++
		}
		exact.observe("round", skipped, unsupported, outcomes)
	}

	// The generator and the mapping matrix, once each, and the rel kernels
	// the per-candidate consistency checks are built from.
	var regenerated int
	genMS := tr.do(0, op, "litmusgen.stream", func() { regenerated = len(c.generate()) })
	if regenerated != len(c.tests) {
		exact.mismatches++
	}
	var matrix *mapping.MatrixResult
	lm["mapping.matrix_ms"] = tr.do(0, op, "mapping.matrix", func() {
		matrix = mapping.Matrix(litmus.X86Corpus(), models.Default(), mapping.DefaultSchemes(), nil)
	})
	if !matrix.AllVerifiedPass() {
		failed++
	}
	relKernels(lm)

	checks := tr.durations("op")
	lm["campaign.check_us_p50"] = median(checks) * 1e3
	lm["campaign.check_us_p99"] = percentile(checks, 99) * 1e3
	lm["campaign.self_us"] = median(selfUS)
	lm["campaign.skipped"] = float64(skipped)
	lm["litmusgen.tests"] = float64(len(c.tests))
	lm["litmusgen.tests_per_s"] = float64(regenerated) / (genMS / 1e3)
	lm["litmus.enumerate_us"] = median(tr.durations("litmus.enumerate")) * 1e3
	lm["litmus.outcomes"] = float64(outcomes)
	lm["mapping.theorem1_us"] = median(tr.durations("mapping.theorem1")) * 1e3
	lm["opcheck.sound_us"] = median(tr.durations("opcheck.sound")) * 1e3
	lm["opcheck.unsupported"] = float64(unsupported)
	lm["harness.failed"] += float64(failed)
	lm["harness.determinism_mismatches"] += float64(exact.mismatches)

	check := sum(checks)
	fmt.Printf("attribution of campaign.Check over %d traced tests (replayed constituents, sums)\n", op)
	row := func(name string, v float64) { fmt.Printf("  %-34s %10.3f ms %6.1f%%\n", name, v, v/check*100) }
	t1, en, so := sum(tr.durations("mapping.theorem1")), sum(tr.durations("litmus.enumerate")), sum(tr.durations("opcheck.sound"))
	row("mapping.VerifyTheorem1", t1)
	row("litmus.Enumerate (arm level)", en)
	row("opcheck.CheckSound", so)
	row("campaign remainder", check-t1-en-so)
	row("campaign.Check", check)
	return nil
}

// relKernels times the arena kernels on 16-event relations, the size of a
// corpus skeleton.
func relKernels(lm layers) {
	const n, reps = 16, 20000
	rng := rand.New(rand.NewSource(1))
	graph := func() *rel.Relation {
		// Edges only from lower to higher ids: acyclic, as a consistent
		// candidate's order relations are.
		r := rel.NewSized(n)
		for i := 0; i < 2*n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a > b {
				a, b = b, a
			}
			if a != b {
				r.Add(a, b)
			}
		}
		return r
	}
	p, q := graph(), graph()
	ar := rel.NewArena(n)
	scratch := ar.Get()
	perOp := func(f func()) float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return float64(time.Since(t0).Nanoseconds()) / reps
	}
	lm["rel.seq_ns"] = perOp(func() { scratch.SeqOf(p, q) })
	lm["rel.closure_ns"] = perOp(func() { scratch.CopyFrom(p); scratch.CloseTransitive() })
	acyclic := true
	lm["rel.acyclic_ns"] = perOp(func() { acyclic = ar.Acyclic(p) && acyclic })
	if !acyclic {
		lm["harness.failed"]++
	}
}

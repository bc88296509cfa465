// Package campaign streams generated litmus tests (internal/litmusgen)
// through the repository's two verification pipelines at corpus scale:
// the Theorem-1 behaviour-containment check of the verified x86→TCG→Arm
// mapping chain, and the operational/axiomatic soundness check
// (internal/opcheck). It is the step that turns "the mapping verifies the
// examples" into "the mapping sweeps the space".
//
// The driver is a bounded pipeline: the generator goroutine streams tests
// into a small channel, a worker pool runs the per-test checks (each test
// enumerated serially with a private per-test cache, so campaign
// parallelism comes from tests, not nested enumeration fan-out), and a
// single writer appends one JSONL record per test. Memory stays bounded
// by the channel depths plus the generator's dedup set; the corpus is
// never materialized.
//
// Results are incremental and resumable: the first JSONL line is a header
// carrying a hash of the generating configuration, every later line is
// one verdict record keyed by the test's deterministic index. Resuming
// re-streams the same deterministic sequence, skips indices already on
// disk, and appends the rest — the merged record set is identical to an
// uninterrupted run.
package campaign

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/journal"
	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/opcheck"
)

// Config parameterizes one campaign.
type Config struct {
	// Gen is the generator configuration; its hash gates resume.
	Gen litmusgen.Config
	// Workers bounds campaign parallelism (0 = NumCPU via the caller;
	// package-level default 1 keeps tests deterministic to reason about).
	Workers int
	// OpcheckSeeds is the per-test seed count for the operational
	// soundness check; 0 uses a small default, negative disables the
	// operational check entirely (pure axiomatic campaign).
	OpcheckSeeds int
	// ExploreSeeds, when positive, soaks every test through the
	// operational exploration engine (internal/explore, walk mode, that
	// many seeds) and fails the test on any outcome the op-ref model
	// forbids. 0 disables the check.
	ExploreSeeds int
	// Obs receives campaign counters and spans under its "campaign"
	// child scope; nil disables instrumentation.
	Obs *obs.Scope
}

const defaultOpcheckSeeds = 4

func (cfg Config) opcheckSeeds() int {
	if cfg.OpcheckSeeds == 0 {
		return defaultOpcheckSeeds
	}
	return cfg.OpcheckSeeds
}

func (cfg Config) workers() int {
	if cfg.Workers <= 0 {
		return 1
	}
	return cfg.Workers
}

// Hash identifies the campaign configuration for resume validation: the
// generator space plus every knob that changes what a verdict means.
func (cfg Config) Hash() string {
	h := fmt.Sprintf("%s/op%d", cfg.Gen.Hash(), cfg.opcheckSeeds())
	if cfg.ExploreSeeds > 0 {
		// Appended only when enabled, so results files without an explore
		// leg keep their hashes and stay resumable. Files whose explore leg
		// drew walks from the old overlapping seed sequence carry "/ex%d"
		// and are refused: their verdicts came from another walk set.
		h += fmt.Sprintf("/walk%d", cfg.ExploreSeeds)
	}
	return h
}

// Verdict values of a Record.
const (
	VerdictPass = "pass" // every applicable check passed
	VerdictFail = "fail" // at least one check failed (or errored)
	VerdictSkip = "skip" // no check was applicable to the test
)

// Record is one test's result line.
type Record struct {
	// Idx is the test's deterministic index in the generation order —
	// the resume key.
	Idx int `json:"idx"`
	// Name is the generated program name (shape + decoration digits).
	Name string `json:"name"`
	// FP is the short structural fingerprint hash.
	FP string `json:"fp"`
	// Level is "x86" or "arm".
	Level string `json:"level"`
	// Verdict aggregates the checks: pass, fail or skip.
	Verdict string `json:"verdict"`
	// Checks maps check name → pass/fail/skip.
	Checks map[string]string `json:"checks,omitempty"`
	// Detail explains the first failure, when any.
	Detail string `json:"detail,omitempty"`
}

// Summary aggregates one Run.
type Summary struct {
	// Tests counts records written by this run; Resumed counts generated
	// tests skipped because a prior run already recorded them.
	Tests, Resumed int
	// Pass/Fail/Skip partition Tests by verdict.
	Pass, Fail, Skip int
	// ChecksRun / ChecksSkipped count individual checks.
	ChecksRun, ChecksSkipped int
	// Gen reports the generator's enumeration statistics.
	Gen litmusgen.Stats
	// Elapsed is wall time; TestsPerSec = Tests/Elapsed.
	Elapsed     time.Duration
	TestsPerSec float64
	// Failures holds up to FailureCap failing records for reporting.
	Failures []Record
}

// FailureCap bounds Summary.Failures.
const FailureCap = 16

// Run streams the configured campaign, appending one JSONL record per
// test to w (the caller has already written or validated the header —
// see RunFile). done lists test indices already recorded by a previous
// run; they are re-generated (the sequence is deterministic) but not
// re-checked or re-written. The first write error stops the generator
// and the workers: Run returns it once the pipeline has wound down,
// without checking the rest of the corpus.
func Run(cfg Config, w io.Writer, done map[int]bool) (Summary, error) {
	sc := cfg.Obs.Child("campaign")
	start := time.Now()
	var sum Summary

	workers := cfg.workers()
	tests := make(chan *litmusgen.Test, workers*2)
	records := make(chan Record, workers*2)
	stop := make(chan struct{})
	genDone := make(chan struct{})

	var resumed int
	go func() {
		defer close(genDone)
		defer close(tests)
		sum.Gen = litmusgen.Stream(cfg.Gen, func(t *litmusgen.Test) bool {
			if done[t.Idx] {
				resumed++
				return true
			}
			select {
			case tests <- t:
				return true
			case <-stop:
				return false
			}
		})
	}()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tests {
				rec := checkTest(cfg, t, sc)
				select {
				case records <- rec:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(records)
	}()

	enc := journal.NewWriter(w)
	var werr error
	for rec := range records {
		if werr = enc.Encode(rec); werr != nil {
			break
		}
		sum.Tests++
		switch rec.Verdict {
		case VerdictPass:
			sum.Pass++
		case VerdictFail:
			sum.Fail++
			if len(sum.Failures) < FailureCap {
				sum.Failures = append(sum.Failures, rec)
			}
		default:
			sum.Skip++
		}
		for _, st := range rec.Checks {
			if st == VerdictSkip {
				sum.ChecksSkipped++
			} else {
				sum.ChecksRun++
			}
		}
		sc.Counter("tests").Inc()
		sc.Counter("verdict." + rec.Verdict).Inc()
	}
	// After a write error nothing reads records any more: a worker blocked
	// on a full channel returns on stop, and so does the generator.
	close(stop)
	wg.Wait()
	<-genDone
	sum.Resumed = resumed

	sum.Elapsed = time.Since(start)
	if s := sum.Elapsed.Seconds(); s > 0 {
		sum.TestsPerSec = float64(sum.Tests) / s
	}
	sc.Gauge("tests_per_sec").Set(int64(sum.TestsPerSec))
	sc.Counter("resumed").Add(uint64(resumed))
	if werr != nil {
		return sum, fmt.Errorf("campaign: writing results: %w", werr)
	}
	return sum, nil
}

// Check runs the full per-test verdict pipeline for one generated test
// outside a streaming Run — the unit the campaign benchmarks time.
func Check(cfg Config, t *litmusgen.Test) Record {
	return checkTest(cfg, t, cfg.Obs.Child("campaign"))
}

// checkTest runs every applicable check for one generated test and folds
// the results into a Record. Enumerations use a private cache: campaign
// parallelism comes from the test stream, and the cache still shares the
// source enumeration between the TCG leg, the Arm leg and the opcheck
// admitted-set of the same test, then gets dropped with the test — bounded
// memory regardless of corpus size.
func checkTest(cfg Config, t *litmusgen.Test, sc *obs.Scope) Record {
	start := sc.Begin()
	rec := Record{
		Idx:    t.Idx,
		Name:   t.Prog.Name,
		FP:     t.FPHash(),
		Level:  t.Level.String(),
		Checks: make(map[string]string),
	}
	fail := func(name, detail string) {
		rec.Checks[name] = VerdictFail
		rec.Verdict = VerdictFail
		if rec.Detail == "" {
			rec.Detail = name + ": " + detail
		}
	}
	verify := func(name string, v mapping.Verification) {
		switch {
		case v.Err != nil:
			fail(name, v.Err.Error())
		case !v.Correct():
			fail(name, fmt.Sprintf("%d new behaviours, e.g. %q",
				len(v.NewBehaviours), v.NewBehaviours[0]))
		default:
			rec.Checks[name] = VerdictPass
		}
	}
	soundness := func(name string, p *litmus.Program, m memmodel.Model, opts []litmus.Option) {
		if cfg.OpcheckSeeds < 0 {
			rec.Checks[name] = VerdictSkip
			return
		}
		bad, err := opcheck.CheckSound(p, m, cfg.opcheckSeeds(), opts...)
		switch {
		case errors.Is(err, opcheck.ErrUnsupported):
			rec.Checks[name] = VerdictSkip
		case err != nil:
			fail(name, err.Error())
		case len(bad) > 0:
			fail(name, fmt.Sprintf("%d unsound outcomes, e.g. %q", len(bad), bad[0]))
		default:
			rec.Checks[name] = VerdictPass
		}
	}

	explored := func(name string, p *litmus.Program) {
		if cfg.ExploreSeeds <= 0 {
			return
		}
		res, err := explore.Run(p, explore.Config{Mode: explore.ModeWalk, Seeds: cfg.ExploreSeeds, Obs: sc})
		switch {
		case errors.Is(err, opcheck.ErrUnsupported):
			rec.Checks[name] = VerdictSkip
		case err != nil:
			fail(name, err.Error())
		case len(res.Violations) > 0:
			fail(name, res.Violations[0].Reason)
		default:
			// Budget-cut walks are a partial verdict, not a failure:
			// the soak asserts soundness, coverage is reported aside.
			rec.Checks[name] = VerdictPass
		}
	}

	cache := litmus.NewCache()
	opts := []litmus.Option{litmus.WithCache(cache)}
	armM := models.ByLevel(memmodel.LevelArm)

	switch t.Level {
	case litmusgen.LevelX86:
		// Theorem 1 over the verified chain, both legs; RMW tests check
		// both Arm RMW lowering styles (casal and fenced exclusives).
		tcgP, armP := mapping.TranslateVerified(t.Prog, mapping.RMWCasal)
		x86M := models.ByLevel(memmodel.LevelX86)
		verify("t1-tcg", mapping.VerifyTheorem1(t.Prog, x86M, tcgP, models.ByLevel(memmodel.LevelTCG), opts...))
		verify("t1-arm", mapping.VerifyTheorem1(t.Prog, x86M, armP, armM, opts...))
		if t.HasRMW {
			_, armX := mapping.TranslateVerified(t.Prog, mapping.RMWExclusiveFenced)
			verify("t1-arm-lxsx", mapping.VerifyTheorem1(t.Prog, x86M, armX, armM, opts...))
		}
		soundness("opcheck", armP, armM, opts)
		explored("explore", armP)
	case litmusgen.LevelArm:
		// Arm-level tests exercise the axiomatic model directly plus the
		// operational soundness correspondence.
		out, err := litmus.Enumerate(t.Prog, armM, opts...)
		switch {
		case err != nil:
			fail("enumerate", err.Error())
		case len(out) == 0:
			fail("enumerate", "empty outcome set")
		default:
			rec.Checks["enumerate"] = VerdictPass
		}
		soundness("opcheck", t.Prog, armM, opts)
		explored("explore", t.Prog)
	}

	if rec.Verdict == "" {
		rec.Verdict = VerdictPass
		allSkipped := true
		for _, st := range rec.Checks {
			if st != VerdictSkip {
				allSkipped = false
				break
			}
		}
		if allSkipped {
			rec.Verdict = VerdictSkip
		}
	}
	dur := sc.Span("campaign.test", t.Prog.Name, -1, 0, 0, start)
	sc.Histogram("test_ns", obs.DurationBuckets).Observe(uint64(dur))
	return rec
}

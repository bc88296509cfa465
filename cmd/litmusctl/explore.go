package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/opcheck"
)

// exploreCorpus lists every named corpus test the exploration engine can
// be pointed at by name. Tests outside the compilable subset are skipped
// at run time (opcheck.ErrUnsupported), not excluded here.
func exploreCorpus() []*litmus.Program {
	return []*litmus.Program{
		litmus.MP(), litmus.SB(), litmus.SBFenced(), litmus.LB(), litmus.S(),
		litmus.R(), litmus.RFenced(), litmus.TwoPlusTwoW(), litmus.CoRR(),
		litmus.CoWW(), litmus.CoWR(), litmus.MPAddr(), litmus.LBAddr(),
		litmus.IRIW(), litmus.IRIWFenced(), litmus.WRC(), litmus.ISA2(),
		litmus.RWC(), litmus.RWCFenced(), litmus.MPQ(), litmus.SBQ(),
		litmus.SBAL(), litmus.SBALArm(), litmus.MPArm(), litmus.MPArmDMB(),
	}
}

// resolveTests maps positional arguments to programs: a known corpus test
// name (case-insensitive) or a .lit file path. No arguments = the whole
// corpus.
func resolveTests(args []string) ([]*litmus.Program, error) {
	corpus := exploreCorpus()
	if len(args) == 0 {
		return corpus, nil
	}
	byName := make(map[string]*litmus.Program, len(corpus))
	for _, p := range corpus {
		byName[strings.ToLower(p.Name)] = p
	}
	var out []*litmus.Program
	for _, a := range args {
		if p, ok := byName[strings.ToLower(a)]; ok {
			out = append(out, p)
			continue
		}
		if strings.HasSuffix(a, ".lit") {
			src, err := os.ReadFile(a)
			if err != nil {
				return nil, err
			}
			pt, err := litmus.Parse(string(src))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a, err)
			}
			out = append(out, pt.Program)
			continue
		}
		return nil, fmt.Errorf("unknown test %q (not a corpus name or .lit file)", a)
	}
	return out, nil
}

// exploreCmd drives the operational exploration engine: seeded
// random-walk soak (walk), exhaustive sleep-set enumeration (dpor)
// or byte-identical trace replay. Returns true when any exploration found
// a violation, a replay mismatched, or coverage was incomplete under an
// exhaustive mode.
func exploreCmd(args []string) bool {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr,
			"usage: litmusctl explore [-mode walk|dpor|replay] [flags] [test|file.lit ...]")
		fs.PrintDefaults()
		os.Exit(2)
	}
	mode := fs.String("mode", "walk", "exploration mode: walk, dpor, or replay")
	seeds := fs.Int("seeds", 0, "random walks per test (walk mode; 0 = 16)")
	seed := fs.Int64("seed", 0, "base seed for walk mode")
	maxStates := fs.Int("max-states", 0, "transition budget per test (0 = 1<<20); exhaustion = partial verdict")
	stepBudget := fs.Int("step-budget", 0, "per-walk transition cap (0 = 4096)")
	deadline := fs.Duration("deadline", 0, "wall-clock watchdog per test (0 = off)")
	model := fs.String("model", "", "axiomatic reference for the differential (default op-ref)")
	outFile := fs.String("out", "", "soak results file (JSONL); enables -resume")
	resume := fs.Bool("resume", false, "resume an interrupted soak from -out (same config required)")
	traceFile := fs.String("trace", "", "replay mode: trace file to re-execute")
	traceOut := fs.String("trace-out", "", "write the first violation/partial trace here")
	fs.Parse(args)

	cfg := explore.Config{
		Mode:       explore.Mode(*mode),
		Seeds:      *seeds,
		Seed:       *seed,
		MaxStates:  *maxStates,
		StepBudget: *stepBudget,
		Deadline:   *deadline,
		Model:      *model,
		Obs:        cf.Scope(),
	}

	switch cfg.Mode {
	case "replay":
		return replayCmd(*traceFile, fs.Args(), cfg)
	case explore.ModeWalk, explore.ModeDPOR:
	default:
		fmt.Fprintf(os.Stderr, "litmusctl: unknown explore mode %q (want walk, dpor or replay)\n", *mode)
		os.Exit(2)
	}

	tests, err := resolveTests(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl:", err)
		os.Exit(2)
	}

	if *outFile != "" {
		soak, err := explore.RunFile(tests, cfg, *outFile, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "litmusctl:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "explore: %d tests (%d resumed) → %d violations, %d partial → %s\n",
			soak.Tests, soak.Resumed, soak.Violations, soak.Partial, *outFile)
		return soak.Violations > 0
	}

	failed := false
	var savedTrace bool
	fmt.Printf("%-12s %-6s %8s %8s %8s %10s %6s\n",
		"test", "mode", "runs", "states", "pruned", "coverage", "status")
	for _, p := range tests {
		start := time.Now()
		res, err := explore.Run(p, cfg)
		if err != nil {
			if errors.Is(err, opcheck.ErrUnsupported) {
				fmt.Printf("%-12s %-6s %8s %8s %8s %10s %6s\n", p.Name, *mode, "-", "-", "-", "-", "skip")
				continue
			}
			fmt.Fprintln(os.Stderr, "litmusctl:", err)
			os.Exit(1)
		}
		status := "ok"
		switch {
		case len(res.Violations) > 0:
			status = "FAIL"
			failed = true
		case res.Partial:
			status = "partial"
		case res.Covered < res.Allowed && cfg.Mode != explore.ModeWalk:
			// An exhaustive mode that completes without full coverage
			// means machine and model disagree in the other direction.
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-12s %-6s %8d %8d %8d %3d/%d (%3.0f%%) %6s  %s\n",
			res.Test, res.Mode, res.Runs, res.States, res.Pruned,
			res.Covered, res.Allowed, res.Coverage(), status, time.Since(start).Round(time.Millisecond))
		for _, v := range res.Violations {
			fmt.Printf("    violation: %s (%d decisions)\n", v.Reason, len(v.Trace))
		}
		if *traceOut != "" && !savedTrace {
			if tr, ok := res.FirstTrace(); ok {
				raw, err := explore.EncodeTrace(tr)
				if err == nil {
					err = os.WriteFile(*traceOut, raw, 0o644)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "litmusctl: writing trace:", err)
					os.Exit(1)
				}
				savedTrace = true
				fmt.Fprintf(os.Stderr, "explore: trace written to %s (replay with: litmusctl explore -mode replay -trace %s)\n",
					*traceOut, *traceOut)
			}
		}
	}
	return failed
}

// replayCmd re-executes a recorded trace and byte-compares the re-recorded
// trace against the original — the reproducibility contract.
func replayCmd(path string, args []string, cfg explore.Config) bool {
	if path == "" {
		fmt.Fprintln(os.Stderr, "litmusctl: replay mode needs -trace FILE")
		os.Exit(2)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl:", err)
		os.Exit(1)
	}
	tr, err := explore.DecodeTrace(bytes.NewReader(raw))
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl:", err)
		os.Exit(1)
	}
	// The program comes from the positional argument when given, else the
	// trace header's test name resolved against the corpus.
	lookup := args
	if len(lookup) == 0 {
		lookup = []string{tr.Header.Test}
	}
	tests, err := resolveTests(lookup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl:", err)
		os.Exit(1)
	}
	replayed, err := explore.Replay(tests[0], tr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl: replay:", err)
		os.Exit(1)
	}
	got, err := explore.EncodeTrace(*replayed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl:", err)
		os.Exit(1)
	}
	if !bytes.Equal(raw, got) {
		fmt.Printf("replay MISMATCH for %s (%d decisions): recorded %q/%q, replayed %q/%q\n",
			tr.Header.Test, len(tr.Decisions), tr.Final.Verdict, tr.Final.Outcome,
			replayed.Final.Verdict, replayed.Final.Outcome)
		return true
	}
	fmt.Printf("replay ok: %s, %d decisions, verdict %s", tr.Header.Test, len(tr.Decisions), tr.Final.Verdict)
	if tr.Final.Outcome != "" {
		fmt.Printf(", outcome %q", tr.Final.Outcome)
	}
	fmt.Println(" — byte-identical")
	return false
}

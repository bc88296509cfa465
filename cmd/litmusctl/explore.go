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

// resolveTests maps positional arguments to programs: a named corpus test
// (litmus.Lookup) or a .lit file path. No arguments = the whole named
// corpus.
func resolveTests(args []string) ([]*litmus.Program, error) {
	if len(args) == 0 {
		return litmus.Named(), nil
	}
	var out []*litmus.Program
	for _, a := range args {
		if p, ok := litmus.Lookup(a); ok {
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
	seeds := fs.Int("seeds", 0, "random walks per test, walks 0..N-1 (walk mode; 0 = 16)")
	maxStates := fs.Int("max-states", 0, "transition budget per test (0 = 1<<20); exhaustion = partial verdict")
	deadline := fs.Duration("deadline", 0, "wall-clock watchdog per test (0 = off)")
	traceFile := fs.String("trace", "", "replay mode: trace file to re-execute")
	traceOut := fs.String("trace-out", "", "write the first violation/partial trace here")
	fs.Parse(args)

	cfg := explore.Config{
		Mode:      explore.Mode(*mode),
		Seeds:     *seeds,
		MaxStates: *maxStates,
		Deadline:  *deadline,
		Obs:       cf.Scope(),
	}

	switch cfg.Mode {
	case "replay":
		return replayCmd(*traceFile, fs.Args())
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
func replayCmd(path string, args []string) bool {
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
	// trace header's test name resolved against the named corpus.
	lookup := args
	if len(lookup) == 0 {
		lookup = []string{tr.Header.Test}
	}
	tests, err := resolveTests(lookup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl:", err)
		os.Exit(1)
	}
	replayed, err := explore.Replay(tests[0], tr)
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

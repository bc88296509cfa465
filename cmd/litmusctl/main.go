// Command litmusctl explores the axiomatic side of Risotto-Go: it runs the
// litmus corpus under every registered memory model, verifies the mapping
// schemes (Theorem 1), and reproduces the paper's §3 counterexamples.
//
// Usage:
//
//	litmusctl corpus           # outcome sets of every corpus test per model
//	litmusctl outcomes <name>  # one test's outcomes under all models
//	litmusctl models           # the model registry (names, aliases, levels)
//	litmusctl verify           # Theorem-1 sweep (verified schemes)
//	litmusctl matrix           # N×N model matrix over every scheme route
//	litmusctl errors           # QEMU's MPQ/SBQ errors + FMR
//	litmusctl sbal             # the Armed-Cats casal error and its fix
//	litmusctl run <file.lit>…  # run text-format tests' expectations
//	litmusctl campaign …       # stream a generated corpus through the
//	                           # Theorem-1 + soundness checks (JSONL results)
//	litmusctl explore …        # drive the operational machine's weak-memory
//	                           # nondeterminism: random-walk soak, DPOR
//	                           # enumeration, byte-identical trace replay
//
// The global -workers N flag (before the subcommand) bounds enumeration
// parallelism: 0, the default, uses every CPU; 1 forces the serial
// enumerator. -fault name[@N] arms the deterministic fault injector (e.g.
// shard-panic exercises the enumerator's panic-capture and serial
// fallback); an enumeration that fails beyond recovery exits with code 3.
// -metrics json|prom|text dumps the observability snapshot (enumerations,
// shards, cache hits/misses, serial fallbacks) after the subcommand, and
// -trace FILE writes the span ring buffer as JSON lines.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/litmus"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/models"
)

// cf and enumOpts carry the shared flag settings (workers, faults, the
// process-wide outcome cache and the root observability scope) to every
// enumeration this command performs.
var (
	cf       *cliflags.Set
	enumOpts []litmus.Option
)

func main() {
	cf = cliflags.Register(flag.CommandLine)
	cf.AddWorkers(flag.CommandLine)
	flag.Usage = func() { usage() }
	flag.Parse()
	if err := cf.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl:", err)
		os.Exit(2)
	}
	// ^C mid-campaign flushes the partial summary and -metrics/-trace
	// outputs instead of dropping them (campaignCmd adds its own hook).
	cf.InterruptFlush()
	var err error
	enumOpts, err = cf.LitmusOptions()
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl:", err)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	failed := false
	switch args[0] {
	case "corpus":
		corpus()
	case "outcomes":
		if len(args) < 2 {
			usage()
		}
		outcomes(args[1])
	case "models":
		listModels()
	case "verify":
		fmt.Println(bench.VerifyReport(enumOpts...))
	case "matrix":
		failed = matrixCmd()
	case "errors":
		fmt.Println(bench.MotivationReport(enumOpts...))
	case "sbal":
		sbal()
	case "run":
		if len(args) < 2 {
			usage()
		}
		runFiles(args[1:])
	case "campaign":
		failed = campaignCmd(args[1:])
	case "explore":
		failed = exploreCmd(args[1:])
	default:
		usage()
	}
	if err := cf.Finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "litmusctl:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// runFiles parses and checks text-format litmus tests under every model.
func runFiles(paths []string) {
	failed := false
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "litmusctl: %v\n", err)
			os.Exit(1)
		}
		pt, err := litmus.Parse(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "litmusctl: %s: %v\n", path, err)
			os.Exit(1)
		}
		// A `model` directive scopes the expectations to the directive's
		// level; otherwise check under every canonical model (useful for
		// coherence tests that hold everywhere).
		checkModels := models.Default().Canonical()
		if l, ok := memmodel.ParseLevel(pt.Model); ok {
			checkModels = []memmodel.Model{models.ByLevel(l)}
		}
		for _, m := range checkModels {
			failures := litmus.CheckExpectations(pt, m)
			status := "ok"
			if len(failures) > 0 {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("%-24s %-12s %s\n", pt.Program.Name, m.Name(), status)
			for _, f := range failures {
				fmt.Printf("    %s\n", f)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// listModels prints the registry: every model with its level and aliases.
func listModels() {
	fmt.Printf("%-22s %-6s %s\n", "MODEL", "LEVEL", "ALIASES")
	for _, e := range models.Default().Entries() {
		kind := ""
		if e.Variant {
			kind = " (variant)"
		}
		fmt.Printf("%-22s %-6s %s%s\n",
			e.Name, e.Level, strings.Join(e.Aliases, ", "), kind)
	}
}

// matrixCmd runs the full N×N verified-mapping matrix: every registered
// model pair, through every registered scheme route between their levels,
// over the x86 corpus. Exit is non-zero iff a verified route fails —
// known-bad (QEMU) routes are expected to keep failing and are reported
// without failing the command.
func matrixCmd() bool {
	res := mapping.Matrix(litmus.X86Corpus(), models.Default(), mapping.DefaultSchemes(),
		cf.Scope(), enumOpts...)
	fmt.Print(res.Render())
	return !res.AllVerifiedPass()
}

// enumerate computes an outcome set with the global options; an enumeration
// failure that survived the serial fallback (a real enumerator fault)
// prints the unified one-line trap report and exits with
// cliflags.TrapExitCode, exactly like a trapped risotto guest.
func enumerate(p *litmus.Program, m memmodel.Model) litmus.OutcomeSet {
	out, err := litmus.Enumerate(p, m, enumOpts...)
	if err != nil {
		exitTrap(err)
	}
	return out
}

// exitTrap ends the process on an unrecovered enumeration error: structured
// traps print the shared one-line report and exit with TrapExitCode;
// anything else is an internal error (exit 1).
func exitTrap(err error) {
	if line, ok := cliflags.TrapReport("litmusctl", err); ok {
		fmt.Fprintln(os.Stderr, line)
		os.Exit(cliflags.TrapExitCode)
	}
	fmt.Fprintf(os.Stderr, "litmusctl: %v\n", err)
	os.Exit(1)
}

func corpus() {
	for _, p := range litmus.X86Corpus() {
		fmt.Printf("%s:\n", p.Name)
		for _, m := range models.Default().Canonical() {
			out := enumerate(p, m)
			fmt.Printf("  %-12s %d outcomes\n", m.Name(), len(out))
		}
	}
	snap := cf.Scope().Snapshot()
	fmt.Printf("\nenumerations %d (cache: %d hits, %d misses; %d shards, %d serial fallbacks)\n",
		snap.Counter("litmus.enumerations"),
		snap.Counter("litmus.cache.hits"), snap.Counter("litmus.cache.misses"),
		snap.Counter("litmus.shards"), snap.Counter("litmus.serial_fallbacks"))
}

func outcomes(name string) {
	var prog *litmus.Program
	for _, p := range litmus.X86Corpus() {
		if p.Name == name {
			prog = p
			break
		}
	}
	if prog == nil {
		fmt.Fprintf(os.Stderr, "litmusctl: unknown test %q (see 'corpus')\n", name)
		os.Exit(1)
	}
	for _, m := range models.Default().Canonical() {
		fmt.Printf("%s under %s:\n", prog.Name, m.Name())
		for _, o := range enumerate(prog, m).Sorted() {
			fmt.Printf("  %s\n", o)
		}
	}
}

func sbal() {
	src := litmus.SBAL()
	tgt := litmus.SBALArm()
	x86 := models.MustLookup("x86-TSO")
	fmt.Println("SBAL (§3.3): x86 source vs Figure-3 Arm mapping (casal + LDAPR)")
	fmt.Printf("\nx86 outcomes:\n")
	for _, o := range enumerate(src, x86).Sorted() {
		fmt.Printf("  %s\n", o)
	}
	for _, name := range []string{"arm-cats-original", "arm-cats"} {
		m := models.MustLookup(name)
		fmt.Printf("\nArm outcomes under %s:\n", m.Name())
		for _, o := range enumerate(tgt, m).Sorted() {
			fmt.Printf("  %s\n", o)
		}
		ver := mapping.VerifyTheorem1(src, x86, tgt, m, enumOpts...)
		if ver.Err != nil {
			exitTrap(ver.Err)
		}
		if ver.Correct() {
			fmt.Println("→ mapping correct under this model")
		} else {
			fmt.Printf("→ mapping ERRONEOUS: new behaviours %v\n", ver.NewBehaviours)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: litmusctl [-workers N] [-fault name[@N]] [-metrics json|prom|text] [-trace FILE] {corpus|outcomes <name>|models|verify|matrix|errors|sbal|run <file.lit>…|campaign [flags]|explore [flags]}")
	os.Exit(2)
}

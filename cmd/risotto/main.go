// Command risotto runs a benchmark guest program under the Risotto-Go DBT
// and prints execution statistics — the quickest way to see the translator
// at work.
//
// Usage:
//
//	risotto -kernel histogram [-variant risotto] [-threads 4] [-scale 1]
//	risotto -kernel histogram -emit histogram.riso   # save the guest image
//	risotto -image histogram.riso                    # run a saved image
//	risotto -kernel histogram -metrics json          # machine-readable stats
//	risotto -kernel histogram -trace run.jsonl       # per-stage span trace
//	risotto -kernel histogram -listen :8090          # live /metrics endpoint
//	risotto -kernel histogram -selfcheck             # verify every block
//	risotto -kernel histogram -bundle crash.json     # triage doc on a trap
//	risotto -replay crash.json                       # reproduce a bundle
//	risotto -list
//
// With -metrics the human stats block is suppressed and stdout carries only
// the snapshot document, so the output can be piped straight into
// obsvalidate or a metrics collector. -listen keeps the process alive after
// the run serving /metrics (Prometheus text) and /debug/obs (JSON).
//
// -selfheal turns on tiered recovery: a trap attributed to a translated
// block quarantines it and retranslates one optimization tier lower
// (full → no fence merging → no optimization → interpreter) instead of
// killing the run. -selfcheck (implies -selfheal) additionally
// shadow-executes every freshly translated block against the TCG
// interpreter and quarantines on divergence. An unrecovered trap with
// -bundle set writes a deterministic crash-triage bundle; -replay rebuilds
// the exact run from such a bundle and exits 0 only when the recorded trap
// reproduces (with -bundle naming the re-bundle to write for byte-level
// comparison).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/selfheal"
	"repro/internal/workloads"
)

func main() {
	kernel := flag.String("kernel", "", "workload kernel to run (see -list)")
	variant := flag.String("variant", "risotto", "DBT variant: qemu | no-fences | tcg-ver | risotto")
	threads := flag.Int("threads", 4, "guest thread count")
	scale := flag.Int("scale", 1, "problem-size multiplier")
	native := flag.Bool("native", false, "also run the native build for comparison")
	chain := flag.Bool("chain", false, "enable translation-block chaining")
	dump := flag.Bool("dump", false, "disassemble the translated blocks after the run")
	emit := flag.String("emit", "", "write the guest image to a file instead of running")
	imagePath := flag.String("image", "", "run a saved guest image (.riso)")
	list := flag.Bool("list", false, "list available kernels")
	stepBudget := flag.Uint64("step-budget", 0, "per-vCPU host-instruction watchdog budget (0 = unlimited)")
	deadline := flag.Duration("deadline", 0, "wall-clock watchdog for the run (0 = none)")
	selfHeal := flag.Bool("selfheal", false, "quarantine trapping blocks and retranslate one tier lower instead of dying")
	selfCheck := flag.Bool("selfcheck", false, "shadow-verify every translated block against the TCG interpreter (implies -selfheal)")
	bundlePath := flag.String("bundle", "", "write a crash-triage bundle to FILE on an unrecovered trap (with -replay: the re-bundle)")
	replayPath := flag.String("replay", "", "replay a crash-triage bundle and verify the recorded trap reproduces")
	cf := cliflags.Register(flag.CommandLine)
	cf.AddFaults(flag.CommandLine)
	cf.AddListen(flag.CommandLine)
	cf.AddTierUp(flag.CommandLine)
	flag.Parse()
	check(cf.Check())
	// ^C during a long run still flushes the -metrics/-trace outputs.
	cf.InterruptFlush()

	inject, err := cf.Injector()
	check(err)
	scope := cf.Scope()
	// -metrics claims stdout for the snapshot document; suppress the human
	// report so the output stays machine-parsable.
	quiet := cf.Metrics != ""
	runOpts := func(v core.Variant) []core.Option {
		return []core.Option{
			core.WithVariant(v),
			core.WithMemSize(bench.MemSize),
			core.WithChain(*chain),
			core.WithStepBudget(*stepBudget),
			core.WithDeadline(*deadline),
			core.WithSelfHeal(*selfHeal),
			core.WithSelfCheck(*selfCheck),
			core.WithProvenance(*kernel, cf.Fault),
			core.WithFaults(inject),
			core.WithObs(scope),
			core.WithTierUp(cf.TierUp),
		}
	}

	if *list {
		for _, k := range workloads.Registry() {
			fmt.Printf("%-18s (%s)\n", k.Name, k.Suite)
		}
		return
	}

	listenAddr, err := cf.Serve()
	check(err)
	if listenAddr != "" {
		fmt.Fprintf(os.Stderr, "risotto: serving http://%s/metrics and /debug/obs\n", listenAddr)
	}

	if *replayPath != "" {
		replay(cf, *replayPath, *bundlePath, quiet)
		finish(cf, listenAddr)
		return
	}

	if *imagePath != "" {
		data, err := os.ReadFile(*imagePath)
		check(err)
		img, err := guestimg.Decode(data)
		check(err)
		v, err := core.ParseVariant(*variant)
		check(err)
		rt, err := core.New(img, runOpts(v)...)
		check(err)
		code := runGuest(rt, *bundlePath)
		if !quiet {
			fmt.Printf("image       %s (entry %#x)\n", *imagePath, img.Entry)
			printStats(v, code, rt)
		}
		finish(cf, listenAddr)
		return
	}

	if *kernel == "" {
		flag.Usage()
		os.Exit(2)
	}

	v, err := core.ParseVariant(*variant)
	check(err)

	k, err := workloads.KernelByName(*kernel)
	check(err)
	b, err := k.Build(*threads, *scale)
	check(err)

	if *emit != "" {
		img, err := b.BuildGuest("main")
		check(err)
		check(os.WriteFile(*emit, img.Encode(), 0o644))
		fmt.Printf("wrote %s (%d bytes, entry %#x)\n", *emit, len(img.Encode()), img.Entry)
		return
	}

	img, err := b.BuildGuest("main")
	check(err)
	rt, err := core.New(img, runOpts(v)...)
	check(err)
	code := runGuest(rt, *bundlePath)

	if !quiet {
		fmt.Printf("kernel      %s (%s), threads=%d scale=%d\n", k.Name, k.Suite, *threads, *scale)
		printStats(v, code, rt)
	}

	if *dump {
		pcs := rt.BlockPCs()
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		for _, pc := range pcs {
			text, err := rt.DisassembleBlock(pc)
			check(err)
			fmt.Println()
			fmt.Print(text)
		}
	}

	if *native {
		b, err := k.Build(*threads, *scale)
		check(err)
		ncycles, ncode, err := bench.RunNative(b)
		check(err)
		fmt.Printf("\nnative      checksum %d, cycles %d (%.2fx faster)\n",
			ncode, ncycles, float64(rt.M.MaxCycles())/float64(ncycles))
		if ncode != code {
			fmt.Fprintln(os.Stderr, "risotto: WARNING: native checksum differs!")
			os.Exit(1)
		}
	}

	finish(cf, listenAddr)
}

// replay rebuilds the run a crash bundle describes and verifies the
// recorded trap reproduces: exit 0 only when the re-run traps and the trap
// matches the bundle's (same kind, PC, CPU); a clean completion or a
// different trap is a divergence (exit 1). With rebundle set, the re-run's
// own crash bundle is written for byte-level comparison with the original.
func replay(cf *cliflags.Set, path, rebundle string, quiet bool) {
	data, err := os.ReadFile(path)
	check(err)
	b, err := selfheal.DecodeBundle(data)
	check(err)
	opts, img, err := core.ReplayOptions(b)
	check(err)
	rt, err := core.New(img, append(opts, core.WithObs(cf.Scope()))...)
	check(err)
	_, runErr := rt.Run()

	tr, trapped := faults.As(runErr)
	if !trapped {
		if runErr != nil {
			check(runErr)
		}
		fmt.Fprintf(os.Stderr, "risotto: replay diverged: run completed cleanly, bundle recorded trap[%s]\n",
			b.Trap.Kind)
		os.Exit(1)
	}
	if rebundle != "" {
		nb, err := rt.CrashBundle(b.Tool, runErr)
		check(err)
		enc, err := nb.Encode()
		check(err)
		check(os.WriteFile(rebundle, enc, 0o644))
	}
	if !b.Trap.Matches(tr) {
		fmt.Fprintf(os.Stderr, "risotto: replay diverged: got %s, bundle recorded trap[%s] cpu=%d pc=%#x\n",
			tr.Error(), b.Trap.Kind, b.Trap.CPU, b.Trap.PC)
		os.Exit(1)
	}
	if !quiet {
		fmt.Printf("replay      %s reproduced: %s\n", path, tr.Error())
	}
}

// finish emits the -metrics and -trace outputs, then parks the process on
// the -listen endpoint when one is up (a finished run would otherwise tear
// the scrape target down immediately).
func finish(cf *cliflags.Set, listenAddr string) {
	check(cf.Finish(os.Stdout))
	if listenAddr != "" {
		fmt.Fprintln(os.Stderr, "risotto: run complete; endpoint stays up (interrupt to exit)")
		select {}
	}
}

// runGuest executes the guest. A structured trap (watchdog, injected or
// natural fault) prints the unified one-line report and exits with
// cliflags.TrapExitCode, distinct from usage (2) and internal (1) errors;
// with bundlePath set the trap is first serialized as a crash-triage
// bundle for -replay.
func runGuest(rt *core.Runtime, bundlePath string) uint64 {
	code, err := rt.Run()
	if err == nil {
		return code
	}
	if line, ok := cliflags.TrapReport("risotto", err); ok {
		if bundlePath != "" {
			if enc, berr := encodeCrashBundle(rt, err); berr != nil {
				fmt.Fprintln(os.Stderr, "risotto: crash bundle:", berr)
			} else if werr := os.WriteFile(bundlePath, enc, 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, "risotto: crash bundle:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "risotto: wrote crash bundle %s\n", bundlePath)
			}
		}
		fmt.Fprintln(os.Stderr, line)
		os.Exit(cliflags.TrapExitCode)
	}
	check(err)
	return 0
}

// encodeCrashBundle builds and serializes the crash-triage bundle for an
// unrecovered trap.
func encodeCrashBundle(rt *core.Runtime, runErr error) ([]byte, error) {
	b, err := rt.CrashBundle("risotto", runErr)
	if err != nil {
		return nil, err
	}
	return b.Encode()
}

func printStats(v core.Variant, code uint64, rt *core.Runtime) {
	st := rt.Stats()
	cycles := rt.M.MaxCycles()
	fmt.Printf("variant     %v\n", v)
	fmt.Printf("checksum    %d\n", code)
	fmt.Printf("cycles      %d (%.3f ms at 2 GHz)\n", cycles, float64(cycles)/bench.ClockHz*1e3)
	fmt.Printf("blocks      %d translated (%d guest bytes, %d host insts)\n",
		st.Blocks, st.GuestBytes, st.HostInsts)
	fmt.Printf("fences      DMBFF=%d DMBLD=%d DMBST=%d (static, per translated code)\n",
		st.DMBFull, st.DMBLoad, st.DMBStore)
	fmt.Printf("            DMBFF=%d DMBLD=%d DMBST=%d executed (dynamic)\n",
		rt.M.DMBExec[0], rt.M.DMBExec[1], rt.M.DMBExec[2])
	fmt.Printf("atomics     casal=%d exclusive-loops=%d helper-calls=%d\n",
		st.Casal, st.ExclLoop, st.HelperCalls)
	fmt.Printf("syscalls    %d, host-linked calls %d, chain patches %d\n",
		st.Syscalls, st.HostCalls, st.ChainPatches)
	if st.CacheFlushes > 0 {
		fmt.Printf("degradation %d code-cache flush-and-retranslate cycles\n", st.CacheFlushes)
	}
	if st.Quarantines > 0 || st.Divergences > 0 || st.Heals > 0 {
		fmt.Printf("selfheal    quarantines=%d demotions=%d divergences=%d heals=%d (selfchecks=%d, interp blocks=%d)\n",
			st.Quarantines, st.Demotions, st.Divergences, st.Heals,
			st.SelfChecks, st.InterpBlocks)
	}
	if st.Promotions > 0 {
		fmt.Printf("tierup      promotions=%d superblocks=%d (%d guest blocks) cross-block fence merges=%d\n",
			st.Promotions, st.Superblocks, st.SuperblockGuestBlocks, st.CrossBlockFenceMerges)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "risotto:", err)
		os.Exit(1)
	}
}

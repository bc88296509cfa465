// Package repro's top-level benchmarks regenerate every table and figure of
// the Risotto paper's evaluation (§7) as testing.B benchmarks, one target
// per figure:
//
//	go test -bench BenchmarkFig12 .   # Figure 12 (PARSEC + Phoenix)
//	go test -bench BenchmarkFig13 .   # Figure 13 (OpenSSL + sqlite linker)
//	go test -bench BenchmarkFig14 .   # Figure 14 (libm linker)
//	go test -bench BenchmarkFig15 .   # Figure 15 (CAS contention)
//	go test -bench BenchmarkTheorem1 .# §5.4 mapping verification
//	go test -bench BenchmarkAblation .# optimizer-pass ablations (§6.1)
//
// Each benchmark reports the simulated cycle count of one run as the
// "simcycles/op" metric — the quantity the paper's figures plot — while
// ns/op measures the simulator itself. For the formatted figures, use
// cmd/risobench.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/litmusgen"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/models/armcats"
	"repro/internal/models/x86tso"
	"repro/internal/obs"
	"repro/internal/portasm"
	"repro/internal/tcg"
	"repro/internal/workloads"
)

var fig12Variants = []core.Variant{
	core.VariantQemu, core.VariantNoFences, core.VariantTCGVer, core.VariantRisotto,
}

// benchGuest runs one prepared builder factory under a variant for b.N
// iterations, reporting simulated cycles.
func benchGuest(b *testing.B, build func() (*portasm.Builder, error), v core.Variant, idl string) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		pb, err := build()
		if err != nil {
			b.Fatal(err)
		}
		cyc, _, _, err := bench.RunGuest(pb, v, idl)
		if err != nil {
			b.Fatal(err)
		}
		cycles = cyc
	}
	b.ReportMetric(float64(cycles), "simcycles/op")
}

func benchNative(b *testing.B, build func() (*portasm.Builder, error)) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		pb, err := build()
		if err != nil {
			b.Fatal(err)
		}
		cyc, _, err := bench.RunNative(pb)
		if err != nil {
			b.Fatal(err)
		}
		cycles = cyc
	}
	b.ReportMetric(float64(cycles), "simcycles/op")
}

// BenchmarkFig12 regenerates Figure 12: every PARSEC/Phoenix kernel under
// the four DBT variants plus native execution.
func BenchmarkFig12(b *testing.B) {
	const threads, scale = 4, 1
	for _, k := range workloads.Registry() {
		k := k
		build := func() (*portasm.Builder, error) { return k.Build(threads, scale) }
		for _, v := range fig12Variants {
			v := v
			b.Run(k.Name+"/"+v.String(), func(b *testing.B) {
				benchGuest(b, build, v, "")
			})
		}
		b.Run(k.Name+"/native", func(b *testing.B) {
			benchNative(b, build)
		})
	}
}

// BenchmarkFig13 regenerates Figure 13: OpenSSL-like digests, RSA and the
// sqlite workload, translated (qemu) vs host-linked (risotto).
func BenchmarkFig13(b *testing.B) {
	type entry struct {
		name  string
		build func() (*portasm.Builder, error)
	}
	entries := []entry{
		{"md5-1024", func() (*portasm.Builder, error) { return workloads.DigestProgram("md5", 1024, 4) }},
		{"md5-8192", func() (*portasm.Builder, error) { return workloads.DigestProgram("md5", 8192, 2) }},
		{"rsa1024-sign", func() (*portasm.Builder, error) { return workloads.RSAProgram(1024, true, 2) }},
		{"rsa1024-verify", func() (*portasm.Builder, error) { return workloads.RSAProgram(1024, false, 8) }},
		{"rsa2048-sign", func() (*portasm.Builder, error) { return workloads.RSAProgram(2048, true, 1) }},
		{"rsa2048-verify", func() (*portasm.Builder, error) { return workloads.RSAProgram(2048, false, 8) }},
		{"sha1-1024", func() (*portasm.Builder, error) { return workloads.DigestProgram("sha1", 1024, 4) }},
		{"sha1-8192", func() (*portasm.Builder, error) { return workloads.DigestProgram("sha1", 8192, 2) }},
		{"sha256-1024", func() (*portasm.Builder, error) { return workloads.DigestProgram("sha256", 1024, 4) }},
		{"sha256-8192", func() (*portasm.Builder, error) { return workloads.DigestProgram("sha256", 8192, 2) }},
		{"sqlite", func() (*portasm.Builder, error) { return workloads.SqliteProgram(512, 2) }},
	}
	for _, e := range entries {
		e := e
		b.Run(e.name+"/qemu", func(b *testing.B) { benchGuest(b, e.build, core.VariantQemu, "") })
		b.Run(e.name+"/risotto-linked", func(b *testing.B) {
			benchGuest(b, e.build, core.VariantRisotto, workloads.IDLAll)
		})
	}
}

// BenchmarkFig14 regenerates Figure 14: the math library, translated
// soft-float vs host-linked libm.
func BenchmarkFig14(b *testing.B) {
	for _, fn := range workloads.MathNames() {
		fn := fn
		build := func() (*portasm.Builder, error) { return workloads.MathProgram(fn, 16) }
		b.Run(fn+"/qemu", func(b *testing.B) { benchGuest(b, build, core.VariantQemu, "") })
		b.Run(fn+"/risotto-linked", func(b *testing.B) {
			benchGuest(b, build, core.VariantRisotto, workloads.IDLAll)
		})
	}
}

// BenchmarkFig15 regenerates Figure 15: CAS throughput across contention
// configurations.
func BenchmarkFig15(b *testing.B) {
	const ops = 400
	for _, cfg := range workloads.Fig15Configs() {
		threads, vars := cfg[0], cfg[1]
		name := fmt.Sprintf("%dthreads-%dvars", threads, vars)
		build := func() (*portasm.Builder, error) { return workloads.CASBench(threads, vars, ops) }
		b.Run(name+"/qemu", func(b *testing.B) { benchGuest(b, build, core.VariantQemu, "") })
		b.Run(name+"/risotto", func(b *testing.B) { benchGuest(b, build, core.VariantRisotto, "") })
		b.Run(name+"/native", func(b *testing.B) { benchNative(b, build) })
	}
}

// BenchmarkTierUp measures the tier-up JIT: each kernel runs under the
// risotto variant with promotion off (every block stays at its start
// tier) and on (hot blocks promoted to superblocks by the dispatch that
// finds them hot). simcycles/op is the guest-visible cost the on/off ratio
// turns into the tier-up speedup — an exact figure in both modes, since
// promotion happens at a guest dispatch count; the on case also reports
// how many cross-block fence merges the superblocks recovered.
func BenchmarkTierUp(b *testing.B) {
	tierup := core.WithTierUp(core.TierUpConfig{
		Enabled: true, PromoteThreshold: 4, SuperblockMax: 4,
	})
	for _, kname := range []string{"fencechain", "kmeans"} {
		k, err := workloads.KernelByName(kname)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			opts []core.Option
		}{
			{"off", nil},
			{"on", []core.Option{tierup}},
		} {
			b.Run(kname+"/"+mode.name, func(b *testing.B) {
				var cycles, merges uint64
				for i := 0; i < b.N; i++ {
					// Scale 4 keeps the kernel running long enough that the
					// promoted code, not the cheap tier, dominates the run.
					pb, err := k.Build(2, 4)
					if err != nil {
						b.Fatal(err)
					}
					cyc, _, st, err := bench.RunGuest(pb, core.VariantRisotto, "", mode.opts...)
					if err != nil {
						b.Fatal(err)
					}
					cycles, merges = cyc, st.CrossBlockFenceMerges
				}
				b.ReportMetric(float64(cycles), "simcycles/op")
				if len(mode.opts) > 0 {
					b.ReportMetric(float64(merges), "xmerges/op")
				}
			})
		}
	}
}

// BenchmarkTheorem1 measures the mapping-verification sweep (§5.4): the
// full corpus through the verified x86→IR→Arm pipeline.
func BenchmarkTheorem1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range litmus.X86Corpus() {
			arm := mapping.ApplyRoute([]*mapping.Scheme{mapping.X86Verified, mapping.ArmVerified}, p)
			v := mapping.VerifyTheorem1(p, x86tso.New(), arm, armcats.New())
			if !v.Correct() {
				b.Fatalf("%s: verified mapping broken", p.Name)
			}
		}
	}
}

// sb3q is a three-thread store-buffering variant with one CAS per thread:
// each CAS contributes a success/failure choice bit, so the program has
// 2³ = 8 thread-skeleton combinations and a wide rf tree below each.
func sb3q() *litmus.Program {
	return &litmus.Program{
		Name: "SB3Q",
		Threads: [][]litmus.Op{
			{
				litmus.Store{Loc: "X", Val: 1},
				litmus.CAS{Loc: "U", Expect: 0, New: 1, Attr: litmus.Attr{Class: memmodel.RMWAmo}},
				litmus.Load{Dst: "a", Loc: "Y"},
				litmus.Load{Dst: "b", Loc: "Z"},
			},
			{
				litmus.Store{Loc: "Y", Val: 1},
				litmus.CAS{Loc: "V", Expect: 0, New: 1, Attr: litmus.Attr{Class: memmodel.RMWAmo}},
				litmus.Load{Dst: "c", Loc: "Z"},
				litmus.Load{Dst: "d", Loc: "X"},
			},
			{
				litmus.Store{Loc: "Z", Val: 1},
				litmus.CAS{Loc: "W", Expect: 0, New: 1, Attr: litmus.Attr{Class: memmodel.RMWAmo}},
				litmus.Load{Dst: "e", Loc: "X"},
				litmus.Load{Dst: "f", Loc: "Y"},
			},
		},
	}
}

// heavyRing is a five-thread Arm-level message-passing ring of casal
// RMWs from the generator: 2⁷ skeletons with a deep rf tree under each, a
// search of tens of ms, the heaviest enumeration the benchmarks time.
func heavyRing(b *testing.B) *litmus.Program {
	const name = "g.mp5.arm.t0g0e3e4.t1g6e4e4.t2g6e4e4.t3g6e4e4.t4g6e0e0"
	var prog *litmus.Program
	litmusgen.Stream(litmusgen.Config{Shapes: []string{"mp"}, MinThreads: 5, MaxThreads: 5,
		Levels: []litmusgen.Level{litmusgen.LevelArm}, MaxPerShape: 200},
		func(t *litmusgen.Test) bool {
			if t.Prog.Name == name {
				prog = t.Prog
			}
			return prog == nil
		})
	if prog == nil {
		b.Fatalf("generator no longer emits %s", name)
	}
	return prog
}

// BenchmarkEnumerate times the enumerator on a small multi-skeleton litmus
// program (sb3q under x86-TSO) and on a heavy one (heavyRing under
// Arm-Cats).
func BenchmarkEnumerate(b *testing.B) {
	run := func(name string, prog *litmus.Program, m memmodel.Model) {
		want := len(litmus.Outcomes(prog, m))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := litmus.Enumerate(prog, m)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != want {
					b.Fatalf("%d outcomes, Outcomes has %d", len(out), want)
				}
			}
		})
	}
	run("sb3q", sb3q(), x86tso.New())
	run("heavy", heavyRing(b), armcats.New())
}

// BenchmarkEnumerateInstrumented puts a number on the observability tax:
// the same enumeration as BenchmarkEnumerate/sb3q, once bare and once with
// a live obs scope (counters, duration histogram, span per enumeration).
// The ns/op ratio is the instrumentation overhead, which the nil-check
// design keeps in the noise (bare) and a handful of atomics (instrumented).
func BenchmarkEnumerateInstrumented(b *testing.B) {
	prog := sb3q()
	m := x86tso.New()
	serial := litmus.Outcomes(prog, m)
	run := func(b *testing.B, opts ...litmus.Option) {
		for i := 0; i < b.N; i++ {
			out, err := litmus.Enumerate(prog, m, opts...)
			if err != nil || len(out) != len(serial) {
				b.Fatalf("%d outcomes (err %v), serial has %d", len(out), err, len(serial))
			}
		}
	}
	b.Run("bare", func(b *testing.B) {
		run(b)
	})
	b.Run("obs", func(b *testing.B) {
		run(b, litmus.WithObs(obs.NewScope("")))
	})
}

// BenchmarkCampaignTest measures the campaign driver's unit of work: one
// generated litmus test through its full verdict pipeline (Theorem-1
// containment for x86-level tests, direct enumeration for Arm-level ones,
// plus the operational soundness check). The reported tests/s is the
// serial per-worker campaign throughput.
func BenchmarkCampaignTest(b *testing.B) {
	var tests []*litmusgen.Test
	litmusgen.Stream(litmusgen.Config{Seed: 1, MaxThreads: 2, MaxPerShape: 16},
		func(t *litmusgen.Test) bool { tests = append(tests, t); return true })
	if len(tests) == 0 {
		b.Fatal("generator emitted no tests")
	}
	cfg := campaign.Config{OpcheckSeeds: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := campaign.Check(cfg, tests[i%len(tests)])
		if rec.Verdict == campaign.VerdictFail {
			b.Fatalf("%s: %s", rec.Name, rec.Detail)
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "tests/s")
	}
}

// BenchmarkChaining measures translation-block chaining (QEMU's goto_tb,
// reproduced as an extension) on a memory-bound kernel.
func BenchmarkChaining(b *testing.B) {
	k, err := workloads.KernelByName("histogram")
	if err != nil {
		b.Fatal(err)
	}
	for _, chain := range []bool{false, true} {
		chain := chain
		name := "off"
		if chain {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				pb, err := k.Build(2, 1)
				if err != nil {
					b.Fatal(err)
				}
				img, err := pb.BuildGuest("main")
				if err != nil {
					b.Fatal(err)
				}
				rt, err := core.New(img, core.WithVariant(core.VariantRisotto), core.WithChain(chain))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rt.Run(); err != nil {
					b.Fatal(err)
				}
				cycles = rt.M.MaxCycles()
			}
			b.ReportMetric(float64(cycles), "simcycles/op")
		})
	}
}

// BenchmarkAblation isolates each optimizer pass's contribution (§6.1) on
// a store-heavy kernel under the verified mapping.
func BenchmarkAblation(b *testing.B) {
	k, err := workloads.KernelByName("freqmine")
	if err != nil {
		b.Fatal(err)
	}
	configs := map[string]tcg.OptConfig{
		"none":           {},
		"constprop":      {ConstProp: true},
		"+deadcode":      {ConstProp: true, DeadCode: true},
		"+accesselim":    {ConstProp: true, DeadCode: true, AccessElim: true},
		"+fencemerge":    tcg.DefaultOpt(),
		"fencemergeonly": {FenceMerge: true},
	}
	for name, opt := range configs {
		opt := opt
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				pb, err := k.Build(2, 1)
				if err != nil {
					b.Fatal(err)
				}
				img, err := pb.BuildGuest("main")
				if err != nil {
					b.Fatal(err)
				}
				rt, err := core.New(img, core.WithVariant(core.VariantRisotto), core.WithOptConfig(opt))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rt.Run(); err != nil {
					b.Fatal(err)
				}
				cycles = rt.M.MaxCycles()
			}
			b.ReportMetric(float64(cycles), "simcycles/op")
		})
	}
}

// BenchmarkExplore measures the operational exploration engine: one op is
// a complete sleep-set DPOR enumeration of SB against the op-ref model
// (every reachable final state visited, differentially checked). The
// reported states/s is the transition throughput and coverage% the share
// of axiomatically allowed outcomes reached — 100 for a healthy engine —
// reported with the bytes and allocations per op.
func BenchmarkExplore(b *testing.B) {
	p := litmus.SB()
	states := 0
	coverage := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := explore.Run(p, explore.Config{Mode: explore.ModeDPOR})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) > 0 {
			b.Fatalf("exploration violation: %s", res.Violations[0].Reason)
		}
		states += res.States
		coverage = res.Coverage()
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(states)/s, "states/s")
	}
	b.ReportMetric(coverage, "coverage%")
}

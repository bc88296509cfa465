package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/guestimg"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/portasm"
	"repro/internal/tcg"
	"repro/internal/workloads"
)

// guest is one program of a DBT workload's set, with its reference results.
type guest struct {
	name string
	img  *guestimg.Image
	// native is the same program emitted for the host and run by the
	// interpreter alone; nil for a guest that calls through the PLT, which
	// has no native emission.
	native *guestimg.Image
	idl    string
	// wantExit is the exit checksum of the native run (of the qemu
	// variant's, without one); qemuCycles is the qemu variant's figure.
	wantExit   uint64
	qemuCycles uint64
}

// dbt is the hotloop (cold=false) or coldcode (cold=true) workload: one
// iteration is core.New+Run, risotto variant, of every guest in the set.
type dbt struct {
	p      params
	cold   bool
	guests []*guest
}

func newDBT(p params, cold bool) *dbt { return &dbt{p: p, cold: cold} }

func (d *dbt) close() error { return nil }

// The risotto variant's public configurations, for the replay of the
// translation pipeline (core.newRuntime sets the same).
var (
	replayFrontend = frontend.Config{Scheme: mapping.X86Verified, CAS: frontend.CASInline}
	replayBackend  = backend.Config{CAS: backend.CASCasal}
)

func (d *dbt) setup() error {
	rng := rand.New(rand.NewSource(d.p.seed))
	type entry struct {
		name, idl string
		b         *portasm.Builder
		err       error
	}
	var set []entry
	if d.cold {
		blocks := coldBlocks
		if d.p.smoke {
			blocks = 200
		}
		set = []entry{{name: "coldgen", b: coldProgram(d.p.seed, blocks)}}
	} else {
		kernel := func(name string) entry {
			k, err := workloads.KernelByName(name)
			if err != nil {
				return entry{name: name, err: err}
			}
			b, err := k.Build(2, 1)
			return entry{name: name, b: b, err: err}
		}
		// The Fig-12 kernels take no seed; the seed sizes the Fig-15 and
		// Fig-13 guests within a few percent and orders the set. The digest
		// guest exits with the xor of its calls' results, and the host
		// library's sha256 is not the guest fallback's simplified one, so
		// only an even number of calls has a checksum both variants share.
		casOps, shaCalls := 2000+rng.Intn(100), 16+2*rng.Intn(3)
		if d.p.smoke {
			casOps, shaCalls = 200, 2
		}
		cas, cerr := workloads.CASBench(2, 1, casOps)
		sha, serr := workloads.DigestProgram("sha256", 1024, shaCalls)
		set = []entry{
			kernel("histogram"),
			{name: "casbench", b: cas, err: cerr},
			{name: "sha256", b: sha, err: serr, idl: workloads.IDLAll},
		}
		if !d.p.smoke {
			set = append(set, kernel("kmeans"), kernel("freqmine"))
		}
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	}

	d.guests = nil
	for _, e := range set {
		if e.err != nil {
			return fmt.Errorf("%s: %w", e.name, e.err)
		}
		g := &guest{name: e.name, idl: e.idl}
		var err error
		if g.img, err = e.b.BuildGuest("main"); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		// References: the native image through the interpreter alone is
		// an independent path to the checksum; the qemu variant is the
		// other, and the base of the paper's speedup figure.
		qrt, qexit, err := runGuest(g, core.VariantQemu)
		if err != nil {
			return fmt.Errorf("%s/qemu: %w", e.name, err)
		}
		g.wantExit, g.qemuCycles = qexit, qrt.M.MaxCycles()
		if e.idl == "" {
			if g.native, err = e.b.BuildNative("main"); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			m, err := portasm.RunNative(g.native, 0)
			if err != nil {
				return fmt.Errorf("%s/native: %w", e.name, err)
			}
			if nexit := m.CPUs[0].ExitCode; nexit != qexit {
				return fmt.Errorf("%s: native run exits %d, qemu variant %d", e.name, nexit, qexit)
			}
		}
		// One risotto run warms the process before the timed loop.
		if _, exit, err := runGuest(g, core.VariantRisotto); err != nil || exit != g.wantExit {
			return fmt.Errorf("%s/risotto: exit %d, want %d (err %v)", e.name, exit, g.wantExit, err)
		}
		d.guests = append(d.guests, g)
	}
	return nil
}

// runGuest is core.New+Run of g under a variant.
func runGuest(g *guest, v core.Variant) (*core.Runtime, uint64, error) {
	rt, err := core.New(g.img, core.WithVariant(v), core.WithHostLinker(g.idl, nil))
	if err != nil {
		return nil, 0, err
	}
	exit, err := rt.Run()
	return rt, exit, err
}

func (d *dbt) loop(stop stopFn) (*sample, error) {
	s := &sample{}
	var exact exactCheck
	var cycles uint64
	for it := 0; !stop(it); it++ {
		t0 := time.Now()
		ok := true
		cycles = 0
		for _, g := range d.guests {
			rt, exit, err := runGuest(g, core.VariantRisotto)
			if err != nil || exit != g.wantExit {
				ok = false
				continue
			}
			st := rt.Stats()
			exact.observe(g.name, rt.M.MaxCycles(), rt.M.TotalInsts(), st.Blocks, st.HostInsts)
			cycles += rt.M.MaxCycles()
		}
		wall := ms(time.Since(t0))
		s.windows = append(s.windows, window{wallMS: wall, opMS: []float64{wall}, units: float64(len(d.guests))})
		if !ok {
			s.failed++
		}
	}
	s.exactCost = float64(cycles)
	s.mismatches = exact.mismatches
	return s, nil
}

// traced runs each guest under spans, then replays what Run hides: every
// translated block again through frontend.Translate, tcg.Optimize and
// backend.Generate with the variant's public configurations, and the guest's
// native image through the interpreter alone for the cost of one simulated
// instruction. core's own share is what is left of New+Run.
func (d *dbt) traced(tr *tracer, stop stopFn, lm layers) error {
	var exact exactCheck
	failed := 0
	perGuestMS := map[string][]float64{}
	var nsPerInst, qemuMS []float64
	var counts map[string]float64
	var simInsts float64
	speedup := 1.0

	it := 0
	for ; !stop(it); it++ {
		counts = map[string]float64{}
		simInsts = 0
		var nativeNS, nativeInsts float64
		logSpeedup := 0.0
		for _, g := range d.guests {
			op := tr.begin(0, it, "op")
			var rt *core.Runtime
			var exit uint64
			var err error
			tr.do(op, it, "core.new", func() {
				rt, err = core.New(g.img, core.WithVariant(core.VariantRisotto), core.WithHostLinker(g.idl, nil))
			})
			if err != nil {
				return fmt.Errorf("%s: %w", g.name, err)
			}
			tr.do(op, it, "core.exec", func() { exit, err = rt.Run() })
			opMS := tr.end(op)
			if err != nil || exit != g.wantExit {
				failed++
				continue
			}
			perGuestMS[g.name] = append(perGuestMS[g.name], opMS)
			st := rt.Stats()
			cyc := rt.M.MaxCycles()
			simInsts += float64(rt.M.TotalInsts())
			lm["machine.sim_cycles."+g.name] = float64(cyc)
			lm["machine.sim_cycles_qemu."+g.name] = float64(g.qemuCycles)
			logSpeedup += math.Log(float64(g.qemuCycles) / float64(cyc))
			counts["core.blocks"] += float64(st.Blocks)
			counts["core.host_calls"] += float64(st.HostCalls)

			rep, err := replayTranslation(tr, it, rt)
			if err != nil {
				return fmt.Errorf("%s: replay: %w", g.name, err)
			}
			for k, v := range rep {
				counts[k] += v
			}
			if uint64(rep["backend.host_insts"]) != st.HostInsts {
				failed++
			}
			exact.observe(g.name, cyc, rt.M.TotalInsts(), st.Blocks, st.HostInsts,
				uint64(rep["tcg.ir_insts_out"]), uint64(rep["backend.host_insts"]))

			if g.native != nil {
				var m *machine.Machine
				nms := tr.do(0, it, "machine.native", func() { m, err = portasm.RunNative(g.native, 0) })
				if err != nil || m.CPUs[0].ExitCode != g.wantExit {
					failed++
					continue
				}
				// RunNative builds its machine first; a machine built alone
				// is taken off, to leave the interpreter.
				newMS := tr.do(0, it, "machine.new", func() { machine.New(portasm.NativeMemSize) })
				nativeNS += (nms - newMS) * 1e6
				nativeInsts += float64(m.TotalInsts())
			}
		}
		if nativeInsts > 0 {
			nsPerInst = append(nsPerInst, nativeNS/nativeInsts)
		}
		speedup = math.Exp(logSpeedup / float64(len(d.guests)))

		// The qemu variant's wall-clock, next to its cycles; its results
		// are checked against the references like any other run.
		q := tr.begin(0, it, "core.run_qemu")
		for _, g := range d.guests {
			rt, exit, err := runGuest(g, core.VariantQemu)
			if err != nil || exit != g.wantExit {
				failed++
				continue
			}
			if rt.M.MaxCycles() != g.qemuCycles {
				exact.mismatches++
			}
		}
		qemuMS = append(qemuMS, tr.end(q))
	}

	for k, v := range counts {
		lm[k] = v
	}
	for name, v := range perGuestMS {
		lm["core.run_ms."+name] = quiet(v)
	}
	run := quiet(tr.perIter("op"))
	decode := quiet(tr.perIter("frontend.translate"))
	opt := quiet(tr.perIter("tcg.optimize"))
	emit := quiet(tr.perIter("backend.generate"))
	coreNew := quiet(tr.perIter("core.new"))
	perInst := quiet(nsPerInst)
	mach := simInsts * perInst / 1e6
	self := run - decode - opt - emit - mach
	lm["core.run_ms"] = run
	lm["core.run_ms_qemu"] = quiet(qemuMS)
	lm["core.new_ms"] = coreNew
	lm["core.self_ms"] = self
	lm["core.remainder_ms"] = self - coreNew
	lm["core.sim_speedup_vs_qemu"] = speedup
	lm["frontend.decode_ms"] = decode
	lm["tcg.opt_ms"] = opt
	lm["backend.emit_ms"] = emit
	lm["machine.new_ms"] = quiet(tr.durations("machine.new"))
	lm["machine.ns_per_siminst"] = perInst
	lm["machine.sim_insts"] = simInsts
	lm["hostlib.calls"] = lm["core.host_calls"]
	if perInst > 0 {
		lm["machine.siminst_per_s"] = 1e9 / perInst
	}
	if b := lm["frontend.guest_bytes"]; b > 0 {
		lm["frontend.ns_per_guest_byte"] = decode * 1e6 / b
	}
	if b := lm["frontend.blocks"]; b > 0 {
		lm["tcg.opt_us_per_block"] = opt * 1e3 / b
	}
	if run > 0 {
		lm["frontend.share"] = decode / run
		lm["tcg.share"] = opt / run
		lm["backend.share"] = emit / run
		lm["machine.share"] = mach / run
		lm["core.self_share"] = self / run
		lm["core.remainder_share"] = (self - coreNew) / run
	}
	lm["harness.failed"] += float64(failed)
	lm["harness.determinism_mismatches"] += float64(exact.mismatches)

	fmt.Printf("attribution of core.run_ms (New+Run of the set, quiet decile of %d traced iterations)\n", it)
	row := func(name string, v float64) { fmt.Printf("  %-46s %10.3f ms %6.1f%%\n", name, v, v/run*100) }
	row("frontend.Translate (replayed)", decode)
	row("tcg.Optimize (replayed)", opt)
	row("backend.Generate (replayed)", emit)
	row("machine (sim_insts x ns_per_siminst)", mach)
	row("core.New (measured)", coreNew)
	row("remainder (core dispatch, hooks; unexplained)", self-coreNew)
	row("core.run_ms", run)
	return nil
}

// replayTranslation translates every block rt translated once more, from
// outside, under spans, and returns the exact counts of the three layers.
func replayTranslation(tr *tracer, it int, rt *core.Runtime) (map[string]float64, error) {
	c := map[string]float64{}
	rep := tr.begin(0, it, "replay")
	defer tr.end(rep)
	for _, pc := range rt.BlockPCs() {
		var blk *tcg.Block
		var err error
		tr.do(rep, it, "frontend.translate", func() { blk, err = frontend.Translate(rt.M.Mem, pc, replayFrontend) })
		if err != nil {
			return nil, err
		}
		c["frontend.blocks"]++
		c["frontend.guest_bytes"] += float64(blk.GuestEnd - blk.GuestPC)
		c["tcg.ir_insts_in"] += float64(len(blk.Insts))
		c["tcg.fences_in"] += float64(blk.CountOp(tcg.OpMb))
		tr.do(rep, it, "tcg.optimize", func() { tcg.Optimize(blk, tcg.DefaultOpt()) })
		c["tcg.ir_insts_out"] += float64(len(blk.Insts))
		c["tcg.fences_out"] += float64(blk.CountOp(tcg.OpMb))
		var st backend.Stats
		tr.do(rep, it, "backend.generate", func() { _, st, err = backend.Generate(blk, 0, replayBackend) })
		if err != nil {
			return nil, err
		}
		c["backend.host_insts"] += float64(st.Insts)
		c["backend.dmb_full"] += float64(st.DMBFull)
		c["backend.dmb_ld"] += float64(st.DMBLoad)
		c["backend.dmb_st"] += float64(st.DMBStore)
		c["backend.casal"] += float64(st.Casal)
	}
	return c, nil
}

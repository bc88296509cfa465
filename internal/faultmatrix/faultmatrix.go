// Package faultmatrix is the differential fault-injection driver: it runs
// a small corpus of known-answer guest workloads under every injectable
// fault and classifies each (workload, fault) cell. A cell is acceptable
// iff the degraded run either matches the fault-free result exactly (the
// runtime recovered) or halts with a well-formed structured trap; silent
// wrong answers, untyped errors, panics and hangs are failures. The litmus
// half does the same for the parallel enumerator: an injected worker panic
// must degrade to the serial outcome set, never change it.
package faultmatrix

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/hostlib"
	"repro/internal/isa/x86"
	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/models"
)

// Workload is one guest program with a known fault-free result.
type Workload struct {
	Name    string
	Image   *guestimg.Image
	Want    uint64
	Variant core.Variant
	// IDL and Lib, when set, enable the host linker (exercises the
	// host-call fault site).
	IDL string
	Lib *hostlib.Library
}

// Outcome classifies one matrix cell.
type Outcome int

const (
	// OK: the run completed and matched the fault-free result.
	OK Outcome = iota
	// Trapped: the run halted with a well-formed structured trap.
	Trapped
	// Bad: silent wrong result, untyped error, or a panic.
	Bad
)

var outcomeNames = []string{"ok", "trapped", "bad"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome?%d", int(o))
}

// Result is one (workload, fault) cell of the matrix.
type Result struct {
	Workload string
	Fault    string
	Outcome  Outcome
	// Detail explains Bad outcomes and carries the trap text for Trapped.
	Detail string
	// Trap is the structured trap for Trapped cells.
	Trap *faults.Trap
	// Flushes counts flush-and-retranslate recoveries during the run.
	Flushes int
	// Quarantines and Divergences count self-healing activity (always 0
	// for cells produced by Run, which keeps healing off so injected
	// faults surface undisguised).
	Quarantines int
	Divergences int
}

// exitWith emits the guest exit syscall with the code in reg.
func exitWith(a *x86.Assembler, reg x86.Reg) {
	a.MovRR(x86.RDI, reg).
		MovRI(x86.RAX, core.GuestSysExit).
		Syscall()
}

// sumLoopWorkload stores then reloads squares in a loop; exercises decode,
// memory and step sites.
func sumLoopWorkload() (Workload, error) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	buf := b.Zeros(16 * 8)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RSI, int64(buf)).
		MovRI(x86.RCX, 0).
		MovRI(x86.RAX, 0).
		Label("loop").
		Store(x86.MemIdx(x86.RSI, x86.RCX, 8, 0), x86.RCX, 8).
		Load(x86.RBX, x86.MemIdx(x86.RSI, x86.RCX, 8, 0), 8).
		AddRR(x86.RAX, x86.RBX).
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 16).
		Jcc(x86.CondNE, "loop")
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		return Workload{}, err
	}
	// sum 0..15
	return Workload{Name: "sum-loop", Image: img, Want: 120, Variant: core.VariantRisotto}, nil
}

// casWorkload runs a success-then-failure cmpxchg pair; exercises the
// atomic paths.
func casWorkload() (Workload, error) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	cell := b.Zeros(8)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RSI, int64(cell)).
		MovRI(x86.RAX, 0).
		MovRI(x86.RBX, 7).
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8).
		MovRI(x86.RAX, 0).
		MovRI(x86.RBX, 9).
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8)
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		return Workload{}, err
	}
	// Second CAS fails and leaves the old value (7) in RAX.
	return Workload{Name: "cas", Image: img, Want: 7, Variant: core.VariantRisotto}, nil
}

// hostCallWorkload calls a host-linked import; exercises the host-call
// site.
func hostCallWorkload() (Workload, error) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	b.Import("triple")
	a := b.Asm
	a.Label("main").
		MovRI(x86.RDI, 14).
		Call("triple@plt").
		Jmp("done").
		Label("triple"). // guest fallback, never linked here
		MovRR(x86.RAX, x86.RDI).
		Ret().
		Label("done")
	exitWith(a, x86.RAX)
	img, err := b.Build("main")
	if err != nil {
		return Workload{}, err
	}
	lib := hostlib.New()
	lib.Register("triple", func(mem hostlib.Memory, args []uint64) (uint64, uint64) {
		return args[0] * 3, 10
	})
	return Workload{
		Name: "host-call", Image: img, Want: 42, Variant: core.VariantRisotto,
		IDL: "i64 triple(i64 x);\n", Lib: lib,
	}, nil
}

// Workloads builds the known-answer corpus the matrix sweeps.
func Workloads() ([]Workload, error) {
	var ws []Workload
	for _, build := range []func() (Workload, error){
		sumLoopWorkload, casWorkload, hostCallWorkload,
	} {
		w, err := build()
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// Run executes one matrix cell: workload w with the named fault armed.
// Hangs are excluded by construction: every run carries a step budget and
// a wall-clock deadline, and a panic anywhere in the stack is captured
// into a Bad cell. Self-healing stays off so every injected fault's
// undisguised trap is pinned.
func Run(w Workload, faultName string) Result {
	return run(w, faultName, false)
}

// RunHealed is Run with the self-healing layer enabled (SelfHeal +
// SelfCheck): the cell is expected to *recover* — quarantine the faulting
// block, demote its tier, and still produce the fault-free result.
func RunHealed(w Workload, faultName string) Result {
	return run(w, faultName, true)
}

func run(w Workload, faultName string, heal bool) (res Result) {
	res = Result{Workload: w.Name, Fault: faultName}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = Bad
			res.Detail = fmt.Sprintf("panic: %v", r)
		}
	}()

	in := faults.NewInjector(1)
	if faultName != "" {
		spec, err := faults.ParseSpec(faultName)
		if err != nil {
			res.Outcome = Bad
			res.Detail = err.Error()
			return res
		}
		spec.Arm(in)
	}

	rt, err := core.New(w.Image,
		core.WithVariant(w.Variant),
		core.WithHostLinker(w.IDL, w.Lib),
		core.WithStepBudget(5_000_000),
		core.WithDeadline(30*time.Second),
		core.WithFaults(in),
		core.WithSelfHeal(heal),
		core.WithSelfCheck(heal),
	)
	if err != nil {
		res.Outcome = Bad
		res.Detail = fmt.Sprintf("runtime construction: %v", err)
		return res
	}
	code, err := rt.Run()
	st := rt.Stats()
	res.Flushes = int(st.CacheFlushes)
	res.Quarantines = int(st.Quarantines)
	res.Divergences = int(st.Divergences)
	if err == nil {
		if code != w.Want {
			res.Outcome = Bad
			res.Detail = fmt.Sprintf("silent wrong result: exit %d, want %d", code, w.Want)
			return res
		}
		res.Outcome = OK
		return res
	}
	tr, ok := faults.As(err)
	if !ok {
		res.Outcome = Bad
		res.Detail = fmt.Sprintf("untyped error: %v", err)
		return res
	}
	if tr.Error() == "" {
		res.Outcome = Bad
		res.Detail = "trap renders empty"
		return res
	}
	res.Outcome = Trapped
	res.Trap = tr
	res.Detail = tr.Error()
	return res
}

// Matrix sweeps every workload under every injectable fault (plus a
// fault-free control column, named "") and returns all cells.
func Matrix() ([]Result, error) {
	ws, err := Workloads()
	if err != nil {
		return nil, err
	}
	names := append([]string{""}, faults.SpecNames()...)
	var out []Result
	for _, w := range ws {
		for _, n := range names {
			out = append(out, Run(w, n))
		}
	}
	return out, nil
}

// HealMatrix sweeps every workload under injected translation corruption
// with the self-healing layer on: each cell must detect the miscompile
// (selfcheck divergence or executed marker), quarantine the block, and
// still finish with the fault-free result.
func HealMatrix() ([]Result, error) {
	ws, err := Workloads()
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, w := range ws {
		out = append(out, RunHealed(w, "miscompile"))
	}
	return out, nil
}

// RunLitmusNamed is RunLitmus with the model resolved by name through the
// default registry; an unknown name is itself a Bad cell (the matrix must
// not silently skip a misspelled model).
func RunLitmusNamed(p *litmus.Program, model string) Result {
	m, err := models.Default().Lookup(model)
	if err != nil {
		return Result{Workload: "litmus:" + p.Name, Fault: "shard-panic",
			Outcome: Bad, Detail: err.Error()}
	}
	return RunLitmus(p, m)
}

// RunLitmus checks one litmus differential cell: enumeration with an
// injected worker-shard panic must equal the serial reference set.
func RunLitmus(p *litmus.Program, m memmodel.Model) Result {
	res := Result{Workload: "litmus:" + p.Name, Fault: "shard-panic"}
	in := faults.NewInjector(1)
	in.Arm(faults.SiteLitmusShard, 1, faults.TrapWorkerPanic)

	want := litmus.Outcomes(p, m)
	got, err := litmus.Enumerate(p, m, litmus.WithWorkers(4), litmus.WithInjector(in))
	if err != nil {
		tr, ok := faults.As(err)
		if !ok {
			res.Outcome = Bad
			res.Detail = fmt.Sprintf("untyped error: %v", err)
			return res
		}
		res.Outcome = Trapped
		res.Trap = tr
		res.Detail = tr.Error()
		return res
	}
	ws, gs := want.Sorted(), got.Sorted()
	if len(ws) != len(gs) {
		res.Outcome = Bad
		res.Detail = fmt.Sprintf("degraded set has %d outcomes, serial %d", len(gs), len(ws))
		return res
	}
	for i := range ws {
		if ws[i] != gs[i] {
			res.Outcome = Bad
			res.Detail = fmt.Sprintf("outcome[%d] = %q, serial %q", i, gs[i], ws[i])
			return res
		}
	}
	res.Outcome = OK
	return res
}

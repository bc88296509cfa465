// Package faultmatrix holds the differential fault-injection matrix as
// black-box tests: a small corpus of known-answer guests runs under every
// -fault name through the public constructor (core.New) and the injector
// the CLIs build (faults.ParseInjector), and each (guest, fault) cell must
// either match the fault-free result or halt with a well-formed structured
// trap; silent wrong answers, untyped errors and panics fail. The litmus
// half does the same for the parallel enumerator. The directory has no
// non-test code; core's TestFaultSweepGolden pins each cell's counters.
package faultmatrix

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/hostlib"
	"repro/internal/isa/x86"
	"repro/internal/litmus"
	"repro/internal/models"
)

// workload is one guest program with a known fault-free exit code.
type workload struct {
	name string
	img  *guestimg.Image
	want uint64
	// idl, when set, host-links the guest's imports against a library
	// that provides triple (the host-call fault site).
	idl string
}

// workloads builds the known-answer corpus: a store/reload loop (decode,
// memory and step sites), a success-then-failure cmpxchg pair (the atomic
// path) and a host-linked call (the host-call site).
func workloads(t *testing.T) []workload {
	t.Helper()
	exit := func(b *guestimg.Builder) *guestimg.Image {
		b.Asm.MovRR(x86.RDI, x86.RAX).MovRI(x86.RAX, core.GuestSysExit).Syscall()
		img, err := b.Build("main")
		if err != nil {
			t.Fatal(err)
		}
		return img
	}

	sum := guestimg.NewBuilder(0x10000, 0x40000)
	buf := sum.Zeros(16 * 8)
	sum.Asm.Label("main").
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

	cas := guestimg.NewBuilder(0x10000, 0x40000)
	cell := cas.Zeros(8)
	cas.Asm.Label("main").
		MovRI(x86.RSI, int64(cell)).
		MovRI(x86.RAX, 0).
		MovRI(x86.RBX, 7).
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8).
		MovRI(x86.RAX, 0).
		MovRI(x86.RBX, 9).
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8)

	host := guestimg.NewBuilder(0x10000, 0x40000)
	host.Import("triple")
	host.Asm.Label("main").
		MovRI(x86.RDI, 14).
		Call("triple@plt").
		Jmp("done").
		Label("triple"). // guest fallback, never linked here
		MovRR(x86.RAX, x86.RDI).
		Ret().
		Label("done")

	return []workload{
		{name: "sum-loop", img: exit(sum), want: 120}, // sum 0..15
		// The second CAS fails and leaves the old value (7) in RAX.
		{name: "cas", img: exit(cas), want: 7},
		{name: "host-call", img: exit(host), want: 42, idl: "i64 triple(i64 x);\n"},
	}
}

// run executes w with the -fault list spec armed ("" arms nothing). Every
// run carries a step budget and a deadline, so a hang is a trap; a panic
// fails the test. heal turns on self-healing and self-checking.
func run(t *testing.T, w workload, spec string, heal bool) (uint64, error, core.Stats) {
	t.Helper()
	in, err := faults.ParseInjector(spec)
	if err != nil {
		t.Fatal(err)
	}
	lib := hostlib.New()
	lib.Register("triple", func(mem hostlib.Memory, args []uint64) (uint64, uint64) {
		return args[0] * 3, 10
	})
	rt, err := core.New(w.img,
		core.WithVariant(core.VariantRisotto),
		core.WithHostLinker(w.idl, lib),
		core.WithStepBudget(5_000_000),
		core.WithDeadline(30*time.Second),
		core.WithFaults(in),
		core.WithSelfHeal(heal),
		core.WithSelfCheck(heal),
	)
	if err != nil {
		t.Fatalf("%s/%s: runtime construction: %v", w.name, spec, err)
	}
	code, err := rt.Run()
	return code, err, rt.Stats()
}

// TestFaultMatrixDifferential sweeps every workload under every fault and
// checks each cell: either the degraded run equals the fault-free one, or
// it halts with the right structured trap.
func TestFaultMatrixDifferential(t *testing.T) {
	for _, w := range workloads(t) {
		for _, name := range append([]string{""}, faults.SpecNames()...) {
			label := w.name + "/" + name
			code, err, st := run(t, w, name, false)
			tr, typed := faults.As(err)
			switch {
			case err == nil && code != w.want:
				t.Errorf("%s: silent wrong result: exit %d, want %d", label, code, w.want)
			case err != nil && !typed:
				t.Errorf("%s: untyped error: %v", label, err)
			case err != nil && tr.Error() == "":
				t.Errorf("%s: trap renders empty", label)
			case name == "":
				if err != nil {
					t.Errorf("%s: control run did not complete: %v", label, err)
				}
			case name == "cache-exhaust":
				// Injected exhaustion must be absorbed by a flush, not
				// kill the guest.
				if err != nil {
					t.Errorf("%s: exhaustion not recovered: %v", label, err)
				} else if st.CacheFlushes == 0 {
					t.Errorf("%s: recovered without any flush recorded", label)
				}
			case name == "shard-panic", name == "cache-corrupt", name == "job-panic",
				name == "host-call" && w.idl == "":
				// No such site in this run (litmus shards, the daemon's
				// persistent cache and its job workers, or a guest with
				// no host-linked import): the run must be unaffected.
				if err != nil {
					t.Errorf("%s: inert fault changed the run: %v", label, err)
				}
			default:
				sp, perr := faults.ParseSpec(name)
				if perr != nil {
					t.Fatal(perr)
				}
				if err == nil {
					t.Errorf("%s: want a %s trap, run finished with exit %d", label, sp.Kind, code)
				} else if tr.Kind != sp.Kind || !tr.Injected {
					t.Errorf("%s: trap = %v, want an injected %s trap", label, err, sp.Kind)
				}
			}
		}
	}
}

// TestFaultMatrixHealed is the recovery half of the miscompile story: the
// injected translation corruption that traps every workload in the plain
// matrix must, with self-healing on, be quarantined and survived.
func TestFaultMatrixHealed(t *testing.T) {
	for _, w := range workloads(t) {
		label := w.name + "/miscompile(healed)"
		code, err, st := run(t, w, "miscompile", true)
		if err != nil || code != w.want {
			t.Errorf("%s: corruption not recovered: exit %d, %v; want exit %d", label, code, err, w.want)
		} else if st.Quarantines == 0 {
			t.Errorf("%s: recovered without quarantining any block", label)
		}
	}
}

// TestFaultMatrixLitmus checks the enumerator half through the -fault name
// litmusctl arms: for every x86 corpus program under x86-TSO and Arm, an
// injected worker-shard panic must leave the outcome set exactly equal to
// the serial reference.
func TestFaultMatrixLitmus(t *testing.T) {
	for _, model := range []string{"x86-TSO", "arm"} {
		m, err := models.Default().Lookup(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range litmus.X86Corpus() {
			in, err := faults.ParseInjector("shard-panic")
			if err != nil {
				t.Fatal(err)
			}
			got, err := litmus.Enumerate(p, m, litmus.WithWorkers(4), litmus.WithInjector(in))
			if err != nil {
				t.Errorf("%s/%s under injected shard panic: %v", p.Name, model, err)
				continue
			}
			if in.Count(faults.SiteLitmusShard) == 0 {
				t.Errorf("%s/%s: shard-panic never reached the shard site", p.Name, model)
			}
			if ws, gs := litmus.Outcomes(p, m).Sorted(), got.Sorted(); !slices.Equal(ws, gs) {
				t.Errorf("%s/%s: degraded outcomes %q, serial %q", p.Name, model, gs, ws)
			}
		}
	}
}

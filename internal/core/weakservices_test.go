package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/isa/x86"
	"repro/internal/machine"
	"repro/internal/portasm"
	"repro/internal/workloads"
)

// The runtime's services — host calls, RMW helpers, the write syscall —
// act on guest memory for a CPU whose weak-mode store buffer may still
// hold its recent stores. These tests pin that they see those stores, and
// that a guest with one running thread, which has no weak behaviours to
// exhibit, computes under weak memory exactly what it computes strongly.

// outcome is what a run leaves behind that a one-thread guest's memory
// model must not change.
type outcome struct {
	exit, hostCalls, blocks uint64
	segments                []byte // final bytes of every image segment
}

// outcomeMem is the memory size of the machines runOutcome runs on.
const outcomeMem = 4 << 20

// runOutcome runs img on m, a machine of outcomeMem bytes that the test
// reuses from run to run (core.WithMachine resets it).
func runOutcome(t *testing.T, m *machine.Machine, img *guestimg.Image, opts ...Option) outcome {
	t.Helper()
	rt, err := New(img, append(opts, WithMachine(m), WithMemSize(outcomeMem), WithStepBudget(50_000_000))...)
	if err != nil {
		t.Fatal(err)
	}
	exit, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	o := outcome{exit: exit, hostCalls: st.HostCalls, blocks: st.Blocks}
	for _, s := range img.Segments {
		o.segments = append(o.segments, rt.M.Mem[s.Addr:s.Addr+uint64(len(s.Data))]...)
	}
	return o
}

func (o outcome) String() string {
	return fmt.Sprintf("exit=%d host_calls=%d blocks=%d", o.exit, o.hostCalls, o.blocks)
}

// guestOf returns a function that builds a workload constructor's result
// into a guest image, failing t on any error.
func guestOf(t *testing.T) func(*portasm.Builder, error) *guestimg.Image {
	return func(b *portasm.Builder, err error) *guestimg.Image {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		img, err := b.BuildGuest("main")
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
}

// TestWeakHostCallSeesCallersPush: a host-linked call reads its return
// address from the guest stack, where the caller's CALL pushed it. The
// push may still sit in the caller's store buffer; read past it, the slot
// is 0, dispatch slides from PC 0 through zero-filled memory into the
// image and main runs again — one host call and a thousand blocks more,
// with the right exit code.
func TestWeakHostCallSeesCallersPush(t *testing.T) {
	img := guestOf(t)(workloads.DigestProgram("md5", 1024, 3))
	opts := []Option{WithVariant(VariantRisotto), WithHostLinker(workloads.IDLAll, nil)}
	m := machine.New(outcomeMem)
	strong := runOutcome(t, m, img, opts...)
	if strong.hostCalls != 3 {
		t.Fatalf("strong run: %v, want 3 host calls", strong)
	}
	for seed := int64(0); seed < 12; seed++ {
		if weak := runOutcome(t, m, img, append(opts, WithWeakMemory(seed))...); weak.String() != strong.String() {
			t.Errorf("seed %d: weak %v, strong %v", seed, weak, strong)
		}
	}
}

// TestWeakHelperRMWSeesOwnStore: `st [x],1; xadd [x],1; exit [x]` exits 2.
// The helper-call RMW (qemu, no-fences, tcg-ver) must drain the CPU's
// buffer first, as casal does: otherwise it adds to the 0 in memory and
// the older buffered store of 1 drains over its result.
func TestWeakHelperRMWSeesOwnStore(t *testing.T) {
	const x, one, val = portasm.Reg(0), portasm.Reg(1), portasm.Reg(2)
	b := portasm.NewBuilder()
	cell := b.Zeros(8)
	b.Label("main").
		MovI(x, int64(cell)).
		MovI(one, 1).
		St(x, 0, one, 8).
		XAdd(x, one).
		Ld(val, x, 0, 8).
		Exit(val)
	img := guestOf(t)(b, nil)
	m := machine.New(outcomeMem)
	for _, v := range allVariants {
		for seed := int64(0); seed < 32; seed++ {
			if got := runOutcome(t, m, img, WithVariant(v), WithWeakMemory(seed)).exit; got != 2 {
				t.Errorf("%v seed %d: exit %d, want 2", v, seed, got)
			}
		}
	}
}

// TestWeakWriteSyscallSeesOwnStores: the write syscall prints the bytes
// its caller just stored, not what memory holds while they are buffered.
func TestWeakWriteSyscallSeesOwnStores(t *testing.T) {
	const buf, word, n = portasm.Reg(0), portasm.Reg(1), portasm.Reg(2)
	const msg = "weak ok\n"
	b := portasm.NewBuilder()
	cell := b.Zeros(8)
	b.Label("main").
		MovI(buf, int64(cell)).
		MovI(word, int64(binary.LittleEndian.Uint64([]byte(msg)))).
		St(buf, 0, word, 8).
		MovI(n, int64(len(msg))).
		Write(buf, n).
		MovI(n, 0).
		Exit(n)
	img := guestOf(t)(b, nil)
	for _, v := range allVariants {
		for seed := int64(0); seed < 32; seed++ {
			rt, err := New(img, WithVariant(v), WithWeakMemory(seed))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if got := string(rt.M.Output); got != msg {
				t.Errorf("%v seed %d: wrote %q, want %q", v, seed, got, msg)
			}
		}
	}
}

// TestUnmappedGuestPCTraps: control reaching a guest PC in no image
// segment — a return to 0, a jump past the image's end — is a typed
// unmapped trap naming the CPU and the PC, not a decode of zero-filled
// memory as NOPs.
func TestUnmappedGuestPCTraps(t *testing.T) {
	const far = 0x100000
	for _, c := range []struct {
		name   string
		target uint64
		emit   func(a *x86.Assembler)
	}{
		{"ret to 0", 0, func(a *x86.Assembler) { a.MovRI(x86.RAX, 0).Push(x86.RAX).Ret() }},
		{"call past the image", far, func(a *x86.Assembler) { a.MovRI(x86.RAX, far).CallR(x86.RAX) }},
	} {
		b := guestimg.NewBuilder(0x10000, 0x40000)
		b.Zeros(64)
		b.Asm.Label("main")
		c.emit(b.Asm)
		img, err := b.Build("main")
		if err != nil {
			t.Fatal(err)
		}
		if c.target != 0 && c.target < img.MaxAddr() {
			t.Fatalf("%s: target %#x inside the image (ends %#x)", c.name, c.target, img.MaxAddr())
		}
		for _, v := range allVariants {
			rt, err := New(img, WithVariant(v), WithStepBudget(1_000_000))
			if err != nil {
				t.Fatal(err)
			}
			_, err = rt.Run()
			tr, ok := faults.As(err)
			if !ok || tr.Kind != faults.TrapUnmapped {
				t.Fatalf("%s, %v: error %v, want an unmapped trap", c.name, v, err)
			}
			if tr.CPU != 0 || !tr.GuestPC || tr.PC != c.target {
				t.Errorf("%s, %v: trap cpu=%d guest_pc=%v pc=%#x, want cpu 0 at guest pc %#x",
					c.name, v, tr.CPU, tr.GuestPC, tr.PC, c.target)
			}
		}
	}
}

// TestWeakSingleThreadEqualsStrong is the oracle for the weak-mode
// runtime: a guest with one running thread has no weak behaviour to show,
// so under WithWeakMemory its exit code, host calls, blocks translated and
// final image memory must equal the strong run's — for every variant, the
// Figure-12 kernels at one thread, the library programs with and without
// the host linker, and CASBench at one thread. (The kernels and CASBench
// spawn their one worker from main, which then only waits in join.)
func TestWeakSingleThreadEqualsStrong(t *testing.T) {
	type guest struct {
		name  string
		img   *guestimg.Image
		idl   string
		seeds int64
	}
	build := guestOf(t)
	var guests []guest
	for _, k := range workloads.Registry() {
		guests = append(guests, guest{k.Name, build(k.Build(1, 1)), "", 4})
	}
	for _, l := range []struct {
		name string
		img  *guestimg.Image
	}{
		{"md5", build(workloads.DigestProgram("md5", 1024, 3))},
		{"sha1", build(workloads.DigestProgram("sha1", 256, 3))},
		{"sha256", build(workloads.DigestProgram("sha256", 256, 3))},
		{"rsa", build(workloads.RSAProgram(1024, false, 3))},
		{"sqlite", build(workloads.SqliteProgram(64, 3))},
		{"sin", build(workloads.MathProgram("sin", 3))},
	} {
		guests = append(guests, guest{l.name, l.img, "", 32}, guest{l.name + "+idl", l.img, workloads.IDLAll, 32})
	}
	guests = append(guests, guest{"casbench", build(workloads.CASBench(1, 1, 64)), "", 32})

	m := machine.New(outcomeMem)
	for _, g := range guests {
		for _, v := range allVariants {
			// The host linker is Risotto's (§6.2): under the other
			// variants an IDL changes nothing, so those runs would repeat
			// the unlinked ones.
			if g.idl != "" && v != VariantRisotto {
				continue
			}
			opts := []Option{WithVariant(v), WithHostLinker(g.idl, nil)}
			strong := runOutcome(t, m, g.img, opts...)
			for seed := int64(0); seed < g.seeds; seed++ {
				weak := runOutcome(t, m, g.img, append(opts, WithWeakMemory(seed))...)
				if weak.String() != strong.String() {
					t.Errorf("%s %v seed %d: weak %v, strong %v", g.name, v, seed, weak, strong)
				} else if !bytes.Equal(weak.segments, strong.segments) {
					t.Errorf("%s %v seed %d: final image memory differs from the strong run's", g.name, v, seed)
				}
			}
		}
	}
}

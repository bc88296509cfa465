// Weakhost: execute the DBT's *generated code* on the operational
// weak-memory host (store buffers with out-of-order drain) and watch the
// paper's story play out: the no-fences translation of message passing
// exhibits the reordering x86 forbids, while the QEMU and verified
// translations' fences eliminate it.
//
//	go run ./examples/weakhost
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/guestimg"
	"repro/internal/isa/x86"
)

// buildMP builds guest message passing: a writer thread storing X then Y,
// and the main thread spinning on Y then reading X. Exit code = (a<<1)|b.
func buildMP() (*guestimg.Image, error) {
	b := guestimg.NewBuilder(0x10000, 0x40000)
	x := b.Zeros(8)
	y := b.Zeros(8)
	w := b.Zeros(8) // the writer's private cell
	a := b.Asm

	a.Label("writer").
		MovRI(x86.RSI, int64(x)).
		MovRI(x86.RBX, 1).
		Store(x86.Mem0(x86.RSI), x86.RBX, 8).
		MovRI(x86.RDI, int64(y)).
		Store(x86.Mem0(x86.RDI), x86.RBX, 8).
		// Stay alive a while, so the stores drain on the host's schedule
		// rather than at the synchronizing thread exit: each private load
		// is a point at which the host may drain.
		MovRI(x86.RCX, 0).
		MovRI(x86.RDX, int64(w)).
		Label("busy").
		Load(x86.R8, x86.Mem0(x86.RDX), 8).
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 40).
		Jcc(x86.CondNE, "busy").
		MovRI(x86.RDI, 0).
		MovRI(x86.RAX, core.GuestSysExit).
		Syscall()

	a.Label("main").
		MovSym(x86.RDI, "writer").
		MovRI(x86.RSI, 0).
		MovRI(x86.RAX, core.GuestSysSpawn).
		Syscall().
		MovRR(x86.R12, x86.RAX).
		MovRI(x86.RCX, 0).
		MovRI(x86.RDX, int64(y)).
		Label("spin").
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 3000).
		Jcc(x86.CondA, "giveup").
		Load(x86.RBX, x86.Mem0(x86.RDX), 8).
		CmpRI(x86.RBX, 1).
		Jcc(x86.CondNE, "spin").
		Label("giveup").
		MovRI(x86.RDX, int64(x)).
		Load(x86.R9, x86.Mem0(x86.RDX), 8).
		MovRR(x86.RDI, x86.R12).
		MovRI(x86.RAX, core.GuestSysJoin).
		Syscall().
		MovRR(x86.RDI, x86.RBX).
		ShlRI(x86.RDI, 1).
		OrRR(x86.RDI, x86.R9).
		MovRI(x86.RAX, core.GuestSysExit).
		Syscall()

	return b.Build("main")
}

func main() {
	img, err := buildMP()
	if err != nil {
		log.Fatal(err)
	}
	const seeds = 80
	fmt.Printf("message passing on the weak host, %d seeds per variant:\n\n", seeds)
	fmt.Printf("%-11s %14s %s\n", "variant", "weak outcomes", "verdict")
	for _, v := range []core.Variant{
		core.VariantNoFences, core.VariantQemu, core.VariantTCGVer, core.VariantRisotto,
	} {
		weak := 0
		for seed := int64(0); seed < seeds; seed++ {
			rt, err := core.New(img,
				core.WithVariant(v), core.WithWeakMemory(seed))
			if err != nil {
				log.Fatal(err)
			}
			code, err := rt.Run()
			if err != nil {
				log.Fatal(err)
			}
			if code>>1 == 1 && code&1 == 0 { // a=1, b=0
				weak++
			}
		}
		verdict := "correct: fences order the stores"
		if weak > 0 {
			verdict = "INCORRECT: x86-forbidden outcome observed"
		}
		fmt.Printf("%-11v %10d/%d    %s\n", v, weak, seeds, verdict)
	}
	fmt.Println("\n(the axiomatic counterpart of this experiment: go run ./examples/litmus)")
}

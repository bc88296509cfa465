package mapping_test

import (
	"fmt"

	"repro/internal/litmus"
	"repro/internal/mapping"
	"repro/internal/models/armcats"
	"repro/internal/models/x86tso"
)

// ExampleVerifyTheorem1 reproduces the paper's MPQ finding: QEMU's
// translation introduces a behaviour x86 forbids; Risotto's verified
// translation does not.
func ExampleVerifyTheorem1() {
	mpq := litmus.MPQ()

	qemu := mapping.ApplyRoute([]*mapping.Scheme{mapping.X86Qemu, mapping.ArmQemuCasal}, mpq)
	v := mapping.VerifyTheorem1(mpq, x86tso.New(), qemu, armcats.New())
	fmt.Println("QEMU translation correct:", v.Correct())

	riso := mapping.ApplyRoute([]*mapping.Scheme{mapping.X86Verified, mapping.ArmVerified}, mpq)
	v = mapping.VerifyTheorem1(mpq, x86tso.New(), riso, armcats.New())
	fmt.Println("Risotto translation correct:", v.Correct())
	// Output:
	// QEMU translation correct: false
	// Risotto translation correct: true
}

// ExampleScheme_Apply shows the verified Figure-7a mapping on a load-store
// pair: trailing Frm after the load, leading Fww before the store.
func ExampleScheme_Apply() {
	p := &litmus.Program{
		Name: "tiny",
		Threads: [][]litmus.Op{{
			litmus.Load{Dst: "a", Loc: "X"},
			litmus.Store{Loc: "Y", Val: 1},
		}},
	}
	ir := mapping.X86Verified.Apply(p)
	for _, op := range ir.Threads[0] {
		fmt.Printf("%T\n", op)
	}
	// Output:
	// litmus.Load
	// litmus.Fence
	// litmus.Fence
	// litmus.Store
}

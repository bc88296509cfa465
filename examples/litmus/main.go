// Litmus: walk through the paper's §3 counterexamples with the axiomatic
// model checker — QEMU's MPQ translation error, and the Armed-Cats casal
// error on SBAL.
//
//	go run ./examples/litmus
package main

import (
	"fmt"

	"repro/internal/litmus"
	"repro/internal/mapping"
	"repro/internal/models/armcats"
	"repro/internal/models/x86tso"
)

func main() {
	// --- MPQ (§3.2) -----------------------------------------------------
	mpq := litmus.MPQ()
	fmt.Println("MPQ: x86 forbids a=1 with a failed RMW (X stays 1):")
	x86Out := litmus.Outcomes(mpq, x86tso.New())
	fmt.Printf("  x86 allows a=1,X=1?  %v\n", x86Out.Contains("1:a=1", "X=1"))

	qemuArm := mapping.ApplyRoute([]*mapping.Scheme{mapping.X86Qemu, mapping.ArmQemuCasal}, mpq)
	armOut := litmus.Outcomes(qemuArm, armcats.New())
	fmt.Printf("  QEMU-translated Arm allows a=1,X=1?  %v   ← the bug\n",
		armOut.Contains("1:a=1", "X=1"))

	risoArm := mapping.ApplyRoute([]*mapping.Scheme{mapping.X86Verified, mapping.ArmVerified}, mpq)
	risoOut := litmus.Outcomes(risoArm, armcats.New())
	fmt.Printf("  Risotto-translated Arm allows a=1,X=1?  %v   ← fixed by the trailing Frm\n\n",
		risoOut.Contains("1:a=1", "X=1"))

	// --- SBAL (§3.3) ----------------------------------------------------
	sbal := litmus.SBAL()
	sbalArm := litmus.SBALArm()
	fmt.Println("SBAL: casal must behave like x86 RMW (full fence):")
	fmt.Printf("  x86 allows a=b=0?  %v\n",
		litmus.Outcomes(sbal, x86tso.New()).Contains("0:a=0", "1:b=0"))
	fmt.Printf("  original Arm-Cats allows a=b=0?  %v   ← the model error Risotto reported\n",
		litmus.Outcomes(sbalArm, armcats.NewVariant(armcats.Original)).Contains("0:a=0", "1:b=0"))
	fmt.Printf("  corrected Arm-Cats allows a=b=0?  %v   ← after the accepted strengthening\n\n",
		litmus.Outcomes(sbalArm, armcats.New()).Contains("0:a=0", "1:b=0"))

	// --- Theorem 1 over the corpus ---------------------------------------
	fmt.Println("Theorem 1 (behaviour containment) for the verified end-to-end mapping:")
	for _, p := range litmus.X86Corpus() {
		arm := mapping.ApplyRoute([]*mapping.Scheme{mapping.X86Verified, mapping.ArmVerified}, p)
		v := mapping.VerifyTheorem1(p, x86tso.New(), arm, armcats.New())
		fmt.Printf("  %-12s correct=%v\n", p.Name, v.Correct())
	}
}

package bench

import (
	"fmt"
	"strings"

	"repro/internal/litmus"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/models"
)

// MotivationReport reproduces the §3 correctness findings as an executable
// check: QEMU's translation errors on MPQ and SBQ, the original
// Armed-Cats casal error on SBAL and its fix, and the FMR counterexample
// against RAW elimination under Fmr. opts tune every enumeration the sweep
// performs (workers, cache, observability, fault injection).
func MotivationReport(opts ...litmus.Option) string {
	var sb strings.Builder
	sb.WriteString("§3 motivation — translation errors found by the model checker\n\n")

	report := func(title string, v mapping.Verification, expectError bool) {
		status := "correct"
		if !v.Correct() {
			status = fmt.Sprintf("ERROR: %d new behaviour(s), e.g. %v",
				len(v.NewBehaviours), v.NewBehaviours[0])
		}
		check := "✓ matches paper"
		if v.Correct() == expectError {
			check = "✗ DOES NOT match paper"
		}
		fmt.Fprintf(&sb, "%-58s %s\n    %s → %s [%s → %s]\n\n",
			title, check, v.Source, v.Target, v.SourceModel, v.TargetModel)
		fmt.Fprintf(&sb, "    %s\n\n", status)
	}

	// QEMU's MPQ error (RMW1^AL helper, GCC ≥ 10).
	mpq := mapping.ApplyRoute([]*mapping.Scheme{mapping.X86Qemu, mapping.ArmQemuCasal}, litmus.MPQ())
	report("QEMU x86→Arm of MPQ (casal helper): expected erroneous",
		mapping.VerifyTheorem1(litmus.MPQ(), models.ByLevel(memmodel.LevelX86), mpq, models.ByLevel(memmodel.LevelArm), opts...), true)

	// QEMU's SBQ error (RMW2^AL helper, GCC 9).
	sbq := mapping.ApplyRoute([]*mapping.Scheme{mapping.X86Qemu, mapping.ArmQemuLxSx}, litmus.SBQ())
	report("QEMU x86→Arm of SBQ (ldaxr/stlxr helper): expected erroneous",
		mapping.VerifyTheorem1(litmus.SBQ(), models.ByLevel(memmodel.LevelX86), sbq, models.ByLevel(memmodel.LevelArm), opts...), true)

	// Armed-Cats original-model SBAL error (Figure 3 mapping).
	report("Figure-3 mapping of SBAL under ORIGINAL Arm-Cats: expected erroneous",
		mapping.VerifyTheorem1(litmus.SBAL(), models.ByLevel(memmodel.LevelX86), litmus.SBALArm(),
			models.MustLookup("arm-cats-original"), opts...), true)
	report("Figure-3 mapping of SBAL under CORRECTED Arm-Cats: expected correct",
		mapping.VerifyTheorem1(litmus.SBAL(), models.ByLevel(memmodel.LevelX86), litmus.SBALArm(),
			models.ByLevel(memmodel.LevelArm), opts...), false)

	// FMR: RAW transformation under Fmr.
	report("RAW elimination under Fmr (FMR example): expected erroneous",
		mapping.VerifyTheorem1(litmus.FMRSource(), models.ByLevel(memmodel.LevelTCG), litmus.FMRTarget(),
			models.ByLevel(memmodel.LevelTCG), opts...), true)

	// Risotto's verified end-to-end translations of the same programs.
	for _, p := range []*litmus.Program{litmus.MPQ(), litmus.SBQ(), litmus.SBAL()} {
		arm := mapping.ApplyRoute([]*mapping.Scheme{mapping.X86Verified, mapping.ArmVerified}, p)
		report(fmt.Sprintf("Risotto verified x86→Arm of %s: expected correct", p.Name),
			mapping.VerifyTheorem1(p, models.ByLevel(memmodel.LevelX86), arm, models.ByLevel(memmodel.LevelArm), opts...), false)
	}
	return sb.String()
}

// VerifyReport runs Theorem 1 for the verified mapping schemes over the
// whole corpus — the executable form of §5.4's mechanized proofs. opts
// tune every enumeration the sweep performs.
func VerifyReport(opts ...litmus.Option) string {
	var sb strings.Builder
	sb.WriteString("§5.4 verified mappings — Theorem 1 over the litmus corpus\n\n")
	lowerings := []struct {
		name string
		tab  *mapping.Scheme
	}{
		{"RMW1^AL (casal)", mapping.ArmVerified},
		{"DMBFF;RMW2;DMBFF", mapping.ArmVerifiedLxSx},
	}
	allOK := true
	for _, lw := range lowerings {
		fmt.Fprintf(&sb, "RMW lowering: %s\n", lw.name)
		for _, p := range litmus.X86Corpus() {
			ir := mapping.X86Verified.Apply(p)
			v1 := mapping.VerifyTheorem1(p, models.ByLevel(memmodel.LevelX86), ir, models.ByLevel(memmodel.LevelTCG), opts...)
			arm := lw.tab.Apply(ir)
			v2 := mapping.VerifyTheorem1(ir, models.ByLevel(memmodel.LevelTCG), arm, models.ByLevel(memmodel.LevelArm), opts...)
			v3 := mapping.VerifyTheorem1(p, models.ByLevel(memmodel.LevelX86), arm, models.ByLevel(memmodel.LevelArm), opts...)
			ok := v1.Correct() && v2.Correct() && v3.Correct()
			if !ok {
				allOK = false
			}
			fmt.Fprintf(&sb, "  %-12s x86→IR %-5v IR→Arm %-5v x86→Arm %-5v\n",
				p.Name, v1.Correct(), v2.Correct(), v3.Correct())
		}
	}
	fmt.Fprintf(&sb, "\nall correct: %v\n", allOK)
	return sb.String()
}

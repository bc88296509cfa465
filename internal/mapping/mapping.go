// Package mapping holds the translation (mapping) schemes between the
// instruction levels of the Risotto paper — x86, TCG IR and Arm, plus the
// SPARC and IMM side levels — as data, together with the executable form
// of Theorem 1 (behaviour containment).
//
// A Scheme is one table: the fences it places around a load and a store,
// how it rewrites the source level's fences, and how it translates an
// RMW. The package-level values below *are* the paper's figures —
// Figure 2 (QEMU), Figure 7a (x86→IR) and Figure 7b (IR→Arm) — and each
// is written once: Scheme.Apply is what Theorem 1 is checked on, and
// internal/frontend and internal/backend emit code by reading the same
// values, so the table the matrix verifies is the table the DBT runs.
package mapping

import (
	"fmt"
	"maps"

	"repro/internal/litmus"
	"repro/internal/memmodel"
)

// X86Scheme selects the x86→TCG IR mapping.
type X86Scheme int

const (
	// X86Qemu is QEMU's original scheme (leading Fmr/Fmw fences, with the
	// documented Frr demotion for x86 guests).
	X86Qemu X86Scheme = iota
	// X86Verified is Risotto's verified scheme (Figure 7a).
	X86Verified
	// X86NoFences emits no fences at all (incorrect; performance oracle).
	X86NoFences
)

// RMWStyle selects how a TCG RMW is lowered to Arm.
type RMWStyle int

const (
	// RMWCasal lowers to the single casal instruction (RMW1^AL).
	RMWCasal RMWStyle = iota
	// RMWExclusiveFenced lowers to DMBFF; RMW2; DMBFF (verified scheme's
	// exclusive-pair option).
	RMWExclusiveFenced
	// RMWHelperCasal models QEMU's helper call compiled by GCC ≥ 10:
	// a bare RMW1^AL with no surrounding fences.
	RMWHelperCasal
	// RMWHelperExclusiveAL models QEMU's helper call compiled by GCC 9:
	// a bare RMW2^AL (ldaxr/stlxr) with no surrounding fences.
	RMWHelperExclusiveAL
)

// ArmScheme selects the TCG IR→Arm mapping.
type ArmScheme int

const (
	// ArmQemu is QEMU's fence lowering.
	ArmQemu ArmScheme = iota
	// ArmVerified is Risotto's verified lowering (Figure 7b).
	ArmVerified
)

// irRMW is every x86→IR scheme's RMW rule: the RMW stays one IR-level RMW
// with SC semantics (QEMU routes it through a helper, but at the IR level
// the helper is an opaque SC atomic; the divergence appears in the Arm
// lowering).
var irRMW = RMWRule{Attr: litmus.Attr{SC: true}}

// mfenceToFsc is the fence column shared by the x86→IR schemes.
var mfenceToFsc = map[memmodel.Fence]memmodel.Fence{memmodel.FenceMFENCE: memmodel.FenceFsc}

// The x86→IR tables.
var (
	// x86ToTCGVerified is Figure 7a: ld;Frm and Fww;st — Risotto's minimal
	// verified scheme, trailing load fences and leading store fences.
	x86ToTCGVerified = &Scheme{
		Name: "x86→tcg/verified", Src: memmodel.LevelX86, Dst: memmodel.LevelTCG, Verified: true,
		Load:   Placement{After: memmodel.FenceFrm},
		Store:  Placement{Before: memmodel.FenceFww},
		Fences: mfenceToFsc,
		RMW:    irRMW,
	}
	// x86ToTCGQemu is Figure 2's x86→IR half: Fmr;ld (demoted to Frr;ld
	// for x86 guests, §3.1) and Fmw;st — leading fences only, so nothing
	// orders a load with a po-later failed RMW (MPQ).
	x86ToTCGQemu = &Scheme{
		Name: "x86→tcg/qemu", Src: memmodel.LevelX86, Dst: memmodel.LevelTCG,
		Load:   Placement{Before: memmodel.FenceFrr},
		Store:  Placement{Before: memmodel.FenceFmw},
		Fences: mfenceToFsc,
		RMW:    irRMW,
	}
	// x86ToTCGNoFences places nothing (the paper's incorrect-but-fast
	// oracle); it is not registered, so no route goes through it.
	x86ToTCGNoFences = &Scheme{
		Name: "x86→tcg/no-fences", Src: memmodel.LevelX86, Dst: memmodel.LevelTCG,
		Fences: mfenceToFsc,
		RMW:    irRMW,
	}
)

// The IR→Arm fence columns. Facq/Frel lower to nothing.
var (
	// figure7bFences is Figure 7b's: the read fences become DMBLD, Fww
	// becomes DMBST, everything ordering a write with a later read DMBFF.
	figure7bFences = map[memmodel.Fence]memmodel.Fence{
		memmodel.FenceFrr: memmodel.FenceDMBLD, memmodel.FenceFrw: memmodel.FenceDMBLD,
		memmodel.FenceFrm: memmodel.FenceDMBLD,
		memmodel.FenceFww: memmodel.FenceDMBST,
		memmodel.FenceFwr: memmodel.FenceDMBFF, memmodel.FenceFwm: memmodel.FenceDMBFF,
		memmodel.FenceFmr: memmodel.FenceDMBFF, memmodel.FenceFmw: memmodel.FenceDMBFF,
		memmodel.FenceFmm: memmodel.FenceDMBFF, memmodel.FenceFsc: memmodel.FenceDMBFF,
		memmodel.FenceFacq: memmodel.FenceNone, memmodel.FenceFrel: memmodel.FenceNone,
	}
	// figure2Fences is QEMU's (Figure 2): the same without DMBST.
	figure2Fences = func() map[memmodel.Fence]memmodel.Fence {
		m := maps.Clone(figure7bFences)
		m[memmodel.FenceFww] = memmodel.FenceDMBFF
		return m
	}()
)

// The IR→Arm tables: plain accesses stay plain; they differ in the fence
// column and the RMW rule.
var (
	// tcgToArmVerified is Figure 7b with the RMW1^AL lowering (casal).
	tcgToArmVerified = &Scheme{
		Name: "tcg→arm/verified", Src: memmodel.LevelTCG, Dst: memmodel.LevelArm, Verified: true,
		Fences: figure7bFences,
		RMW:    RMWRule{Attr: litmus.Attr{Acq: true, Rel: true, Class: memmodel.RMWAmo}},
	}
	// tcgToArmVerifiedLxSx is Figure 7b with DMBFF;RMW2;DMBFF.
	tcgToArmVerifiedLxSx = &Scheme{
		Name: "tcg→arm/verified-lxsx", Src: memmodel.LevelTCG, Dst: memmodel.LevelArm, Verified: true,
		Fences: figure7bFences,
		RMW: RMWRule{Before: memmodel.FenceDMBFF, Attr: litmus.Attr{Class: memmodel.RMWLxSx},
			After: memmodel.FenceDMBFF},
	}
	// tcgToArmQemuCasal is Figure 2 with the helper call GCC ≥ 10
	// compiles: a bare RMW1^AL, no surrounding fences (§3.2, MPQ).
	tcgToArmQemuCasal = &Scheme{
		Name: "tcg→arm/qemu-casal", Src: memmodel.LevelTCG, Dst: memmodel.LevelArm,
		Fences: figure2Fences,
		RMW:    RMWRule{Attr: litmus.Attr{Acq: true, Rel: true, Class: memmodel.RMWAmo}},
	}
	// tcgToArmQemuLxSx is Figure 2 with the helper call GCC 9 compiles: a
	// bare RMW2^AL (ldaxr/stlxr), no surrounding fences (§3.2, SBQ).
	tcgToArmQemuLxSx = &Scheme{
		Name: "tcg→arm/qemu-lxsx", Src: memmodel.LevelTCG, Dst: memmodel.LevelArm,
		Fences: figure2Fences,
		RMW:    RMWRule{Attr: litmus.Attr{Acq: true, Rel: true, Class: memmodel.RMWLxSx}},
	}
)

var x86Tables = map[X86Scheme]*Scheme{
	X86Qemu: x86ToTCGQemu, X86Verified: x86ToTCGVerified, X86NoFences: x86ToTCGNoFences,
}

// Table returns the x86→IR table s names — what X86ToTCG applies and what
// internal/frontend emits from. It panics on a value that is none of the
// three constants.
func (s X86Scheme) Table() *Scheme {
	if t := x86Tables[s]; t != nil {
		return t
	}
	panic(fmt.Sprintf("mapping: no x86→IR table for X86Scheme(%d)", s))
}

var armTables = map[ArmScheme]map[RMWStyle]*Scheme{
	ArmVerified: {RMWCasal: tcgToArmVerified, RMWExclusiveFenced: tcgToArmVerifiedLxSx},
	ArmQemu:     {RMWHelperCasal: tcgToArmQemuCasal, RMWHelperExclusiveAL: tcgToArmQemuLxSx},
}

// ArmTable returns the IR→Arm table pairing a fence column with an RMW
// lowering — what TCGToArm applies and what internal/backend emits from.
// Only the four pairs the paper discusses exist — ArmVerified with RMWCasal
// or RMWExclusiveFenced, ArmQemu with RMWHelperCasal or
// RMWHelperExclusiveAL; any other pair is nil.
func ArmTable(as ArmScheme, rmw RMWStyle) *Scheme { return armTables[as][rmw] }

// X86ToTCG translates an x86-level litmus program to the TCG IR level.
func X86ToTCG(p *litmus.Program, scheme X86Scheme) *litmus.Program {
	return scheme.Table().Apply(p)
}

// TCGToArm translates a TCG-level litmus program to the Arm level. It
// panics, naming the pair, when ArmTable has no table for (scheme, rmw).
func TCGToArm(p *litmus.Program, scheme ArmScheme, rmw RMWStyle) *litmus.Program {
	tab := ArmTable(scheme, rmw)
	if tab == nil {
		panic(fmt.Sprintf("mapping: no IR→Arm table pairs ArmScheme(%d) with RMWStyle(%d)", scheme, rmw))
	}
	return tab.Apply(p)
}

// X86ToArm composes the two mapping steps; the pairs TCGToArm rejects it
// rejects too.
func X86ToArm(p *litmus.Program, xs X86Scheme, as ArmScheme, rmw RMWStyle) *litmus.Program {
	return TCGToArm(X86ToTCG(p, xs), as, rmw)
}

// TranslateVerified runs src through Risotto's verified chain (Figure 7)
// with the given RMW lowering style, returning both the intermediate TCG
// program and the final Arm program. The Arm program is derived from the
// returned TCG program, so campaign drivers checking both Theorem-1 legs
// translate once per leg instead of re-running the x86 step.
func TranslateVerified(src *litmus.Program, rmw RMWStyle) (tcg, arm *litmus.Program) {
	tcg = X86ToTCG(src, X86Verified)
	arm = TCGToArm(tcg, ArmVerified, rmw)
	return tcg, arm
}

// Verification is the result of one Theorem-1 check.
type Verification struct {
	// Source and Target name the programs compared.
	Source, Target string
	// SourceModel and TargetModel name the models used.
	SourceModel, TargetModel string
	// NewBehaviours lists target outcomes absent from the source — empty
	// iff the mapping is correct for this program.
	NewBehaviours []litmus.Outcome
	// Err, when non-nil, reports that an outcome set could not be
	// enumerated — the enumeration panicked, or a program reads a
	// register it never assigned — and names the program.
	// NewBehaviours is then meaningless.
	Err error
}

// Correct reports whether the translation introduced no new behaviour. A
// verification that failed to enumerate is never correct.
func (v Verification) Correct() bool { return v.Err == nil && len(v.NewBehaviours) == 0 }

// VerifyTheorem1 checks behaviour containment: every outcome of tgt under
// mt must be an outcome of src under ms. Outcome sets are computed through
// the process-wide cache, so sweeping one source program against several
// candidate translations enumerates it only once. Enumeration failures (a
// panicked enumeration) surface in the result's Err instead of crashing the
// sweep. Additional litmus options (a different cache, an observability
// scope, a fault injector) may be appended; they are applied on top of the
// default cache.
func VerifyTheorem1(src *litmus.Program, ms memmodel.Model, tgt *litmus.Program, mt memmodel.Model, opts ...litmus.Option) Verification {
	v := Verification{
		Source:      src.Name,
		Target:      tgt.Name,
		SourceModel: ms.Name(),
		TargetModel: mt.Name(),
	}
	all := append([]litmus.Option{litmus.WithCache(litmus.DefaultCache)}, opts...)
	srcOut, err := litmus.Enumerate(src, ms, all...)
	if err != nil {
		v.Err = fmt.Errorf("mapping: enumerating source %q under %s: %w", src.Name, ms.Name(), err)
		return v
	}
	tgtOut, err := litmus.Enumerate(tgt, mt, all...)
	if err != nil {
		v.Err = fmt.Errorf("mapping: enumerating target %q under %s: %w", tgt.Name, mt.Name(), err)
		return v
	}
	v.NewBehaviours = tgtOut.Minus(srcOut)
	return v
}

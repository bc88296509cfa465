package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/litmus"
	"repro/internal/models/armcats"
	"repro/internal/models/tcgmm"
	"repro/internal/models/x86tso"
)

// Cross-model monotonicity: for plain-access programs (no fences, no
// RMWs), the three models form a strength chain —
//
//	x86-TSO  ⊑  Armed-Cats  ⊑  TCG-IR
//
// x86 orders all but store-load pairs; Arm orders only dependencies,
// coherence and barriers; the TCG IR orders nothing at all for plain
// accesses (§5.3). So outcome sets must be nested. This property is
// checked over randomly generated programs.

// randPlainProgram builds a random 2-thread program of loads, stores and
// register-to-store dataflow over three locations.
func randPlainProgram(rng *rand.Rand) *litmus.Program {
	locs := []litmus.Loc{"X", "Y", "Z"}
	p := &litmus.Program{Name: "rand"}
	regN := 0
	for t := 0; t < 2; t++ {
		var ops []litmus.Op
		var defined []litmus.Reg
		n := 2 + rng.Intn(3)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				r := litmus.Reg(string(rune('a' + regN)))
				regN++
				ops = append(ops, litmus.Load{Dst: r, Loc: locs[rng.Intn(3)]})
				defined = append(defined, r)
			case 2:
				ops = append(ops, litmus.Store{
					Loc: locs[rng.Intn(3)], Val: int64(1 + rng.Intn(3)),
				})
			case 3:
				if len(defined) == 0 {
					ops = append(ops, litmus.Store{Loc: locs[rng.Intn(3)], Val: 7})
					break
				}
				ops = append(ops, litmus.StoreReg{
					Loc: locs[rng.Intn(3)],
					Src: defined[rng.Intn(len(defined))],
				})
			}
		}
		p.Threads = append(p.Threads, ops)
	}
	return p
}

func TestModelStrengthChain(t *testing.T) {
	x86 := x86tso.New()
	arm := armcats.New()
	ir := tcgmm.New()
	nSeeds := 120
	if testing.Short() {
		nSeeds = 30
	}
	for seed := 0; seed < nSeeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := randPlainProgram(rng)
		outX86 := litmus.Outcomes(p, x86)
		outArm := litmus.Outcomes(p, arm)
		outIR := litmus.Outcomes(p, ir)
		if !outX86.SubsetOf(outArm) {
			t.Fatalf("seed %d: x86 outcomes ⊄ Arm outcomes; extra: %v",
				seed, outX86.Minus(outArm))
		}
		if !outArm.SubsetOf(outIR) {
			t.Fatalf("seed %d: Arm outcomes ⊄ IR outcomes; extra: %v",
				seed, outArm.Minus(outIR))
		}
		if len(outX86) == 0 {
			t.Fatalf("seed %d: empty x86 outcome set", seed)
		}
	}
}

// TestVerifiedMappingOnRandomPrograms extends Theorem 1 beyond the named
// corpus: the verified end-to-end translation of random plain programs
// introduces no behaviour.
func TestVerifiedMappingOnRandomPrograms(t *testing.T) {
	nSeeds := 60
	if testing.Short() {
		nSeeds = 15
	}
	for seed := 0; seed < nSeeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed) + 7_000))
		p := randPlainProgram(rng)
		arm := ApplyRoute([]*Scheme{X86Verified, ArmVerified}, p)
		v := VerifyTheorem1(p, x86tso.New(), arm, armcats.New())
		if !v.Correct() {
			t.Fatalf("seed %d: verified mapping introduced behaviours on a random program: %v\nprogram: %+v",
				seed, v.NewBehaviours, p)
		}
	}
}

// TestEnumerationDeterministic guards the enumerator's reproducibility.
func TestEnumerationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := randPlainProgram(rng)
	a := litmus.Outcomes(p, x86tso.New())
	b := litmus.Outcomes(p, x86tso.New())
	if !a.SubsetOf(b) || !b.SubsetOf(a) {
		t.Fatal("outcome enumeration is not deterministic")
	}
}

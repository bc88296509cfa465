// Package sparctso defines the SPARC-TSO axiomatic concurrency model
// (the formalisation line of Hou et al.; axiomatically the Owens-style TSO
// of x86 with SPARC's membar fence taxonomy in place of MFENCE).
//
// Consistency of an execution X requires:
//
//	(sc-per-loc)  acyclic(po|loc ∪ rf ∪ co ∪ fr)
//	(atomicity)   rmw ∩ (fre ; coe) = ∅
//	(GHB)         acyclic(implied ∪ membar ∪ ppo ∪ rfe ∪ fr ∪ co)
//
// where
//
//	ppo     ≜ x86-TSO's ppo
//	implied ≜ x86-TSO's implied, i.e. po;[At ∪ F_sync] ∪ [At ∪ F_sync];po
//	membar  ≜ [R];po;[#LoadLoad];po;[R] ∪ [R];po;[#LoadStore];po;[W]
//	        ∪ [W];po;[#StoreLoad];po;[R] ∪ [W];po;[#StoreStore];po;[W]
//
// MFENCE is interpreted as membar #Sync (all four directions at once,
// F_sync above), so x86-level programs mean the same thing under SPARC-TSO
// as under x86-TSO — both are TSO, sharing ppo and implied by reference,
// and the differential test in this package pins that equivalence over the
// whole corpus. Under TSO only #StoreLoad adds ordering beyond ppo; the
// other three membar directions are provided for fidelity to the ISA and
// are exercised by the unit tests.
package sparctso

import (
	. "repro/internal/memmodel"
	"repro/internal/models/x86tso"
)

var (
	// membar is the directional ordering of the four single-direction
	// membar flavours.
	membar = Def("membar", Union(
		Seq(R, Po, F(FenceMembarLL), Po, R),
		Seq(R, Po, F(FenceMembarLS), Po, W),
		Seq(W, Po, F(FenceMembarSL), Po, R),
		Seq(W, Po, F(FenceMembarSS), Po, W),
	))

	model = Define("SPARC-TSO",
		SCPerLoc,
		Atomicity,
		Acyclic("GHB", Union(x86tso.Implied, membar, x86tso.Ppo, Rfe, Fr, Co)),
	)
)

// New returns the SPARC-TSO model.
func New() Model { return model }

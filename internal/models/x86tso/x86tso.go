// Package x86tso defines the x86-TSO axiomatic concurrency model as
// presented in §5.2 of the Risotto paper (following Owens et al. [64, 65]
// and Alglave et al. [10]).
//
// Consistency of an execution X requires:
//
//	(sc-per-loc)  acyclic(po|loc ∪ rf ∪ co ∪ fr)
//	(atomicity)   rmw ∩ (fre ; coe) = ∅
//	(GHB)         acyclic(implied ∪ ppo ∪ rfe ∪ fr ∪ co)
//
// where
//
//	ppo     ≜ [W];po;[W] ∪ [R];po;[W] ∪ [R];po;[R]   — all of po but W×R
//	implied ≜ po;[At ∪ F] ∪ [At ∪ F];po
//	At      ≜ dom(rmw) ∪ codom(rmw)
//
// The declarations below are that definition, term for term.
package x86tso

import . "repro/internal/memmodel"

var (
	// Ppo is TSO's preserved program order: every po pair of memory
	// accesses except write-to-read (store-load reordering is the one
	// relaxation TSO allows). SPARC-TSO shares it.
	Ppo = Def("ppo", Union(Seq(W, Po, W), Seq(R, Po, W), Seq(R, Po, R)))

	atF = Union(Dom(Rmw), Codom(Rmw), F(FenceMFENCE))
	// Implied is the ordering implied by full fences and successful RMWs.
	// SPARC-TSO shares it, reading MFENCE as membar #Sync.
	Implied = Def("implied", Union(Seq(Po, atF), Seq(atF, Po)))

	model = Define("x86-TSO",
		SCPerLoc,
		Atomicity,
		Acyclic("GHB", Union(Implied, Ppo, Rfe, Fr, Co)),
	)
)

// New returns the x86-TSO model.
func New() Model { return model }

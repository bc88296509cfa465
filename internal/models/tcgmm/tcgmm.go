// Package tcgmm defines the TCG IR axiomatic concurrency model proposed
// by the Risotto paper (§5.3, Figure 6) — the paper's first contribution:
// a formal memory model for QEMU's intermediate representation.
//
// Consistency of an execution X requires:
//
//	(sc-per-loc)  acyclic(po|loc ∪ rf ∪ co ∪ fr)
//	(atomicity)   rmw ∩ (fre ; coe) = ∅
//	(GOrd)        acyclic(ord ∪ rfe ∪ coe ∪ fre)
//
// where ord collects the orderings induced by the nine directional fences
// and by SC-semantics RMW accesses:
//
//	ord ≜ [R];po;[Frr];po;[R] ∪ [R];po;[Frw];po;[W] ∪ [R];po;[Frm];po;[M]
//	    ∪ [W];po;[Fwr];po;[R] ∪ [W];po;[Fww];po;[W] ∪ [W];po;[Fwm];po;[M]
//	    ∪ [M];po;[Fmr];po;[R] ∪ [M];po;[Fmw];po;[W] ∪ [M];po;[Fmm];po;[M]
//	    ∪ po;[Wsc ∪ dom(rmw)] ∪ [Rsc ∪ codom(rmw)];po
//	    ∪ po;[Fsc] ∪ [Fsc];po
//
// Plain ld/st accesses are unordered unless a fence or an RMW intervenes —
// notably, the IR model orders nothing through dependencies, which is what
// legitimizes TCG's false-dependency elimination (§5.4, §6.1).
package tcgmm

import . "repro/internal/memmodel"

var (
	rsc = Set("[Rsc]", func(e Event) bool { return e.SC && e.Kind == KindRead })
	wsc = Set("[Wsc]", func(e Event) bool { return e.SC && e.Kind == KindWrite })
	fsc = F(FenceFsc)

	// Ord is the order relation of Figure 6. IMM extends it.
	Ord = Def("ord", Union(
		Seq(R, Po, F(FenceFrr), Po, R), Seq(R, Po, F(FenceFrw), Po, W), Seq(R, Po, F(FenceFrm), Po, M),
		Seq(W, Po, F(FenceFwr), Po, R), Seq(W, Po, F(FenceFww), Po, W), Seq(W, Po, F(FenceFwm), Po, M),
		Seq(M, Po, F(FenceFmr), Po, R), Seq(M, Po, F(FenceFmw), Po, W), Seq(M, Po, F(FenceFmm), Po, M),
		Seq(Po, Union(wsc, Dom(Rmw))), Seq(Union(rsc, Codom(Rmw)), Po),
		Seq(Po, fsc), Seq(fsc, Po),
	))

	model = Define("TCG-IR",
		SCPerLoc,
		Atomicity,
		Acyclic("GOrd", Union(Ord, Rfe, Coe, Fre)),
	)
)

// New returns the TCG IR model.
func New() Model { return model }

// Package imm defines an intermediate memory model in the spirit of
// IMM (Podkopaev, Lahav, Vafeiadis — "Bridging the gap between programming
// languages and hardware weak memory models"): a model sitting between
// guest architectures and the TCG IR that is fence-compatible with the IR
// model but additionally preserves syntactic dependencies and forbids
// thin-air values.
//
// Consistency of an execution X requires:
//
//	(sc-per-loc)   acyclic(po|loc ∪ rf ∪ co ∪ fr)
//	(atomicity)    rmw ∩ (fre ; coe) = ∅
//	(no-thin-air)  acyclic(deps ∪ rf)
//	(GOrd)         acyclic(ord ∪ rfe ∪ coe ∪ fre)
//
// where ord extends the TCG IR model's fence/SC-RMW order (tcgmm.Ord,
// referenced, not restated) with dependency-ordered-before edges:
//
//	deps   ≜ data ∪ addr ∪ ctrl
//	ord    ≜ ord_tcg ∪ depord
//	depord ≜ addr ∪ data ∪ ctrl;[W] ∪ addr;po;[W] ∪ (addr ∪ data);rfi
//
// depord is chosen as a subset of Armed-Cats' dob (dob minus the
// (ctrl ∪ data);coi term), so lowering an IMM-level program to Arm with
// the verified fence scheme preserves every IMM ordering — the N×N matrix
// checks that containment by construction. Conversely ord ⊇ ord_tcg means
// IMM admits no behaviour the IR model forbids, so the verified guest
// fence placements stay sound when retargeted at IMM.
package imm

import (
	. "repro/internal/memmodel"
	"repro/internal/models/tcgmm"
)

var (
	// deps is the full syntactic dependency relation.
	deps = Def("deps", Union(Data, Addr, Ctrl))

	// depOrd is dependency-ordered-before: the dependency edges IMM
	// promotes into the global order.
	depOrd = Def("depord", Union(
		Addr,
		Data,
		Seq(Ctrl, W),
		Seq(Addr, Po, W),
		Seq(Union(Addr, Data), Rfi),
	))

	// ord is the IMM order relation.
	ord = Def("ord", Union(tcgmm.Ord, depOrd))

	model = Define("IMM",
		SCPerLoc,
		Atomicity,
		Acyclic("no-thin-air", Union(deps, Rf)),
		Acyclic("GOrd", Union(ord, Rfe, Coe, Fre)),
	)
)

// New returns the IMM model.
func New() Model { return model }

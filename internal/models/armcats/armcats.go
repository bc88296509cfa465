// Package armcats defines the Armed-Cats axiomatic model of Arm
// concurrency (Alglave, Deacon, Grisenthwaite, Hacquard, Maranget [6]),
// in the form used by the Risotto paper's Figure 5.
//
// Consistency of an execution X requires:
//
//	(sc-per-loc)  acyclic(po|loc ∪ rf ∪ co ∪ fr)   — Armed-Cats' "internal"
//	(atomicity)   rmw ∩ (fre ; coe) = ∅            — Armed-Cats' "atomic"
//	(external)    irreflexive(ob)
//
// where
//
//	ob  ≜ (rfe ∪ coe ∪ fre ∪ lob)+
//	lob ≜ (lws ∪ dob ∪ aob ∪ bob)+
//	lws ≜ po|loc;[W]                                — local write successor
//	lrs ≜ [W];(po|loc \ po|loc;[W];po|loc);[R]      — local read successor
//	aob ≜ rmw ∪ [codom(rmw)];lrs;[A ∪ Q]
//	dob ≜ addr ∪ data ∪ ctrl;[W] ∪ addr;po;[W]
//	      ∪ (ctrl ∪ data);coi ∪ (addr ∪ data);rfi
//	bob ≜ po;[F];po ∪ [R];po;[Fld];po ∪ [W];po;[Fst];po;[W]
//	      ∪ [L];po;[A] ∪ [A ∪ Q];po ∪ po;[L]
//	      ∪ ⟨amo rule⟩
//	amo ≜ [RMW1];rmw                                — single-instruction RMWs
//
// The ⟨amo rule⟩ is where Risotto found and fixed an error (§3.3, §5.2).
// With casal ≜ [A];amo;[L] picking the acquire-release amo pairs:
//
//   - Original model:  po;casal;po — a single-instruction acquire-release
//     RMW orders its po-predecessors with its po-successors but not with
//     its own accesses, so SBAL admits the x86-forbidden outcome.
//   - Corrected model: po;[dom(casal)] ∪ [codom(casal)];po — casal behaves
//     like a full fence anchored at its own read and write. This is the
//     strengthening accepted upstream [39].
//
// Both variants are provided so the error is demonstrable. The declarations
// below are that definition, term for term — closures included: the
// evaluator never computes them (acyclic(X ∪ Y⁺) ⇔ acyclic(X ∪ Y)).
package armcats

import . "repro/internal/memmodel"

// Variant selects the amo rule in bob.
type Variant int

const (
	// Original is the pre-fix Armed-Cats model where casal fails to act
	// as a full barrier (admits SBAL's weak outcome).
	Original Variant = iota
	// Corrected is the strengthened model proposed by Risotto and
	// accepted into Armed-Cats.
	Corrected
)

var (
	acq   = Set("[A]", func(e Event) bool { return e.Acq })
	acqPC = Set("[Q]", func(e Event) bool { return e.AcqPC })
	rls   = Set("[L]", func(e Event) bool { return e.Rel })

	// amo is the rmw edges contributed by single-instruction RMWs.
	amo = Def("amo", Seq(Set("[RMW1]", func(e Event) bool { return e.RMW == RMWAmo }), Rmw))

	// lws is local write successor.
	lws = Def("lws", Seq(PoLoc, W))

	// lrs is local read successor: a write to the same-location po-later
	// reads with no intervening same-location write.
	lrs = Def("lrs", Seq(W, Minus(PoLoc, Seq(PoLoc, W, PoLoc)), R))

	// aob is atomic-ordered-before.
	aob = Def("aob", Union(Rmw, Seq(Codom(Rmw), lrs, Union(acq, acqPC))))

	// dob is dependency-ordered-before.
	dob = Def("dob", Union(
		Addr,
		Data,
		Seq(Ctrl, W),
		Seq(Addr, Po, W),
		Seq(Union(Ctrl, Data), Coi),
		Seq(Union(Addr, Data), Rfi),
	))

	// casal picks successful acquire-release amo pairs.
	casal = Def("casal", Seq(acq, amo, rls))

	original  = define("Arm-Cats(original)", Seq(Po, casal, Po))
	corrected = define("Arm-Cats", Union(Seq(Po, Dom(casal)), Seq(Codom(casal), Po)))
)

// define builds the model around the given amo rule of bob.
func define(name string, amoRule *Expr) Model {
	bob := Def("bob", Union(
		Seq(Po, F(FenceDMBFF), Po),
		Seq(R, Po, F(FenceDMBLD), Po),
		Seq(W, Po, F(FenceDMBST), Po, W),
		Seq(rls, Po, acq),
		Seq(Union(acq, acqPC), Po),
		Seq(Po, rls),
		amoRule,
	))
	lob := Def("lob", Closure(Union(lws, dob, aob, bob)))
	ob := Def("ob", Closure(Union(Rfe, Coe, Fre, lob)))
	return Define(name, SCPerLoc, Atomicity, Irreflexive("external", ob))
}

// New returns the corrected Armed-Cats model (the one Risotto's mappings
// are verified against).
func New() Model { return corrected }

// NewVariant returns the model with an explicit amo-rule variant.
func NewVariant(v Variant) Model {
	if v == Original {
		return original
	}
	return corrected
}

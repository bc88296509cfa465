package memmodel

// op is the form of a relational expression.
type op uint8

const (
	opBase op = iota // a primitive relation of the execution (po, rf, co, …)
	opLoc            // loc: same-location memory accesses
	opSet            // [P]: identity on the events satisfying a predicate
	opUnion
	opSeq
	opInter
	opMinus
	opInverse
	opClosure
)

// baseRel names a primitive relation stored on an Execution.
type baseRel uint8

const (
	basePo baseRel = iota
	baseRf
	baseCo
	baseRmw
	baseAddr
	baseData
	baseCtrl
)

// Expr is a relational expression in the "cat" style: a model is written
// as a handful of Exprs and the axioms over them, and the evaluators in
// this package give the expressions their meaning on an execution. Exprs
// are immutable and freely shared — a sub-definition used by three models
// is one *Expr referenced three times.
type Expr struct {
	op   op
	name string // Def name, or the leaf's cat-style spelling
	args []*Expr
	base baseRel
	pred func(Event) bool
	// varies reports whether the expression mentions rf or co, i.e.
	// whether its value differs between candidates of one skeleton.
	varies bool
}

func newExpr(o op, args ...*Expr) *Expr {
	e := &Expr{op: o, args: args}
	for _, a := range args {
		e.varies = e.varies || a.varies
	}
	return e
}

func base(name string, b baseRel) *Expr {
	return &Expr{op: opBase, name: name, base: b, varies: b == baseRf || b == baseCo}
}

// Set returns [P], the identity relation on the events satisfying pred.
func Set(name string, pred func(Event) bool) *Expr {
	return &Expr{op: opSet, name: name, pred: pred}
}

// Union returns e₁ ∪ e₂ ∪ … (the empty relation for no operands).
func Union(es ...*Expr) *Expr { return newExpr(opUnion, es...) }

// Seq returns the composition e₁ ; e₂ ; …
func Seq(es ...*Expr) *Expr { return newExpr(opSeq, es...) }

// Inter returns a ∩ b.
func Inter(a, b *Expr) *Expr { return newExpr(opInter, a, b) }

// Minus returns a \ b.
func Minus(a, b *Expr) *Expr { return newExpr(opMinus, a, b) }

// Inverse returns e⁻¹.
func Inverse(e *Expr) *Expr { return newExpr(opInverse, e) }

// Closure returns the transitive closure e⁺.
func Closure(e *Expr) *Expr { return newExpr(opClosure, e) }

// Def names a sub-definition ("ppo ≜ …"), so a model's table carries the
// same names as the formulas in its package comment.
func Def(name string, e *Expr) *Expr {
	d := *e
	d.name = name
	return &d
}

// Dom returns [dom(e)] and Codom [codom(e)]: the identity on the events
// with an outgoing (incoming) e edge.
func Dom(e *Expr) *Expr   { return Inter(Seq(e, Inverse(e)), id) }
func Codom(e *Expr) *Expr { return Inter(Seq(Inverse(e), e), id) }

// axiomKind is the constraint an axiom puts on its relation.
type axiomKind uint8

const (
	acyclic axiomKind = iota
	irreflexive
	empty
)

// Axiom is one named consistency constraint of a model.
type Axiom struct {
	// Name is the axiom's label in the model's definition ("sc-per-loc",
	// "GHB", "external", …).
	Name string
	// Expr is the constrained relation.
	Expr *Expr
	kind axiomKind
}

// Acyclic is the axiom "e has no cycle" (e⁺ is irreflexive).
func Acyclic(name string, e *Expr) Axiom { return Axiom{name, e, acyclic} }

// Irreflexive is the axiom "e relates no event to itself".
func Irreflexive(name string, e *Expr) Axiom { return Axiom{name, e, irreflexive} }

// Empty is the axiom "e has no edges".
func Empty(name string, e *Expr) Axiom { return Axiom{name, e, empty} }

// The vocabulary every model shares: the primitive relations, the event
// sets, the derived communication relations, and the two axioms common to
// x86, SPARC, IMM, the TCG IR and Arm (paper §5.2).
var (
	Po   = base("po", basePo)
	Rf   = base("rf", baseRf)
	Co   = base("co", baseCo)
	Rmw  = base("rmw", baseRmw)
	Addr = base("addr", baseAddr)
	Data = base("data", baseData)
	Ctrl = base("ctrl", baseCtrl)
	// Loc relates memory accesses to the same location.
	Loc = &Expr{op: opLoc, name: "loc"}

	// R, W and M are [R], [W] and [R ∪ W].
	R = Set("[R]", func(e Event) bool { return e.Kind == KindRead })
	W = Set("[W]", func(e Event) bool { return e.Kind == KindWrite })
	M = Set("[M]", func(e Event) bool { return e.Kind != KindFence })
	// id is the identity on every event.
	id = Set("id", func(Event) bool { return true })

	// Int relates events of one thread. An rf/co/fr edge is external
	// exactly when it is not in Int; edges touching an initial write are
	// never po-related, hence always external.
	Int   = Def("int", Union(Po, Inverse(Po)))
	PoLoc = Def("po|loc", Inter(Po, Loc))
	Fr    = Def("fr", Seq(Inverse(Rf), Co))
	Rfe   = Def("rfe", Minus(Rf, Int))
	Coe   = Def("coe", Minus(Co, Int))
	Fre   = Def("fre", Minus(Fr, Int))
	Rfi   = Def("rfi", Inter(Rf, Int))
	Coi   = Def("coi", Inter(Co, Int))

	// SCPerLoc is the coherence axiom: acyclic(po|loc ∪ rf ∪ co ∪ fr).
	SCPerLoc = Acyclic("sc-per-loc", Union(PoLoc, Rf, Co, Fr))
	// Atomicity is the RMW axiom: rmw ∩ (fre ; coe) = ∅.
	Atomicity = Empty("atomicity", Inter(Rmw, Seq(Fre, Coe)))
)

// F returns [F_k]: the identity on fence events of flavour k.
func F(k Fence) *Expr {
	return Set("["+k.String()+"]", func(e Event) bool {
		return e.Kind == KindFence && e.Fence == k
	})
}

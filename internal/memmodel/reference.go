package memmodel

import "repro/internal/rel"

// ReferenceConsistent is the reference evaluator: it decides consistency
// by evaluating every axiom of m from scratch on x with rel's functional
// API — nothing hoisted, nothing shared between axioms, closures computed
// as written. It is deliberately naive and exists only as the oracle the
// tests hold the Checker against.
func ReferenceConsistent(m Model, x *Execution) bool {
	for _, a := range m.axioms {
		if !a.kind.holds(a.Expr.eval(x), rel.NewArena(0)) {
			return false
		}
	}
	return true
}

func (e *Expr) eval(x *Execution) *rel.Relation {
	args := make([]*rel.Relation, len(e.args))
	for i, a := range e.args {
		args[i] = a.eval(x)
	}
	switch e.op {
	case opBase:
		return x.base(e.base)
	case opLoc:
		out := rel.New()
		sameLoc(x.Events, out)
		return out
	case opSet:
		return rel.Identity(x.IDs(e.pred))
	case opUnion:
		return rel.Union(args...)
	case opSeq:
		return rel.Seq(args...)
	case opInter:
		return args[0].Intersect(args[1])
	case opMinus:
		return args[0].Minus(args[1])
	case opInverse:
		return args[0].Inverse()
	}
	return args[0].TransitiveClosure()
}

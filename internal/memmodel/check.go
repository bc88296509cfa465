package memmodel

import (
	"sync"

	"repro/internal/rel"
)

// Model is a memory model as data: a name plus a table of named axioms
// over relational expressions. Checking an execution against it is the
// evaluators' job — NewChecker for the enumeration hot path,
// ReferenceConsistent as the from-scratch oracle tests compare against.
type Model struct {
	name   string
	axioms []Axiom
	prog   *program
}

// Define builds a model from its axioms. An execution is consistent iff
// every axiom holds; axioms are checked in the order given, so cheap and
// often-violated ones belong first.
func Define(name string, axioms ...Axiom) Model {
	return Model{name: name, axioms: axioms, prog: compile(axioms)}
}

// Name identifies the model ("x86-TSO", "Arm-Cats", …).
func (m Model) Name() string { return m.name }

// Skeleton is the candidate-invariant part of a program's executions: the
// event set and every relation fixed by program structure alone. During
// enumeration the rf×co product varies only Rf and Co (and relations
// derived from them), so every sub-expression that mentions neither is
// evaluated once per skeleton and reused across all of its candidates.
type Skeleton struct {
	Events []Event
	// Po, Rmw and the syntactic dependencies are fixed by the program text
	// and the skeleton's branch choices; they never vary with rf or co.
	Po, Rmw, Data, Addr, Ctrl *rel.Relation
}

// node is one step of a compiled model: an expression with a scratch slot
// and its candidate-invariance decided.
type node struct {
	op   op
	leaf *Expr // the source expression of opBase/opSet leaves
	args []*node
	slot int
	// invariant nodes mention neither rf nor co: NewChecker evaluates them
	// once and Consistent never touches them again.
	invariant bool
}

type compiledAxiom struct {
	kind axiomKind
	root *node
}

// program is a model compiled for the hoisting evaluator: the expression
// DAG in dependency order (a node's operands have smaller slots), with
// invariant operands of unions and compositions grouped so they hoist
// together, and acyclicity axioms reduced to their cycle base.
type program struct {
	nodes  []*node
	axioms []compiledAxiom
	// pool holds released Checkers. One serves a skeleton of any size:
	// NewChecker recomputes or resets every slot, a reset relation grows
	// to whatever universe it is next given, and so does the arena's
	// acyclicity scratch.
	pool sync.Pool
}

// compiler carries the sharing tables while a program is being built.
type compiler struct {
	*program
	memo  map[*Expr]*node
	bases map[baseRel]*node
	// steps shares structurally equal unary and binary nodes, so the
	// [R];po prefix of three fence rules is composed once.
	steps map[[3]int]*node
}

func compile(axioms []Axiom) *program {
	p := compiler{&program{}, map[*Expr]*node{}, map[baseRel]*node{}, map[[3]int]*node{}}
	for _, a := range axioms {
		kind, e := a.kind, a.Expr
		if kind == irreflexive && e.op == opClosure {
			kind, e = acyclic, e.args[0]
		}
		if kind == acyclic {
			// acyclic(X ∪ Y⁺) ⇔ acyclic(X ∪ Y): every closure edge expands
			// to a path of base edges, so closures under the root union are
			// never computed.
			e = Union(operands(e, opUnion, true, nil)...)
		}
		p.axioms = append(p.axioms, compiledAxiom{kind, p.compile(e)})
	}
	return p.program
}

// operands flattens nested applications of the associative operator o
// into one operand list; with elide set it also looks through transitive
// closures (sound only directly under an acyclicity axiom).
func operands(e *Expr, o op, elide bool, out []*Expr) []*Expr {
	switch {
	case e.op == o:
		for _, a := range e.args {
			out = operands(a, o, elide, out)
		}
	case elide && e.op == opClosure:
		out = operands(e.args[0], o, elide, out)
	default:
		out = append(out, e)
	}
	return out
}

func (p compiler) add(o op, leaf *Expr, args ...*node) *node {
	n := &node{op: o, leaf: leaf, args: args, slot: len(p.nodes), invariant: leaf == nil || !leaf.varies}
	for _, a := range args {
		n.invariant = n.invariant && a.invariant
	}
	p.nodes = append(p.nodes, n)
	return n
}

// step adds a unary or binary node unless an equal one exists.
func (p compiler) step(o op, args ...*node) *node {
	key := [3]int{int(o), args[0].slot, args[len(args)-1].slot}
	if p.steps[key] == nil {
		p.steps[key] = p.add(o, nil, args...)
	}
	return p.steps[key]
}

func (p compiler) compile(e *Expr) *node {
	if n, ok := p.memo[e]; ok {
		return n
	}
	var n *node
	switch e.op {
	case opBase:
		if n = p.bases[e.base]; n == nil {
			n = p.add(opBase, e)
			p.bases[e.base] = n
		}
	case opLoc, opSet:
		n = p.add(e.op, e)
	case opUnion:
		n = p.union(p.compileAll(operands(e, opUnion, false, nil)))
	case opSeq:
		n = p.seq(p.compileAll(operands(e, opSeq, false, nil)))
	default:
		n = p.step(e.op, p.compileAll(e.args)...)
	}
	p.memo[e] = n
	return n
}

func (p compiler) compileAll(es []*Expr) []*node {
	ns := make([]*node, len(es))
	for i, e := range es {
		ns[i] = p.compile(e)
	}
	return ns
}

// union builds an n-ary union whose invariant operands are merged into
// one hoisted sub-union ("base = implied ∪ ppo" in a hand-written checker).
func (p compiler) union(args []*node) *node {
	var inv, vary []*node
	for _, a := range args {
		if a.invariant {
			inv = append(inv, a)
		} else {
			vary = append(vary, a)
		}
	}
	if len(inv) > 1 && len(vary) > 0 {
		inv = []*node{p.add(opUnion, nil, inv...)}
	}
	if args = append(inv, vary...); len(args) == 1 {
		return args[0]
	}
	return p.add(opUnion, nil, args...)
}

// seq folds a composition chain into binary steps, pre-composing each run
// of adjacent invariant operands so that it hoists.
func (p compiler) seq(args []*node) *node {
	var groups []*node
	for _, a := range args {
		if k := len(groups); k > 0 && a.invariant && groups[k-1].invariant {
			groups[k-1] = p.step(opSeq, groups[k-1], a)
		} else {
			groups = append(groups, a)
		}
	}
	acc := groups[0]
	for _, g := range groups[1:] {
		acc = p.step(opSeq, acc, g)
	}
	return acc
}

// Checker is a model specialised to one skeleton — the hoisting evaluator.
// NewChecker evaluates every invariant node once; Consistent evaluates
// the rest per candidate, on demand and in place, so it allocates nothing.
// A Checker keeps scratch state between calls and must not be shared
// across goroutines; create one per worker.
type Checker struct {
	prog  *program
	arena *rel.Arena // acyclicity scratch
	// x is what opBase and leaf nodes read: the skeleton (rf and co nil)
	// during NewChecker, the current candidate during Consistent.
	x Execution
	// vals[slot] is the node's value: x's own relation for opBase nodes, a
	// relation the checker owns otherwise.
	vals []*rel.Relation
	// empty[slot] marks nodes that are empty whatever rf and co are (a
	// fence flavour the program does not use and every ordering built on
	// it, an rmw-free program's atomicity term): they are not evaluated
	// and their slot stays the empty relation.
	empty []bool
	// done[slot] marks varying nodes already evaluated for the current
	// candidate.
	done []bool
}

// NewChecker prepares m for the skeleton's candidates. Call Release when
// they are done, so the next skeleton, of any size, reuses the checker's
// relations instead of allocating its own.
func NewChecker(m Model, sk *Skeleton) *Checker {
	c := m.prog.checker(len(sk.Events))
	c.x = Execution{Events: sk.Events, Po: sk.Po, Rmw: sk.Rmw, Data: sk.Data, Addr: sk.Addr, Ctrl: sk.Ctrl}
	for _, n := range c.prog.nodes {
		switch {
		case len(n.args) > 0 && c.provenEmpty(n):
			c.empty[n.slot] = true
			c.vals[n.slot].Reset()
		case n.invariant:
			c.compute(n)
			c.empty[n.slot] = c.vals[n.slot].IsEmpty()
		default:
			c.empty[n.slot] = false
		}
	}
	return c
}

// checker returns a released checker, or a new one sized for n events.
func (p *program) checker(n int) *Checker {
	if c, _ := p.pool.Get().(*Checker); c != nil {
		return c
	}
	c := &Checker{
		prog:  p,
		arena: rel.NewArena(n),
		vals:  make([]*rel.Relation, len(p.nodes)),
		empty: make([]bool, len(p.nodes)),
		done:  make([]bool, len(p.nodes)),
	}
	for _, nd := range p.nodes {
		if nd.op != opBase {
			c.vals[nd.slot] = rel.NewSized(n)
		}
	}
	return c
}

// Release returns the checker to its model's pool. It must not be used
// afterwards. The pooled checker keeps nothing of the last candidate it
// read — neither x nor the base relations its opBase slots point at — as
// that is its enumerator's storage, rewritten for the next skeleton.
// NewChecker and Consistent set those slots again before any read.
func (c *Checker) Release() {
	c.x = Execution{}
	for _, n := range c.prog.nodes {
		if n.op == opBase {
			c.vals[n.slot] = nil
		}
	}
	c.prog.pool.Put(c)
}

// provenEmpty reports whether a node is empty because enough of its
// operands are.
func (c *Checker) provenEmpty(n *node) bool {
	switch n.op {
	case opUnion:
		for _, a := range n.args {
			if !c.empty[a.slot] {
				return false
			}
		}
		return true
	case opSeq, opInter:
		return c.empty[n.args[0].slot] || c.empty[n.args[1].slot]
	}
	return c.empty[n.args[0].slot]
}

// eval returns the node's value for the current candidate, computing it
// first if this candidate has not needed it yet.
func (c *Checker) eval(n *node) *rel.Relation {
	if !n.invariant && !c.empty[n.slot] && !c.done[n.slot] {
		c.done[n.slot] = true
		c.compute(n)
	}
	return c.vals[n.slot]
}

func (c *Checker) compute(n *node) {
	dst := c.vals[n.slot]
	switch n.op {
	case opBase:
		c.vals[n.slot] = c.x.base(n.leaf.base)
	case opLoc:
		dst.Reset()
		sameLoc(c.x.Events, dst)
	case opSet:
		dst.Reset()
		for _, e := range c.x.Events {
			if n.leaf.pred(e) {
				dst.Add(e.ID, e.ID)
			}
		}
	case opUnion:
		dst.Reset()
		for _, a := range n.args {
			dst.UnionWith(c.eval(a))
		}
	case opSeq:
		dst.SeqOf(c.eval(n.args[0]), c.eval(n.args[1]))
	case opInter:
		dst.CopyFrom(c.eval(n.args[0]))
		dst.IntersectWith(c.eval(n.args[1]))
	case opMinus:
		dst.CopyFrom(c.eval(n.args[0]))
		dst.MinusWith(c.eval(n.args[1]))
	case opInverse:
		dst.InverseOf(c.eval(n.args[0]))
	case opClosure:
		dst.CopyFrom(c.eval(n.args[0]))
		dst.CloseTransitive()
	}
}

// sameLoc adds to dst every pair of memory accesses to one location.
func sameLoc(events []Event, dst *rel.Relation) {
	for i, a := range events {
		if a.Kind == KindFence {
			continue
		}
		for _, b := range events[i:] {
			if b.Kind != KindFence && a.Loc == b.Loc {
				dst.Add(a.ID, b.ID)
				dst.Add(b.ID, a.ID)
			}
		}
	}
}

// Consistent reports whether the candidate execution — which must be a
// candidate of the skeleton the checker was prepared for — satisfies every
// axiom of the model.
func (c *Checker) Consistent(x *Execution) bool {
	c.x = *x
	clear(c.done)
	for _, ax := range c.prog.axioms {
		if !ax.kind.holds(c.eval(ax.root), c.arena) {
			return false
		}
	}
	return true
}

func (k axiomKind) holds(r *rel.Relation, ar *rel.Arena) bool {
	switch k {
	case acyclic:
		return ar.Acyclic(r)
	case irreflexive:
		return r.Irreflexive()
	}
	return r.IsEmpty()
}

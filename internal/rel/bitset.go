package rel

import "math/bits"

// Relation is a finite binary relation over elements identified by small
// non-negative int IDs, stored as a dense adjacency-bit matrix: bit b of
// row a is set iff the edge (a, b) is present. Rows are w 64-bit words;
// capacity grows on demand, and u tracks the logical universe (one past
// the largest element ever mentioned) so kernels never scan dead rows.
//
// The zero value is not ready for use; call New or NewSized.
type Relation struct {
	n int      // row/column capacity; a multiple of 64, or 0
	w int      // words per row: n/64
	u int      // logical universe: every set bit lies in [0,u)×[0,u)
	b []uint64 // row-major bit matrix, len n*w
}

// New returns an empty relation that grows as elements are added.
func New() *Relation { return &Relation{} }

// NewSized returns an empty relation with capacity for elements [0, n),
// so Adds below n never reallocate.
func NewSized(n int) *Relation {
	r := &Relation{}
	r.grow(n)
	return r
}

// grow ensures capacity for elements [0, to). Existing edges are preserved.
func (r *Relation) grow(to int) {
	if to <= r.n {
		return
	}
	n := (to + 63) &^ 63
	if n < 2*r.n {
		n = 2 * r.n
	}
	w := n >> 6
	nb := make([]uint64, n*w)
	for a := 0; a < r.u; a++ {
		copy(nb[a*w:a*w+r.w], r.b[a*r.w:(a+1)*r.w])
	}
	r.n, r.w, r.b = n, w, nb
}

// reach extends the logical universe to cover element ids < u.
func (r *Relation) reach(u int) {
	if u > r.u {
		r.grow(u)
		r.u = u
	}
}

func (r *Relation) row(a int) []uint64 { return r.b[a*r.w : (a+1)*r.w] }

// uw returns the number of words that can hold set bits: ceil(u/64). Kernels
// iterate operand rows up to uw, never w, because two relations over the same
// universe may have different capacities (growth doubles), and words beyond
// uw are guaranteed zero.
func (r *Relation) uw() int { return (r.u + 63) >> 6 }

// Add inserts the edge (a, b). Adding an existing edge is a no-op.
// Elements must be non-negative.
func (r *Relation) Add(a, b int) {
	if a < 0 || b < 0 {
		panic("rel: negative element")
	}
	r.reach(max(a, b) + 1)
	r.b[a*r.w+b>>6] |= 1 << uint(b&63)
}

// Has reports whether the edge (a, b) is present.
func (r *Relation) Has(a, b int) bool {
	if a < 0 || b < 0 || a >= r.u || b >= r.u {
		return false
	}
	return r.b[a*r.w+b>>6]>>uint(b&63)&1 != 0
}

// live returns the words that can hold set bits: the rows below the
// universe.
func (r *Relation) live() []uint64 { return r.b[:r.u*r.w] }

// Size returns the number of edges.
func (r *Relation) Size() int {
	n := 0
	for _, w := range r.live() {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the relation has no edges.
func (r *Relation) IsEmpty() bool {
	for _, w := range r.live() {
		if w != 0 {
			return false
		}
	}
	return true
}

// AnyFrom reports whether a has at least one outgoing edge.
func (r *Relation) AnyFrom(a int) bool {
	if a < 0 || a >= r.u {
		return false
	}
	for _, w := range r.row(a) {
		if w != 0 {
			return true
		}
	}
	return false
}

// eachFrom invokes fn for every successor of a, in ascending order, until
// fn returns false. Reports whether iteration ran to completion.
func (r *Relation) eachFrom(a int, fn func(b int) bool) bool {
	for k, wv := range r.row(a) {
		for wv != 0 {
			b := k<<6 + bits.TrailingZeros64(wv)
			wv &= wv - 1
			if !fn(b) {
				return false
			}
		}
	}
	return true
}

// Pairs returns all edges in deterministic ascending (From, To) order.
// The bit matrix is scanned row-major, so the order falls out of the
// representation rather than a sort.
func (r *Relation) Pairs() []Pair {
	var out []Pair
	for a := 0; a < r.u; a++ {
		r.eachFrom(a, func(b int) bool {
			out = append(out, Pair{a, b})
			return true
		})
	}
	return out
}

// Clone returns a deep copy of r.
func (r *Relation) Clone() *Relation {
	c := &Relation{n: r.n, w: r.w, u: r.u}
	c.b = make([]uint64, len(r.b))
	copy(c.b, r.b)
	return c
}

// Reset removes every edge, keeping the allocated capacity. Only the rows
// below the universe can hold a bit, so only they are cleared.
func (r *Relation) Reset() {
	clear(r.live())
	r.u = 0
}

// CopyFrom makes r an exact copy of o, reusing r's storage when possible.
func (r *Relation) CopyFrom(o *Relation) {
	if r == o {
		return
	}
	r.Reset()
	r.reach(o.u)
	for a := 0; a < o.u; a++ {
		copy(r.row(a), o.row(a)[:o.uw()])
	}
}

// UnionWith adds every edge of o to r (r ∪= o).
func (r *Relation) UnionWith(o *Relation) {
	r.reach(o.u)
	for a := 0; a < o.u; a++ {
		dst := r.row(a)
		for k, wv := range o.row(a)[:o.uw()] {
			dst[k] |= wv
		}
	}
}

// IntersectWith removes every edge of r not in o (r ∩= o).
func (r *Relation) IntersectWith(o *Relation) {
	for a := 0; a < r.u; a++ {
		dst := r.row(a)
		if a >= o.u {
			clear(dst)
			continue
		}
		src := o.row(a)
		for k := range dst {
			if k < o.uw() {
				dst[k] &= src[k]
			} else {
				dst[k] = 0
			}
		}
	}
}

// MinusWith removes every edge of o from r (r \= o).
func (r *Relation) MinusWith(o *Relation) {
	u := min(r.u, o.u)
	kw := min(r.uw(), o.uw())
	for a := 0; a < u; a++ {
		dst := r.row(a)
		src := o.row(a)
		for k := 0; k < kw; k++ {
			dst[k] &^= src[k]
		}
	}
}

// SeqOf sets r to the relational composition p ; q. r must not alias p or q.
func (r *Relation) SeqOf(p, q *Relation) {
	if r == p || r == q {
		panic("rel: SeqOf receiver aliases an operand")
	}
	r.Reset()
	r.reach(max(p.u, q.u))
	for a := 0; a < p.u; a++ {
		dst := r.row(a)
		for k, wv := range p.row(a)[:p.uw()] {
			for wv != 0 {
				mid := k<<6 + bits.TrailingZeros64(wv)
				wv &= wv - 1
				if mid >= q.u {
					continue
				}
				for j, sv := range q.row(mid)[:q.uw()] {
					dst[j] |= sv
				}
			}
		}
	}
}

// InverseOf sets r to o^-1. r must not alias o.
func (r *Relation) InverseOf(o *Relation) {
	if r == o {
		panic("rel: InverseOf receiver aliases the operand")
	}
	r.Reset()
	r.reach(o.u)
	for a := 0; a < o.u; a++ {
		o.eachFrom(a, func(b int) bool {
			r.b[b*r.w+a>>6] |= 1 << uint(a&63)
			return true
		})
	}
}

// CloseTransitive replaces r with its transitive closure r+ in place,
// via the word-parallel Floyd–Warshall recurrence: whenever a reaches k,
// a also reaches everything k reaches.
func (r *Relation) CloseTransitive() {
	w := r.w
	for k := 0; k < r.u; k++ {
		krow := r.row(k)
		empty := true
		for _, wv := range krow {
			if wv != 0 {
				empty = false
				break
			}
		}
		if empty {
			continue
		}
		kw, kb := k>>6, uint(k&63)
		for a := 0; a < r.u; a++ {
			if r.b[a*w+kw]>>kb&1 == 0 {
				continue
			}
			dst := r.row(a)
			for j, wv := range krow {
				dst[j] |= wv
			}
		}
	}
}

// Union returns r ∪ others.
func (r *Relation) Union(others ...*Relation) *Relation {
	out := r.Clone()
	for _, o := range others {
		out.UnionWith(o)
	}
	return out
}

// Intersect returns r ∩ o.
func (r *Relation) Intersect(o *Relation) *Relation {
	out := r.Clone()
	out.IntersectWith(o)
	return out
}

// Minus returns r \ o.
func (r *Relation) Minus(o *Relation) *Relation {
	out := r.Clone()
	out.MinusWith(o)
	return out
}

// Seq returns the relational composition r ; o:
// (a, c) ∈ r;o iff ∃b. (a, b) ∈ r ∧ (b, c) ∈ o.
func (r *Relation) Seq(o *Relation) *Relation {
	out := New()
	out.SeqOf(r, o)
	return out
}

// Inverse returns r^-1: (b, a) for every (a, b) in r.
func (r *Relation) Inverse() *Relation {
	out := New()
	out.InverseOf(r)
	return out
}

// TransitiveClosure returns r+, the least transitive relation containing r.
func (r *Relation) TransitiveClosure() *Relation {
	out := r.Clone()
	out.CloseTransitive()
	return out
}

// Irreflexive reports whether no element is related to itself.
func (r *Relation) Irreflexive() bool {
	for a := 0; a < r.u; a++ {
		if r.b[a*r.w+a>>6]>>uint(a&63)&1 != 0 {
			return false
		}
	}
	return true
}

// Acyclic reports whether r+ is irreflexive, i.e. the directed graph induced
// by r has no cycle.
func (r *Relation) Acyclic() bool {
	var a Arena
	return a.Acyclic(r)
}

// Equal reports whether r and o contain exactly the same edges.
func (r *Relation) Equal(o *Relation) bool {
	u := max(r.u, o.u)
	kw := max(r.uw(), o.uw())
	for a := 0; a < u; a++ {
		for k := 0; k < kw; k++ {
			var rv, ov uint64
			if a < r.u && k < r.uw() {
				rv = r.b[a*r.w+k]
			}
			if a < o.u && k < o.uw() {
				ov = o.b[a*o.w+k]
			}
			if rv != ov {
				return false
			}
		}
	}
	return true
}

// Arena holds the DFS scratch Acyclic reuses, so that per-candidate
// consistency checks allocate nothing after warm-up. An Arena is not safe
// for concurrent use.
type Arena struct {
	n     int
	color []uint8
	stack []int32
}

// NewArena returns an arena sized for relations over elements [0, n).
func NewArena(n int) *Arena {
	return &Arena{n: n}
}

// Get returns an empty relation with capacity for the arena's universe.
func (ar *Arena) Get() *Relation { return NewSized(ar.n) }

// Acyclic reports whether r has no cycle, using the arena's reusable DFS
// scratch (colors and an explicit stack) so the check allocates nothing
// once the scratch has grown to the relation's universe.
func (ar *Arena) Acyclic(r *Relation) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	u := r.u
	if len(ar.color) < u {
		ar.color = make([]uint8, ((u+63)&^63)+64)
	}
	color := ar.color[:u]
	clear(color)
	stack := ar.stack[:0]
	defer func() { ar.stack = stack[:0] }()

	for a := 0; a < u; a++ {
		if color[a] != white || !r.AnyFrom(a) {
			continue
		}
		stack = append(stack, int32(a))
		for len(stack) > 0 {
			n := int(stack[len(stack)-1])
			if color[n] == white {
				color[n] = grey
				if !r.eachFrom(n, func(b int) bool {
					switch color[b] {
					case grey:
						return false
					case white:
						stack = append(stack, int32(b))
					}
					return true
				}) {
					return false
				}
			} else {
				if color[n] == grey {
					color[n] = black
				}
				stack = stack[:len(stack)-1]
			}
		}
	}
	return true
}

package rel

import (
	"math/rand"
	"testing"
)

// benchGraph builds a deterministic dense-ish relation over n events,
// shaped like the ordering graphs consistency checks walk: mostly forward
// edges (acyclic) so the Acyclic benchmarks measure full traversals.
func benchGraph(n int, seed int64, back bool) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := NewSized(n)
	for i := 0; i < 4*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if !back && a > b {
			a, b = b, a
		}
		if a != b {
			r.Add(a, b)
		}
	}
	return r
}

// BenchmarkRelOps measures the kernels the per-candidate consistency
// checks are built from, at litmus-scale universes (a corpus skeleton has
// roughly 8–24 events).
func BenchmarkRelOps(b *testing.B) {
	const n = 24
	p := benchGraph(n, 1, false)
	q := benchGraph(n, 2, false)
	cyc := benchGraph(n, 3, true)
	ar := NewArena(n)
	scratch := NewSized(n)

	b.Run("UnionWith", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch.CopyFrom(p)
			scratch.UnionWith(q)
		}
	})
	b.Run("SeqOf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch.SeqOf(p, q)
		}
	})
	b.Run("InverseOf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch.InverseOf(p)
		}
	})
	b.Run("CloseTransitive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch.CopyFrom(p)
			scratch.CloseTransitive()
		}
	})
	b.Run("AcyclicTrue", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !ar.Acyclic(p) {
				b.Fatal("expected acyclic")
			}
		}
	})
	b.Run("AcyclicFalse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ar.Acyclic(cyc) {
				b.Fatal("expected cyclic")
			}
		}
	})
}

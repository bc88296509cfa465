package litmus

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/rel"
)

// TestDepsMatchReplay checks what lower relies on when it emits data, addr
// and ctrl edges from reaching definitions before any value is known: the
// relations fixed per skeleton must equal the ones a value-aware replay
// extracts from every accepted candidate. That replay is reconstructed here,
// independently of lower, by re-walking the program's ops with the
// candidate's values in hand; depShapes adds the register-dataflow cases the
// corpus lacks.
func TestDepsMatchReplay(t *testing.T) {
	for _, p := range append(testCorpus(), depShapes()...) {
		n := 0
		EnumerateCandidates(p, func(c *Candidate) bool {
			n++
			// The relations on the candidate are the skeleton's; recompute
			// them for this candidate alone and compare.
			data, addrRel, ctrl := replayDeps(p, c)
			for label, pair := range map[string][2]*rel.Relation{
				"data": {c.X.Data, data},
				"addr": {c.X.Addr, addrRel},
				"ctrl": {c.X.Ctrl, ctrl},
			} {
				if !pair[0].Equal(pair[1]) {
					t.Fatalf("%s: hoisted %s = %v, replay %s = %v\n%v",
						p.Name, label, pair[0], label, pair[1], c.X)
				}
			}
			return true
		})
		if n == 0 {
			t.Errorf("%s: no candidate, so nothing was compared", p.Name)
		}
	}
}

// replayDeps re-derives the dependency relations for one accepted candidate
// by simulating each thread against the candidate's final event values —
// the algorithm the enumerator used before dependencies were fixed per
// skeleton, kept here as the test oracle.
func replayDeps(p *Program, c *Candidate) (data, addrRel, ctrl *rel.Relation) {
	data, addrRel, ctrl = rel.New(), rel.New(), rel.New()
	x := c.X
	// Group the candidate's non-init events by thread, in ID (= po) order.
	byThread := map[int][]memmodel.Event{}
	for _, e := range x.Events {
		if !e.IsInit() {
			byThread[e.Thread] = append(byThread[e.Thread], e)
		}
	}
	for t, ops := range p.Threads {
		evs := byThread[t]
		pos := 0
		next := func() memmodel.Event {
			e := evs[pos]
			pos++
			return e
		}
		prov := map[Reg][]int{}
		regs := map[Reg]int64{}
		var ctrlSrcs []int
		addCtrl := func(id int) {
			for _, s := range ctrlSrcs {
				ctrl.Add(s, id)
			}
		}
		var walk func(ops []Op) bool
		walk = func(ops []Op) bool {
			for _, op := range ops {
				switch o := op.(type) {
				case Store:
					addCtrl(next().ID)
				case StoreReg:
					id := next().ID
					addCtrl(id)
					for _, s := range prov[o.Src] {
						data.Add(s, id)
					}
				case Load:
					e := next()
					addCtrl(e.ID)
					regs[o.Dst] = e.Val
					prov[o.Dst] = []int{e.ID}
				case LoadIdx:
					e := next()
					addCtrl(e.ID)
					for _, s := range prov[o.Idx] {
						addrRel.Add(s, e.ID)
					}
					regs[o.Dst] = e.Val
					prov[o.Dst] = []int{e.ID}
				case StoreIdx:
					id := next().ID
					addCtrl(id)
					for _, s := range prov[o.Idx] {
						addrRel.Add(s, id)
					}
				case CAS:
					e := next()
					addCtrl(e.ID)
					if o.Dst != "" {
						regs[o.Dst] = e.Val
						prov[o.Dst] = []int{e.ID}
					}
					if e.Val == o.Expect {
						addCtrl(next().ID) // the rmw write
					}
				case Fence:
					addCtrl(next().ID)
				case MovImm:
					regs[o.Dst] = o.Val
					prov[o.Dst] = nil
				case If:
					taken := (regs[o.Reg] == o.Val) == o.Eq
					ctrlSrcs = append(ctrlSrcs, prov[o.Reg]...)
					if taken {
						if !walk(o.Body) {
							return false
						}
					}
				}
			}
			return true
		}
		walk(ops)
	}
	return data, addrRel, ctrl
}

// depShapes are the register-dataflow shapes the corpus lacks: what reaches
// a register read when the register was overwritten, reloaded, written by a
// CAS or never loaded at all, and how control sources pile up under nesting.
func depShapes() []*Program {
	return []*Program{
		{
			// A mov between the load and its uses cuts every dependency.
			Name: "dep-cut",
			Threads: [][]Op{
				{Store{Loc: "X", Val: 1}},
				{
					Load{Dst: "a", Loc: "X"},
					MovImm{Dst: "a", Val: 1},
					StoreReg{Loc: "Y", Src: "a"},
					If{Reg: "a", Eq: true, Val: 1, Body: []Op{Store{Loc: "Z", Val: 1}}},
				},
			},
		},
		{
			// Loaded twice: edges leave the later load only.
			Name: "dep-reload",
			Threads: [][]Op{
				{Store{Loc: "X", Val: 1}},
				{
					Load{Dst: "a", Loc: "X"},
					Load{Dst: "a", Loc: "Y"},
					StoreReg{Loc: "Z", Src: "a"},
					If{Reg: "a", Eq: true, Val: 0, Body: []Op{Store{Loc: "W", Val: 1}}},
				},
			},
		},
		{
			// A CAS destination feeds data, ctrl and addr; an immediate
			// feeds a storereg and both indexed accesses without an edge.
			Name: "dep-cas",
			Threads: [][]Op{
				{Store{Loc: "X", Val: 1}},
				{
					CAS{Loc: "X", Expect: 1, New: 3, Dst: "a"},
					StoreReg{Loc: "Y", Src: "a"},
					If{Reg: "a", Eq: true, Val: 1, Body: []Op{Store{Loc: "Z", Val: 1}}},
					LoadIdx{Dst: "b", Idx: "a", Loc0: "Z", Loc1: "Y"},
					MovImm{Dst: "i", Val: 1},
					StoreReg{Loc: "W", Src: "i"},
					LoadIdx{Dst: "c", Idx: "i", Loc0: "X", Loc1: "W"},
					StoreIdx{Idx: "i", Loc0: "Z", Loc1: "W", Val: 2},
				},
			},
		},
		{
			// Nested ifs: the inner condition's load stays a control source
			// after the inner body, and after the outer one.
			Name: "dep-nested",
			Threads: [][]Op{
				{Store{Loc: "X", Val: 1}, Store{Loc: "Y", Val: 1}},
				{
					Load{Dst: "a", Loc: "X"},
					If{Reg: "a", Eq: true, Val: 1, Body: []Op{
						Load{Dst: "b", Loc: "Y"},
						If{Reg: "b", Eq: false, Val: 0, Body: []Op{Store{Loc: "Z", Val: 1}}},
						Store{Loc: "W", Val: 1},
					}},
					Store{Loc: "V", Val: 1},
				},
			},
		},
		{
			// Values do not flow backwards through an undecided branch: a
			// (from c, from b, which comes after the branch on a) is a
			// cycle through control and never resolves, although b = 0
			// would justify it. Only the rf choices that avoid the cycle
			// give candidates.
			Name: "blocked-cycle",
			Threads: [][]Op{
				{
					Load{Dst: "a", Loc: "X"},
					If{Reg: "a", Eq: true, Val: 0},
					Load{Dst: "b", Loc: "Y"},
					StoreReg{Loc: "Z", Src: "b"},
				},
				{Load{Dst: "c", Loc: "Z"}, StoreReg{Loc: "X", Src: "c"}},
			},
		},
		{
			// Nor does an immediate: the storereg of a mov'd register has
			// its value once the thread gets that far, so the load cannot
			// read it from before the branch it decides.
			Name: "blocked-imm",
			Threads: [][]Op{{
				Load{Dst: "b", Loc: "X"},
				If{Reg: "b", Eq: false, Val: 1, Body: []Op{Store{Loc: "X", Val: 1}}},
				MovImm{Dst: "a", Val: 2},
				StoreReg{Loc: "X", Src: "a"},
			}},
		},
	}
}

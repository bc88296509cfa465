package litmus

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/rel"
)

// TestDepsMatchReplay checks the dependency-hoisting invariant buildDeps
// relies on: the structural data/addr/ctrl relations computed once per
// skeleton must equal the relations value replay would have extracted for
// every accepted candidate. A reference replay-based extraction is
// reconstructed here from each candidate's resolved execution by re-walking
// provenance with the candidate's values in hand.
func TestDepsMatchReplay(t *testing.T) {
	for _, p := range testCorpus() {
		EnumerateCandidates(p, func(c *Candidate) bool {
			// The shared relations on the candidate are the hoisted ones;
			// recompute deps independently per candidate and compare.
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
	}
}

// replayDeps re-derives the dependency relations for one accepted candidate
// by simulating each thread against the candidate's final event values —
// the pre-hoist algorithm, kept here as the test oracle.
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

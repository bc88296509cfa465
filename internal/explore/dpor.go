package explore

import "repro/internal/machine"

// Sleep-set dynamic partial-order reduction over the machine's transition
// system, as a depth-first search that backtracks by rollback: the
// exploration's one machine is reset once, and a frame whose state the
// search will come back to saves it (machine.Save) before taking its
// first branch. Backtracking rolls the machine back to the frame it
// resumes (machine.Rollback, which unwinds the machine's write journal)
// and applies only the new branch, so every transition executes once.
// A frame saves only when a later sibling is not yet asleep: sleep sets
// only grow while a frame is on the stack, so a frame without one is
// never resumed.
//
// The classical sleep-set rule prunes commuting interleavings without
// losing any final state: after the subtree below transition t is fully
// explored, t is put to sleep for its siblings; a child state inherits
// the sleeping transitions that are independent of the move that entered
// it. A state whose every enabled transition sleeps has only
// already-explored behaviours below it and is cut. Independence is the
// footprint relation of explore.go — different CPUs (or two drains of
// distinct coherence chains on one CPU) with disjoint globally-visible
// access sets. Footprints are recorded when a transition executes; they
// are stable enough for the inheritance filter because an independent
// move cannot redirect another CPU's control flow (loads execute in order
// and invisible instructions touch no memory).
//
// The search allocates per Run, not per state. The DFS stack is a slice of
// frames that outlives every branch: the frame at depth d serves each
// state the search meets at depth d, so its buffers — its checkpoint's
// among them — grow to the largest such state and are afterwards only
// truncated. A frame keeps its state's Enabled list, its sleep set as a
// slice of (transition, footprint) pairs searched linearly — sleep sets
// hold a handful of entries — and a footprint arena: machine.Apply
// appends each branch's footprint to it, so a sleeping footprint is a
// slice of the arena of the frame that explored it, and a child inherits
// it by copying the slice header. An arena only grows while its frame is
// on the stack, so no footprint a sleep set holds is ever overwritten.

// dnode is one frame of the DFS stack.
type dnode struct {
	// ts are the state's enabled transitions, in machine.Enabled's order.
	ts []machine.Transition
	// sleep is the state's sleep set: no transition appears twice.
	sleep []footprint
	// chosen indexes the branch taken below the state; fp is its
	// footprint, the tail of arena.
	chosen int
	fp     footprint
	// arena holds the footprints of the branches the frame put to sleep,
	// then the chosen branch's.
	arena []machine.MemAccess
	// cp is the state, saved before the first branch when a later one may
	// be taken.
	cp machine.Checkpoint
}

// asleep reports whether t is in nd's sleep set.
func (nd *dnode) asleep(t machine.Transition) bool {
	for i := range nd.sleep {
		if nd.sleep[i].t == t {
			return true
		}
	}
	return false
}

// next returns the first branch after the chosen one that is not asleep,
// or -1.
func (nd *dnode) next() int {
	for i := nd.chosen + 1; i < len(nd.ts); i++ {
		if !nd.asleep(nd.ts[i]) {
			return i
		}
	}
	return -1
}

// runDFS explores exhaustively.
func (e *explorer) runDFS() {
	m, err := e.restart()
	if err != nil {
		e.trapped(nil, err)
		return
	}
	// frames[:depth] is the DFS stack; the frames past it wait for reuse.
	var frames []*dnode
	depth := 0
	// path is the decision prefix the stack spells, path[i] =
	// frames[i].ts[frames[i].chosen], kept in step with every push, pop and
	// advance; cut, leaf and trapped copy it only when they keep it.
	var path []machine.Transition
	// take applies nd's chosen branch and records its footprint.
	take := func(nd *dnode) error {
		t := nd.ts[nd.chosen]
		start := len(nd.arena)
		var err error
		nd.arena, err = m.Apply(t, nd.arena)
		nd.fp = footprint{t: t, accs: nd.arena[start:]}
		return err
	}

	// backtrack puts the finished branch to sleep, finds the deepest
	// frame with an unexplored, non-sleeping sibling, rolls the machine
	// back to it and takes the sibling; false means the whole tree is
	// done. A sibling that traps is recorded, not counted as a state, and
	// put to sleep in turn.
	backtrack := func() bool {
		for depth > 0 {
			nd := frames[depth-1]
			nd.sleep = append(nd.sleep, nd.fp)
			nd.fp = footprint{}
			if nd.chosen = nd.next(); nd.chosen < 0 {
				depth--
				path = path[:depth]
				continue
			}
			path[depth-1] = nd.ts[nd.chosen]
			m.Rollback(&nd.cp)
			if err := take(nd); err != nil {
				e.trapped(path, err)
				continue
			}
			e.res.States++
			return true
		}
		return false
	}

	// Extend greedily to a leaf, pushing a frame per new state. A run
	// whose last transition spends the budget is complete, not cut: its
	// path replays to an outcome, so the leaf is looked for first.
	for {
		if depth == len(frames) {
			frames = append(frames, new(dnode))
		}
		nd := frames[depth]
		nd.ts = m.Enabled(nd.ts[:0])
		if len(nd.ts) == 0 {
			if err := e.leaf(m, path); err != nil {
				e.trapped(path, err)
			}
			if !backtrack() {
				return
			}
			continue
		}
		if e.cut(path) {
			return
		}
		nd.sleep, nd.arena, nd.fp = nd.sleep[:0], nd.arena[:0], footprint{}
		if depth > 0 {
			parent := frames[depth-1]
			for _, ufp := range parent.sleep {
				if independent(ufp, parent.fp) {
					nd.sleep = append(nd.sleep, ufp)
				}
			}
		}
		nd.chosen = -1
		if nd.chosen = nd.next(); nd.chosen < 0 {
			// Every enabled transition sleeps: all behaviours below
			// were already explored along a commuted order.
			e.res.Pruned++
			if !backtrack() {
				return
			}
			continue
		}
		if nd.next() >= 0 {
			m.Save(&nd.cp)
		}
		depth++
		path = append(path, nd.ts[nd.chosen])
		e.res.States++
		if err := take(nd); err != nil {
			e.trapped(path, err)
			if !backtrack() {
				return
			}
		}
	}
}

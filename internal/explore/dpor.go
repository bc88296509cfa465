package explore

import "repro/internal/machine"

// Sleep-set dynamic partial-order reduction over the machine's transition
// system, as a stateless depth-first search: the exploration's one machine
// is reset to its initial state and re-executed along the decision prefix
// whenever the search backtracks (litmus programs are a few dozen
// transitions deep, so replay is cheaper than snapshotting every CPU at
// every node).
//
// The classical sleep-set rule prunes commuting interleavings without
// losing any final state: after the subtree below transition t is fully
// explored, t is put to sleep for its siblings; a child state inherits
// the sleeping transitions that are independent of the move that entered
// it. A state whose every enabled transition sleeps has only
// already-explored behaviours below it and is cut. Independence is the
// footprint relation of explore.go — different CPUs (or two drains of
// distinct coherence chains on one CPU) with disjoint globally-visible
// access sets. Footprints are recorded when a transition first executes;
// they are stable enough for the inheritance filter because an
// independent move cannot redirect another CPU's control flow (loads
// execute in order and invisible instructions touch no memory).

// dnode is one frame of the DFS stack: a state's enabled transitions (in
// machine.Enabled's order), its sleep set, which branch is currently chosen
// below it, and that branch's footprint.
type dnode struct {
	ts     []machine.Transition
	sleep  map[machine.Transition]footprint
	chosen int
	fp     footprint
	// counted guards the States metric: a transition is counted when
	// first executed, not on each prefix replay.
	counted bool
}

// runDFS explores exhaustively.
func (e *explorer) runDFS() {
	var stack []*dnode
	// path is the decision prefix the stack spells, path[i] =
	// stack[i].ts[stack[i].chosen], kept in step with every push, pop and
	// advance; cut, leaf and trapped copy it only when they keep it.
	var path []machine.Transition
	// take applies nd's chosen branch and records its footprint.
	take := func(m *machine.Machine, nd *dnode) error {
		t := nd.ts[nd.chosen]
		accs, err := m.Apply(t)
		nd.fp = footprint{t: t, accs: accs}
		return err
	}

	// backtrack puts the finished branch to sleep and advances the
	// deepest frame with an unexplored, non-sleeping sibling; false
	// means the whole tree is done.
	backtrack := func() bool {
		for len(stack) > 0 {
			nd := stack[len(stack)-1]
			nd.sleep[nd.ts[nd.chosen]] = nd.fp
			advanced := false
			for i := nd.chosen + 1; i < len(nd.ts); i++ {
				if _, asleep := nd.sleep[nd.ts[i]]; !asleep {
					nd.chosen = i
					path[len(path)-1] = nd.ts[i]
					nd.counted = false
					advanced = true
					break
				}
			}
			if advanced {
				return true
			}
			stack = stack[:len(stack)-1]
			path = path[:len(path)-1]
		}
		return false
	}

	for {
		// Re-execute the chosen prefix from the initial state.
		m, err := e.restart()
		if err != nil {
			e.trapped(nil, err)
			return
		}
		replayFailed := false
		for i, nd := range stack {
			if err := take(m, nd); err != nil {
				// Only a frontier transition can fail for the first time
				// (the machine is deterministic given the prefix), so this
				// is the just-advanced branch: record and back off.
				e.trapped(path[:i+1], err)
				replayFailed = true
				break
			}
			if !nd.counted {
				e.res.States++
				nd.counted = true
			}
		}
		if replayFailed {
			if !backtrack() {
				return
			}
			continue
		}

		// Extend greedily to a leaf, pushing a frame per new state. A run
		// whose last transition spends the budget is complete, not cut: its
		// path replays to an outcome, so the leaf is looked for first.
		for {
			ts := m.Enabled(nil)
			if len(ts) == 0 {
				if err := e.leaf(m, path); err != nil {
					e.trapped(path, err)
				}
				if !backtrack() {
					return
				}
				break
			}
			if e.cut(path) {
				return
			}
			nd := &dnode{ts: ts, sleep: make(map[machine.Transition]footprint)}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				for k, ufp := range parent.sleep {
					if independent(ufp, parent.fp) {
						nd.sleep[k] = ufp
					}
				}
			}
			nd.chosen = -1
			for i := range ts {
				if _, asleep := nd.sleep[ts[i]]; !asleep {
					nd.chosen = i
					break
				}
			}
			if nd.chosen < 0 {
				// Every enabled transition sleeps: all behaviours below
				// were already explored along a commuted order.
				e.res.Pruned++
				if !backtrack() {
					return
				}
				break
			}
			stack = append(stack, nd)
			path = append(path, ts[nd.chosen])
			err := take(m, nd)
			nd.counted = true
			e.res.States++
			if err != nil {
				e.trapped(path, err)
				if !backtrack() {
					return
				}
				break
			}
		}
	}
}

// Package opref defines the axiomatic twin of the simulated machine's
// operational weak-memory mode (internal/machine/weak.go): a store-buffer
// (PSO-like) model that admits *exactly* the behaviours the machine can
// exhibit, so the exploration engine can demand 100% outcome coverage
// rather than the one-sided soundness check the broader Arm model allows.
//
// The machine executes loads in order and retires buffered stores out of
// order; mapping each event to the real time it takes effect (reads and
// direct accesses at execution, buffered writes at drain) justifies:
//
//	(sc-per-loc)  coherence: drains never pass older overlapping stores
//	(atomicity)   RMWs flush, then read and write memory directly
//	(GHB)         acyclic(implied ∪ ppo ∪ rfe ∪ fr ∪ co)
//
// where
//
//	ppo     ≜ [R];po;[M]           — loads execute in order, and a later
//	                                 store's drain follows its execution
//	implied ≜ po;[S] ∪ [S];po
//	S       ≜ store-flushing fences ∪ RMW events ∪ release writes
//	          ∪ SC accesses        — everything the machine performs
//	                                 directly on memory after a flush
//
// Weak behaviours thus come only from W×W and W×R relaxation: MP, SB and
// 2+2W have observable weak outcomes, LB does not (its cycle needs W→R
// speculation the in-order machine cannot produce). The model registers as
// a *variant* (resolvable by name, excluded from canonical sweeps): it
// deliberately describes this machine, not an architecture.
package opref

import . "repro/internal/memmodel"

var (
	// strong is [S]: events the machine performs directly on memory at execution
	// time, draining the store buffer first. Flushing fences (the shared
	// Fence.StoreFlush classification), every RMW event (CAS and exclusives
	// flush before operating — including the read of a failed CAS, which is
	// why S is keyed on the event attribute rather than the rmw relation),
	// release writes (STLR), and SC accesses (TCG Rsc/Wsc lower to atomics).
	strong = Set("[S]", func(e Event) bool {
		switch {
		case e.IsInit():
			return false
		case e.Kind == KindFence:
			return e.Fence.StoreFlush()
		}
		return e.RMW != RMWNone || e.SC || (e.Kind == KindWrite && e.Rel)
	})

	// ppo is the machine's preserved program order: everything after a
	// read. Write-to-write and write-to-read pairs are relaxed: that is the
	// store buffer.
	ppo = Def("ppo", Seq(R, Po, M))

	// implied is full ordering at every strong event.
	implied = Def("implied", Union(Seq(Po, strong), Seq(strong, Po)))

	model = Define("op-ref",
		SCPerLoc,
		Atomicity,
		Acyclic("GHB", Union(implied, ppo, Rfe, Fr, Co)),
	)
)

// New returns the operational-reference model.
func New() Model { return model }

// Package litmus represents small concurrent programs (litmus tests) and
// exhaustively enumerates their candidate executions, so that axiomatic
// memory models (internal/models/*) can be evaluated on them.
//
// This machinery is the executable counterpart of the Risotto paper's Agda
// proofs: mapping correctness (Theorem 1 — every behaviour of the translated
// program is a behaviour of the source program) is checked by computing the
// full outcome sets of source and target programs under their respective
// models and testing containment, over a corpus that includes every example
// in the paper plus the classic litmus family.
//
// # Programs
//
// A program is a list of threads; each thread is a list of Ops: plain
// stores/loads (with optional Arm acquire/release/acquirePC or TCG SC
// attributes), compare-and-swap RMWs, fences, and if-conditionals over
// previously loaded registers. All shared locations are implicitly
// initialized to zero by per-location init writes.
//
// # Enumeration
//
// Candidate executions are produced by enumerating (1) each thread's
// control path through its conditionals, (2) success/failure of each RMW on
// the path, (3) a reads-from source for every read, and (4) a coherence
// order per location; then replaying each thread's register dataflow to a
// fixpoint to compute values, rejecting candidates whose branch decisions,
// RMW success bits, or read values are inconsistent. Dependency relations
// (data, ctrl, addr) are recorded during replay from load provenance.
//
// Candidates whose values would require cyclic (out-of-thin-air)
// justification are not generated; none of the models studied here admit
// them for the corpus used.
package litmus

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/memmodel"
	"repro/internal/rel"
)

// Reg names a thread-local register.
type Reg string

// Loc names a shared memory location.
type Loc string

// Attr carries the model-relevant access attributes.
type Attr struct {
	// Acq marks Arm acquire loads (LDAR/LDAXR and the read of casal).
	Acq bool
	// AcqPC marks Arm acquirePC loads (LDAPR).
	AcqPC bool
	// Rel marks Arm release stores (STLR/STLXR and the write of casal).
	Rel bool
	// SC marks TCG IR RMW accesses (Rsc/Wsc).
	SC bool
	// Class distinguishes Arm RMW families (amo vs lxsx) for CAS ops.
	Class memmodel.RMWClass
}

// Op is one statement of a litmus thread.
type Op interface{ isOp() }

// Store writes the constant Val to Loc.
type Store struct {
	Loc Loc
	Val int64
	Attr
}

// StoreReg writes the current value of Src to Loc (creating a data
// dependency from the loads that produced Src).
type StoreReg struct {
	Loc Loc
	Src Reg
	Attr
}

// Load reads Loc into Dst.
type Load struct {
	Dst Reg
	Loc Loc
	Attr
}

// LoadIdx reads into Dst from one of two locations selected by the low bit
// of Idx — Loc0 when even, Loc1 when odd — creating an *address dependency*
// from the loads that produced Idx (Arm's dob orders it; the TCG IR model
// does not).
type LoadIdx struct {
	Dst        Reg
	Idx        Reg
	Loc0, Loc1 Loc
	Attr
}

// StoreIdx stores the constant Val to Loc0/Loc1 selected by the low bit of
// Idx — an address dependency into a write.
type StoreIdx struct {
	Idx        Reg
	Loc0, Loc1 Loc
	Val        int64
	Attr
}

// CAS is a compare-and-swap RMW: atomically, if [Loc] == Expect then
// [Loc] = New. The value read is stored into Dst when Dst is non-empty.
// A successful CAS generates an rmw-related read/write pair; a failed CAS
// generates only the read (§2.4, §5.3).
type CAS struct {
	Loc    Loc
	Expect int64
	New    int64
	Dst    Reg
	Attr
}

// Fence emits a fence event of the given flavour.
type Fence struct {
	K memmodel.Fence
}

// MovImm sets Dst to a constant. It generates no event and clears the
// register's load provenance — which is exactly what a read-after-write
// or read-after-read elimination does to the eliminated load's destination,
// so transformation tests (FMR, Fig. 10) are expressed with it.
type MovImm struct {
	Dst Reg
	Val int64
}

// If executes Body only when the condition over Reg holds. The condition
// reads a previously loaded register, creating a control dependency from
// the loads that produced it to every later event of the thread.
type If struct {
	Reg  Reg
	Eq   bool // true: Reg == Val; false: Reg != Val
	Val  int64
	Body []Op
}

func (Store) isOp()    {}
func (StoreReg) isOp() {}
func (Load) isOp()     {}
func (LoadIdx) isOp()  {}
func (StoreIdx) isOp() {}
func (CAS) isOp()      {}
func (Fence) isOp()    {}
func (MovImm) isOp()   {}
func (If) isOp()       {}

// Program is a named litmus test.
type Program struct {
	Name    string
	Threads [][]Op
}

// Locations returns every shared location mentioned by the program, sorted.
func (p *Program) Locations() []Loc {
	seen := make(map[Loc]bool)
	var walk func(ops []Op)
	walk = func(ops []Op) {
		for _, op := range ops {
			switch o := op.(type) {
			case Store:
				seen[o.Loc] = true
			case StoreReg:
				seen[o.Loc] = true
			case Load:
				seen[o.Loc] = true
			case LoadIdx:
				seen[o.Loc0] = true
				seen[o.Loc1] = true
			case StoreIdx:
				seen[o.Loc0] = true
				seen[o.Loc1] = true
			case CAS:
				seen[o.Loc] = true
			case If:
				walk(o.Body)
			}
		}
	}
	for _, t := range p.Threads {
		walk(t)
	}
	locs := make([]Loc, 0, len(seen))
	for l := range seen {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}

// ---- Path linearization ----------------------------------------------

// linOp is one element of a linearized thread path: either a concrete op
// or a branch assumption that replay must validate.
type linOp struct {
	op     Op          // nil for assumptions
	assume *assumption // nil for ops
}

type assumption struct {
	reg Reg
	eq  bool
	val int64
}

// linearize enumerates all control paths of a thread.
func linearize(ops []Op) [][]linOp {
	paths := [][]linOp{nil}
	for _, op := range ops {
		ifOp, isIf := op.(If)
		if !isIf {
			for i := range paths {
				paths[i] = append(paths[i], linOp{op: op})
			}
			continue
		}
		bodyPaths := linearize(ifOp.Body)
		var next [][]linOp
		for _, p := range paths {
			// Taken branch(es).
			for _, bp := range bodyPaths {
				taken := make([]linOp, 0, len(p)+1+len(bp))
				taken = append(taken, p...)
				taken = append(taken, linOp{assume: &assumption{ifOp.Reg, ifOp.Eq, ifOp.Val}})
				taken = append(taken, bp...)
				next = append(next, taken)
			}
			// Not-taken branch.
			notTaken := make([]linOp, 0, len(p)+1)
			notTaken = append(notTaken, p...)
			notTaken = append(notTaken, linOp{assume: &assumption{ifOp.Reg, !ifOp.Eq, ifOp.Val}})
			next = append(next, notTaken)
		}
		paths = next
	}
	return paths
}

// countChoices returns how many binary choice points a path contains:
// each CAS contributes a success/failure bit, each LoadIdx/StoreIdx a
// location-selection bit.
func countChoices(path []linOp) int {
	n := 0
	for _, lo := range path {
		switch lo.op.(type) {
		case CAS, LoadIdx, StoreIdx:
			n++
		}
	}
	return n
}

// ---- Skeletons ---------------------------------------------------------

// skelEvent is an event before value resolution.
type skelEvent struct {
	ev memmodel.Event
	// source describes how the event's value is produced during replay.
	srcReg   Reg  // for StoreReg writes
	constVal bool // value already known (constant stores, CAS writes)
}

// threadSkel is one thread's event skeleton for a fixed path and fixed
// choice bits (CAS success, indexed-access location selection), consumed
// in path order.
type threadSkel struct {
	path []linOp
	bits []bool
}

// Candidate executions carry their final register files so outcomes can
// observe registers (the paper observes thread-local variables by
// augmenting with shared locations; recording registers is equivalent and
// keeps the graphs small).
type Candidate struct {
	X *memmodel.Execution
	// Regs[t][r] is thread t's final value of register r.
	Regs []map[Reg]int64
}

// EnumerateCandidates produces every well-formed candidate execution of
// p. fn is called for each; enumeration stops if fn returns false. (The
// name Enumerate belongs to the model-level outcome API in enumerate.go.)
func EnumerateCandidates(p *Program, fn func(*Candidate) bool) {
	forEachJob(p, func(j *skeletonJob) bool {
		return j.enumerate(nil, fn)
	})
}

// forEachJob builds the skeleton job for every skeleton combination (the
// Cartesian product of per-thread control paths × choice bits) and invokes
// fn on each, stopping early if fn returns false.
func forEachJob(p *Program, fn func(*skeletonJob) bool) {
	locs := p.Locations()
	perThread := skeletonsPerThread(p)

	choice := make([]int, len(p.Threads))
	var rec func(t int) bool
	rec = func(t int) bool {
		if t == len(p.Threads) {
			skels := make([]threadSkel, len(p.Threads))
			for i, c := range choice {
				skels[i] = perThread[i][c]
			}
			return fn(newSkeletonJob(locs, skels))
		}
		for i := range perThread[t] {
			choice[t] = i
			if !rec(t + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// skeletonsPerThread computes, per thread, every (path, choiceBits) skeleton.
func skeletonsPerThread(p *Program) [][]threadSkel {
	perThread := make([][]threadSkel, len(p.Threads))
	for t, ops := range p.Threads {
		for _, path := range linearize(ops) {
			n := countChoices(path)
			for mask := 0; mask < 1<<n; mask++ {
				bits := make([]bool, n)
				for i := 0; i < n; i++ {
					bits[i] = mask&(1<<i) != 0
				}
				perThread[t] = append(perThread[t], threadSkel{path, bits})
			}
		}
	}
	return perThread
}

// skeletonJob is the prepared event structure for one skeleton combination
// (fixed control paths and choice bits across all threads). It is immutable
// once built: enumerate may be called concurrently from several goroutines
// with disjoint rf prefixes, which is how Enumerate shards the search.
type skeletonJob struct {
	locs      []Loc
	skels     []threadSkel
	events    []memmodel.Event
	sev       []skelEvent
	po, rmw   *rel.Relation
	eventIDs  [][]int
	reads     []int
	writersOf map[string][]int
	// rfSlot[id] is the index into reads of read event id, -1 otherwise.
	rfSlot []int
	// data, addr, ctrl are the syntactic dependency relations. They are
	// structural: provenance tracking depends only on the fixed path and
	// choice bits, never on resolved values, so the relations are computed
	// once here instead of per candidate.
	data, addr, ctrl *rel.Relation
	// skel is the candidate-invariant part shared by every Execution this
	// job emits; memmodel.NewChecker hoists per-skeleton work off it.
	skel *memmodel.Skeleton
}

// newSkeletonJob builds the event set for fixed paths/success bits and
// precomputes the read list and per-location writer candidates.
func newSkeletonJob(locs []Loc, skels []threadSkel) *skeletonJob {
	var events []memmodel.Event
	var sev []skelEvent
	po := rel.New()
	rmw := rel.New()

	addEvent := func(e memmodel.Event, src Reg, constVal bool) int {
		e.ID = len(events)
		events = append(events, e)
		sev = append(sev, skelEvent{ev: e, srcReg: src, constVal: constVal})
		return e.ID
	}

	// Init writes.
	initOf := make(map[Loc]int)
	for _, l := range locs {
		id := addEvent(memmodel.Event{
			Thread: memmodel.InitThread,
			Kind:   memmodel.KindWrite,
			Loc:    string(l),
			Val:    0,
		}, "", true)
		initOf[l] = id
	}

	// Thread events: eventIDs[t] lists thread t's events in program order.
	eventIDs := make([][]int, len(skels))
	for t, sk := range skels {
		choiceIdx := 0
		nextBit := func() bool {
			b := sk.bits[choiceIdx]
			choiceIdx++
			return b
		}
		var ids []int
		for _, lo := range sk.path {
			if lo.assume != nil {
				continue
			}
			switch o := lo.op.(type) {
			case Store:
				id := addEvent(memmodel.Event{
					Thread: t, Kind: memmodel.KindWrite, Loc: string(o.Loc),
					Val: o.Val, Acq: o.Acq, AcqPC: o.AcqPC, Rel: o.Rel, SC: o.SC,
				}, "", true)
				ids = append(ids, id)
			case StoreReg:
				id := addEvent(memmodel.Event{
					Thread: t, Kind: memmodel.KindWrite, Loc: string(o.Loc),
					Acq: o.Acq, AcqPC: o.AcqPC, Rel: o.Rel, SC: o.SC,
				}, o.Src, false)
				ids = append(ids, id)
			case Load:
				id := addEvent(memmodel.Event{
					Thread: t, Kind: memmodel.KindRead, Loc: string(o.Loc),
					Acq: o.Acq, AcqPC: o.AcqPC, SC: o.SC,
				}, "", false)
				ids = append(ids, id)
			case LoadIdx:
				loc := o.Loc0
				if nextBit() {
					loc = o.Loc1
				}
				id := addEvent(memmodel.Event{
					Thread: t, Kind: memmodel.KindRead, Loc: string(loc),
					Acq: o.Acq, AcqPC: o.AcqPC, SC: o.SC,
				}, "", false)
				ids = append(ids, id)
			case StoreIdx:
				loc := o.Loc0
				if nextBit() {
					loc = o.Loc1
				}
				id := addEvent(memmodel.Event{
					Thread: t, Kind: memmodel.KindWrite, Loc: string(loc),
					Val: o.Val, Rel: o.Rel, SC: o.SC,
				}, "", true)
				ids = append(ids, id)
			case CAS:
				ok := nextBit()
				rid := addEvent(memmodel.Event{
					Thread: t, Kind: memmodel.KindRead, Loc: string(o.Loc),
					Acq: o.Acq, AcqPC: o.AcqPC, SC: o.SC, RMW: o.Class,
				}, "", false)
				ids = append(ids, rid)
				if ok {
					wid := addEvent(memmodel.Event{
						Thread: t, Kind: memmodel.KindWrite, Loc: string(o.Loc),
						Val: o.New, Rel: o.Rel, SC: o.SC, RMW: o.Class,
					}, "", true)
					ids = append(ids, wid)
					rmw.Add(rid, wid)
				}
			case Fence:
				id := addEvent(memmodel.Event{
					Thread: t, Kind: memmodel.KindFence, Fence: o.K,
				}, "", true)
				ids = append(ids, id)
			case MovImm:
				// No event.
			}
		}
		eventIDs[t] = ids
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				po.Add(ids[i], ids[j])
			}
		}
	}

	// Precompute rf enumeration inputs: the reads, and for each location the
	// candidate writers.
	reads := make([]int, 0)
	for _, e := range events {
		if e.Kind == memmodel.KindRead {
			reads = append(reads, e.ID)
		}
	}
	writersOf := make(map[string][]int)
	for _, e := range events {
		if e.Kind == memmodel.KindWrite {
			writersOf[e.Loc] = append(writersOf[e.Loc], e.ID)
		}
	}
	rfSlot := make([]int, len(events))
	for i := range rfSlot {
		rfSlot[i] = -1
	}
	for i, r := range reads {
		rfSlot[r] = i
	}

	data, addrRel, ctrl := buildDeps(skels, eventIDs)
	j := &skeletonJob{
		locs:      locs,
		skels:     skels,
		events:    events,
		sev:       sev,
		po:        po,
		rmw:       rmw,
		eventIDs:  eventIDs,
		reads:     reads,
		writersOf: writersOf,
		rfSlot:    rfSlot,
		data:      data,
		addr:      addrRel,
		ctrl:      ctrl,
	}
	j.skel = &memmodel.Skeleton{
		Events: events,
		Po:     po,
		Rmw:    rmw,
		Data:   data,
		Addr:   addrRel,
		Ctrl:   ctrl,
	}
	return j
}

// buildDeps extracts the data/addr/ctrl dependency relations by walking
// each thread's path tracking load provenance only — no values. Replay
// performs the identical provenance updates (MovImm clears, loads
// overwrite), so the dependency edges of every accepted candidate equal
// this structural set; see TestDepsMatchReplay.
func buildDeps(skels []threadSkel, eventIDs [][]int) (data, addrRel, ctrl *rel.Relation) {
	data, addrRel, ctrl = rel.New(), rel.New(), rel.New()
	for t := range skels {
		prov := make(map[Reg][]int)
		var ctrlSrcs []int
		choiceIdx := 0
		nextBit := func() bool {
			b := skels[t].bits[choiceIdx]
			choiceIdx++
			return b
		}
		evPos := 0
		nextEvent := func() int {
			id := eventIDs[t][evPos]
			evPos++
			return id
		}
		addCtrl := func(id int) {
			for _, s := range ctrlSrcs {
				ctrl.Add(s, id)
			}
		}
		for _, lo := range skels[t].path {
			if lo.assume != nil {
				ctrlSrcs = append(ctrlSrcs, prov[lo.assume.reg]...)
				continue
			}
			switch o := lo.op.(type) {
			case Store:
				addCtrl(nextEvent())
			case StoreReg:
				id := nextEvent()
				addCtrl(id)
				for _, s := range prov[o.Src] {
					data.Add(s, id)
				}
			case Load:
				id := nextEvent()
				addCtrl(id)
				prov[o.Dst] = []int{id}
			case LoadIdx:
				nextBit()
				id := nextEvent()
				addCtrl(id)
				for _, s := range prov[o.Idx] {
					addrRel.Add(s, id)
				}
				prov[o.Dst] = []int{id}
			case StoreIdx:
				nextBit()
				id := nextEvent()
				addCtrl(id)
				for _, s := range prov[o.Idx] {
					addrRel.Add(s, id)
				}
			case CAS:
				success := nextBit()
				rid := nextEvent()
				addCtrl(rid)
				if o.Dst != "" {
					prov[o.Dst] = []int{rid}
				}
				if success {
					addCtrl(nextEvent())
				}
			case Fence:
				addCtrl(nextEvent())
			case MovImm:
				prov[o.Dst] = nil
			}
		}
	}
	return data, addrRel, ctrl
}

// enumerate walks every rf assignment extending the fixed prefix (rfPrefix[i]
// is the chosen writer for reads[i]), then every coherence order, invoking fn
// per candidate. Returns false to stop the overall enumeration. Safe for
// concurrent use with disjoint prefixes: all job state is read-only here.
func (j *skeletonJob) enumerate(rfPrefix []int, fn func(*Candidate) bool) bool {
	rfChoice := make([]int, len(j.reads))
	copy(rfChoice, rfPrefix)
	var recRF func(i int) bool
	recRF = func(i int) bool {
		if i == len(j.reads) {
			return j.enumerateCO(rfChoice, fn)
		}
		for _, w := range j.writersOf[j.events[j.reads[i]].Loc] {
			rfChoice[i] = w
			if !recRF(i + 1) {
				return false
			}
		}
		return true
	}
	return recRF(len(rfPrefix))
}

// enumerateCO resolves values for the chosen rf, validates the candidate,
// then enumerates coherence orders. Dependency relations are not touched
// here: they are structural and already hoisted onto the job.
func (j *skeletonJob) enumerateCO(rfChoice []int, fn func(*Candidate) bool) bool {
	events, sev, skels := j.events, j.sev, j.skels
	eventIDs := j.eventIDs
	reads, locs := j.reads, j.locs

	rfOf := make([]int, len(events)) // read event ID -> writer event ID
	for i, r := range reads {
		rfOf[r] = rfChoice[i]
	}

	// Value resolution to fixpoint + validation.
	vals := make([]int64, len(events))
	known := make([]bool, len(events))
	nKnown := 0
	setKnown := func(id int, v int64) {
		vals[id] = v
		if !known[id] {
			known[id] = true
			nKnown++
		}
	}
	for _, se := range sev {
		if se.constVal {
			setKnown(se.ev.ID, se.ev.Val)
		}
	}

	type replayResult struct {
		ok       bool // assumptions/choice bits hold so far
		complete bool // all values resolved
		regs     map[Reg]int64
	}

	replayThread := func(t int) replayResult {
		res := replayResult{ok: true, complete: true, regs: make(map[Reg]int64)}
		prov := make(map[Reg][]int) // load provenance per register
		choiceIdx := 0
		nextBit := func() bool {
			b := skels[t].bits[choiceIdx]
			choiceIdx++
			return b
		}
		evPos := 0
		nextEvent := func() int {
			id := eventIDs[t][evPos]
			evPos++
			return id
		}
		for _, lo := range skels[t].path {
			if lo.assume != nil {
				a := lo.assume
				v, haveVal := res.regs[a.reg]
				srcsKnown := true
				for _, s := range prov[a.reg] {
					if !known[s] {
						srcsKnown = false
					}
				}
				if !haveVal || !srcsKnown {
					res.complete = false
					return res
				}
				if (v == a.val) != a.eq {
					res.ok = false
					return res
				}
				continue
			}
			switch o := lo.op.(type) {
			case Store:
				nextEvent()
			case StoreReg:
				id := nextEvent()
				v, haveVal := res.regs[o.Src]
				allKnown := haveVal
				for _, s := range prov[o.Src] {
					if !known[s] {
						allKnown = false
					}
				}
				if allKnown {
					setKnown(id, v)
				} else {
					res.complete = false
				}
			case Load:
				id := nextEvent()
				w := rfOf[id]
				if known[w] {
					setKnown(id, vals[w])
					res.regs[o.Dst] = vals[w]
				} else {
					res.complete = false
				}
				prov[o.Dst] = []int{id}
			case LoadIdx:
				chosen := nextBit()
				id := nextEvent()
				idxVal, haveIdx := res.regs[o.Idx]
				idxKnown := haveIdx
				for _, s := range prov[o.Idx] {
					if !known[s] {
						idxKnown = false
					}
				}
				if !idxKnown {
					res.complete = false
				} else if (idxVal&1 == 1) != chosen {
					res.ok = false
					return res
				}
				w := rfOf[id]
				if known[w] {
					setKnown(id, vals[w])
					res.regs[o.Dst] = vals[w]
				} else {
					res.complete = false
				}
				prov[o.Dst] = []int{id}
			case StoreIdx:
				chosen := nextBit()
				nextEvent()
				idxVal, haveIdx := res.regs[o.Idx]
				idxKnown := haveIdx
				for _, s := range prov[o.Idx] {
					if !known[s] {
						idxKnown = false
					}
				}
				if !idxKnown {
					res.complete = false
				} else if (idxVal&1 == 1) != chosen {
					res.ok = false
					return res
				}
			case CAS:
				success := nextBit()
				rid := nextEvent()
				w := rfOf[rid]
				if known[w] {
					setKnown(rid, vals[w])
					if (vals[w] == o.Expect) != success {
						res.ok = false
						return res
					}
					if o.Dst != "" {
						res.regs[o.Dst] = vals[w]
					}
				} else {
					res.complete = false
				}
				if o.Dst != "" {
					prov[o.Dst] = []int{rid}
				}
				if success {
					// Write value is the constant o.New, already known.
					nextEvent()
				}
			case Fence:
				nextEvent()
			case MovImm:
				res.regs[o.Dst] = o.Val
				prov[o.Dst] = nil
			}
		}
		return res
	}

	// Fixpoint: replay until value knowledge stabilizes.
	var results []replayResult
	for iter := 0; ; iter++ {
		results = results[:0]
		allOK, allComplete := true, true
		knownBefore := nKnown
		for t := range skels {
			r := replayThread(t)
			results = append(results, r)
			if !r.ok {
				allOK = false
			}
			if !r.complete {
				allComplete = false
			}
		}
		if !allOK {
			return true // inconsistent candidate; skip, continue enumeration
		}
		if allComplete {
			break
		}
		if nKnown == knownBefore {
			// Cyclic value dependency (thin air) — not generated.
			return true
		}
		if iter > len(events)+2 {
			return true
		}
	}

	// Materialize values into events.
	resolved := make([]memmodel.Event, len(events))
	copy(resolved, events)
	for id := range resolved {
		resolved[id].Val = vals[id]
	}

	// rf relation (value consistency holds by construction).
	rf := rel.NewSized(len(events))
	for i, r := range reads {
		rf.Add(rfChoice[i], r)
	}

	regs := make([]map[Reg]int64, len(results))
	for t, rr := range results {
		regs[t] = rr.regs
	}

	// co enumeration: per-location total orders over non-init writes with
	// the init write first.
	var locList []string
	for _, l := range locs {
		locList = append(locList, string(l))
	}
	perLocWriters := make(map[string][]int)
	initWriter := make(map[string]int)
	for _, e := range resolved {
		if e.Kind != memmodel.KindWrite {
			continue
		}
		if e.IsInit() {
			initWriter[e.Loc] = e.ID
		} else {
			perLocWriters[e.Loc] = append(perLocWriters[e.Loc], e.ID)
		}
	}

	co := rel.New()
	var recCO func(li int) bool
	recCO = func(li int) bool {
		if li == len(locList) {
			// Candidate-invariant relations are shared from the job; only
			// the events (values), rf and co are per-candidate.
			x := &memmodel.Execution{
				Events: resolved,
				Po:     j.po,
				Rf:     rf,
				Co:     co.Clone(),
				Rmw:    j.rmw,
				Data:   j.data,
				Addr:   j.addr,
				Ctrl:   j.ctrl,
			}
			return fn(&Candidate{X: x, Regs: regs})
		}
		loc := locList[li]
		ws := perLocWriters[loc]
		init := initWriter[loc]
		cont := true
		rel.TotalOrders(ws, func(order *rel.Relation) bool {
			saved := co
			co = co.Union(order)
			for _, w := range ws {
				co.Add(init, w)
			}
			cont = recCO(li + 1)
			co = saved
			return cont
		})
		return cont
	}
	return recCO(0)
}

// ---- Outcomes -----------------------------------------------------------

// Outcome is a canonical rendering of one observable result: final register
// values per thread followed by final memory values.
type Outcome string

// OutcomeOf renders a candidate's observable state: final register values
// per thread followed by final memory values. Exported so external
// packages (generator tests, differential harnesses) can compute outcome
// sets through EnumerateCandidates and compare them against Enumerate's.
func OutcomeOf(c *Candidate) Outcome { return outcomeOf(c) }

// outcomeOf renders a candidate's observable state.
func outcomeOf(c *Candidate) Outcome {
	var parts []string
	for t, regs := range c.Regs {
		keys := make([]string, 0, len(regs))
		for r := range regs {
			keys = append(keys, string(r))
		}
		sort.Strings(keys)
		for _, r := range keys {
			parts = append(parts, fmt.Sprintf("%d:%s=%d", t, r, regs[Reg(r)]))
		}
	}
	parts = append(parts, memmodel.BehavKey(c.X.Behav()))
	return Outcome(strings.Join(parts, " "))
}

// OutcomeSet is a set of observable outcomes.
type OutcomeSet map[Outcome]bool

// Outcomes computes the set of outcomes of p admitted by model m. Each
// skeleton job gets one memmodel.Checker (the candidate-invariant
// relations evaluated once) reused across its whole rf×co product.
func Outcomes(p *Program, m memmodel.Model) OutcomeSet {
	out := make(OutcomeSet)
	forEachJob(p, func(j *skeletonJob) bool {
		ck := memmodel.NewChecker(m, j.skel)
		cont := j.enumerate(nil, func(c *Candidate) bool {
			if ck.Consistent(c.X) {
				out[outcomeOf(c)] = true
			}
			return true
		})
		ck.Release()
		return cont
	})
	return out
}

// Contains reports whether s contains an outcome matching every given
// "t:reg=val" or "loc=val" fragment (all fragments must appear in the same
// outcome).
func (s OutcomeSet) Contains(fragments ...string) bool {
	for o := range s {
		all := true
		for _, f := range fragments {
			if !containsToken(string(o), f) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// containsToken reports whether tok occurs in s as a whole space-delimited
// token. Matching whole tokens (never substrings) is what keeps fragments
// like "1:a=1" from matching inside "11:a=1", or "a=1" inside "a=10". The
// scan is allocation-free: Contains sits on the hot path of expectation
// checking over full outcome sets.
func containsToken(s, tok string) bool {
	if tok == "" || strings.IndexByte(tok, ' ') >= 0 {
		// Outcome tokens are never empty and never contain spaces; a
		// fragment that does can only be a malformed query.
		return false
	}
	for i := 0; i < len(s); {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		start := i
		for i < len(s) && s[i] != ' ' {
			i++
		}
		if s[start:i] == tok {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every outcome of s is in t — the executable form
// of Theorem 1's behaviour containment.
func (s OutcomeSet) SubsetOf(t OutcomeSet) bool {
	for o := range s {
		if !t[o] {
			return false
		}
	}
	return true
}

// Minus returns outcomes in s but not in t (the "new behaviours" a broken
// mapping introduces).
func (s OutcomeSet) Minus(t OutcomeSet) []Outcome {
	var out []Outcome
	for o := range s {
		if !t[o] {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sorted returns the outcomes in deterministic order.
func (s OutcomeSet) Sorted() []Outcome {
	out := make([]Outcome, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

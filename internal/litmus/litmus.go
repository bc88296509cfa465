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
// control path through its conditionals, (2) success/failure of each RMW
// and the location of each indexed access on the path, (3) a reads-from
// source for every read, and (4) a coherence order per location.
//
// Each thread is lowered once per (path, choice bits) — by lower, the only
// code that inspects an Op during enumeration — into its events, their
// po/rmw/ctrl/data/addr edges and a flat list of value steps. The
// dependency edges are emitted there, where the event is, from the
// reaching definition of the register the event reads. That is sound
// before any rf is chosen because a register's provenance is at most one
// load and the path fixes it: a register holds nothing (reading it is an
// error), the immediate of a mov (no dependency), or the value of the one
// read event that last loaded it. Per rf choice the steps are then run to
// a fixpoint to compute values, rejecting candidates whose branch
// decisions, RMW success bits or index bits are inconsistent with them.
//
// Candidates whose values would require cyclic (out-of-thin-air)
// justification are not generated; none of the models studied here admit
// them for the corpus used.
package litmus

import (
	"fmt"
	"sort"
	"strconv"
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
// or a branch assumption that value resolution must validate.
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

// ---- Thread code -------------------------------------------------------

// operand is what a register read resolves to on a fixed path — its
// reaching definition: the read event (thread-local index) that last loaded
// the register, or, when ev < 0, the immediate a mov left in it.
type operand struct {
	ev  int
	imm int64
}

type stepKind uint8

const (
	stepRead   stepKind = iota // event ev takes the value of its rf source
	stepWrite                  // event ev takes the value of src (storereg)
	stepAssume                 // branch decision: (src == val) must equal want; unresolved, it blocks the thread
	stepCAS                    // success bit: (src == val) must equal want
	stepIndex                  // location bit: (src is odd) must equal want
)

// step is one value-resolution action of a thread, run in path order once
// an rf is chosen. Event indices are thread-local.
type step struct {
	kind stepKind
	ev   int     // stepRead, stepWrite: the event resolved
	src  operand // every kind but stepRead: the value consumed
	val  int64
	want bool
}

// regDef is the definition of a register that reaches the end of the path.
type regDef struct {
	reg Reg
	def operand
}

// threadCode is one thread lowered for one control path and one setting of
// its choice bits: everything enumeration needs of the thread, with no Op
// left to interpret. Event IDs and relation edges are thread-local;
// skeletonJob.reset relocates them.
type threadCode struct {
	events                []memmodel.Event
	rmw, data, addr, ctrl []rel.Pair
	steps                 []step
	regs                  []regDef
	// choices is how many choice bits the path consumes: one per CAS
	// (success/failure), one per LoadIdx/StoreIdx (location selection).
	choices int
}

// lower compiles one linearized path of thread t, taking choice bit i from
// bit i of mask. It is the only place enumeration inspects an Op: the event
// each op emits, the dependency edges into it and the steps that later give
// it a value all come from this one walk. A register read is resolved here
// to its reaching definition, which the path fixes: a register holds either
// nothing, an immediate, or the value of exactly one read event, so its
// provenance never depends on the values an rf choice produces. A read with
// no reaching definition is an error.
func lower(prog string, t int, path []linOp, mask int) (*threadCode, error) {
	tc := &threadCode{}
	defs := make(map[Reg]operand)
	var ctrlSrcs []int
	var err error
	use := func(r Reg) operand {
		d, ok := defs[r]
		if !ok && err == nil {
			err = fmt.Errorf("litmus %q: thread %d reads register %q before anything on the path assigns it", prog, t, r)
		}
		return d
	}
	choose := func() bool {
		tc.choices++
		return mask>>(tc.choices-1)&1 == 1
	}
	emit := func(e memmodel.Event) int {
		e.ID, e.Thread = len(tc.events), t
		tc.events = append(tc.events, e)
		for _, s := range ctrlSrcs {
			tc.ctrl = append(tc.ctrl, rel.Pair{From: s, To: e.ID})
		}
		return e.ID
	}
	read := func(dst Reg, loc Loc, a Attr, class memmodel.RMWClass) int {
		id := emit(memmodel.Event{Kind: memmodel.KindRead, Loc: string(loc),
			Acq: a.Acq, AcqPC: a.AcqPC, SC: a.SC, RMW: class})
		tc.steps = append(tc.steps, step{kind: stepRead, ev: id})
		if dst != "" {
			defs[dst] = operand{ev: id}
		}
		return id
	}
	// dep records a dependency edge from the load src came from, if any.
	dep := func(edges *[]rel.Pair, src operand, id int) {
		if src.ev >= 0 {
			*edges = append(*edges, rel.Pair{From: src.ev, To: id})
		}
	}
	// index consumes the location bit of an indexed access.
	index := func(idx Reg, loc0, loc1 Loc) (operand, Loc) {
		src, odd := use(idx), choose()
		tc.steps = append(tc.steps, step{kind: stepIndex, src: src, want: odd})
		if odd {
			return src, loc1
		}
		return src, loc0
	}
	for _, lo := range path {
		if a := lo.assume; a != nil {
			src := use(a.reg)
			if src.ev >= 0 {
				ctrlSrcs = append(ctrlSrcs, src.ev)
			}
			tc.steps = append(tc.steps, step{kind: stepAssume, src: src, val: a.val, want: a.eq})
			continue
		}
		switch o := lo.op.(type) {
		case Store:
			emit(memmodel.Event{Kind: memmodel.KindWrite, Loc: string(o.Loc), Val: o.Val,
				Acq: o.Acq, AcqPC: o.AcqPC, Rel: o.Rel, SC: o.SC})
		case StoreReg:
			src := use(o.Src)
			id := emit(memmodel.Event{Kind: memmodel.KindWrite, Loc: string(o.Loc),
				Acq: o.Acq, AcqPC: o.AcqPC, Rel: o.Rel, SC: o.SC})
			dep(&tc.data, src, id)
			// A step even for an immediate: the value is there once the
			// thread gets this far, not before (see stepAssume).
			tc.steps = append(tc.steps, step{kind: stepWrite, ev: id, src: src})
		case Load:
			read(o.Dst, o.Loc, o.Attr, memmodel.RMWNone)
		case LoadIdx:
			src, loc := index(o.Idx, o.Loc0, o.Loc1)
			dep(&tc.addr, src, read(o.Dst, loc, o.Attr, memmodel.RMWNone))
		case StoreIdx:
			src, loc := index(o.Idx, o.Loc0, o.Loc1)
			dep(&tc.addr, src, emit(memmodel.Event{Kind: memmodel.KindWrite, Loc: string(loc),
				Val: o.Val, Rel: o.Rel, SC: o.SC}))
		case CAS:
			ok := choose()
			rid := read(o.Dst, o.Loc, o.Attr, o.Class)
			tc.steps = append(tc.steps, step{kind: stepCAS, src: operand{ev: rid}, val: o.Expect, want: ok})
			if ok {
				wid := emit(memmodel.Event{Kind: memmodel.KindWrite, Loc: string(o.Loc), Val: o.New,
					Rel: o.Rel, SC: o.SC, RMW: o.Class})
				tc.rmw = append(tc.rmw, rel.Pair{From: rid, To: wid})
			}
		case Fence:
			emit(memmodel.Event{Kind: memmodel.KindFence, Fence: o.K})
		case MovImm:
			defs[o.Dst] = operand{ev: -1, imm: o.Val}
		}
	}
	for r, d := range defs {
		tc.regs = append(tc.regs, regDef{r, d})
	}
	// In name order, the order an outcome lists them in.
	sort.Slice(tc.regs, func(a, b int) bool { return tc.regs[a].reg < tc.regs[b].reg })
	return tc, err
}

// code is a program lowered for enumeration: its locations and, per thread,
// one threadCode for every (control path, choice bits) pair.
type code struct {
	name    string
	locs    []Loc
	threads [][]*threadCode
}

// compile lowers every thread of p. It fails on a register read that some
// path reaches with nothing assigned to the register: such a read has no
// value under any rf, and enumerating around it would silently drop every
// execution of the path.
func compile(p *Program) (*code, error) {
	c := &code{name: p.Name, locs: p.Locations(), threads: make([][]*threadCode, len(p.Threads))}
	for t, ops := range p.Threads {
		for _, path := range linearize(ops) {
			// The first lowering (all bits clear) says how many bits there are.
			for mask, n := 0, 0; mask < 1<<n; mask++ {
				tc, err := lower(p.Name, t, path, mask)
				if err != nil {
					return nil, err
				}
				n = tc.choices
				c.threads[t] = append(c.threads[t], tc)
			}
		}
	}
	return c, nil
}

// mustCompile is compile for the entrypoints that cannot return an error.
func mustCompile(p *Program) *code {
	c, err := compile(p)
	if err != nil {
		panic(err)
	}
	return c
}

// ---- Skeletons ---------------------------------------------------------

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
// p. fn is called for each; enumeration stops if fn returns false. c and
// everything it points to — the skeleton's relations (Po, Rmw and the
// dependencies) as much as the events, Rf, Co and the register files — are
// valid only until fn returns: one storage per enumeration is rewritten for
// the next candidate and the next skeleton. (The name Enumerate belongs to
// the model-level outcome API in enumerate.go.) Like Outcomes it panics on
// a program that reads an unassigned register; Enumerate returns that as an
// error.
func EnumerateCandidates(p *Program, fn func(c *Candidate) bool) {
	emit := func(s *scratch) bool { return fn(&s.c) }
	mustCompile(p).forEachJob(func(j *skeletonJob) bool { return j.enumerate(emit) })
}

// forEachJob sets one skeleton job to every skeleton combination in turn
// (the Cartesian product of per-thread control paths × choice bits) and
// invokes fn on it, stopping early if fn returns false. Enumeration is
// serial, so the job and the scratch it enumerates in are allocated once,
// for the largest combination, and rewritten for the next one: fn keeps
// neither past its return.
func (c *code) forEachJob(fn func(*skeletonJob) bool) {
	j := c.newJob()
	var rec func(t int) bool
	rec = func(t int) bool {
		if t == len(j.threads) {
			j.reset()
			return fn(j)
		}
		for _, tc := range c.threads[t] {
			j.threads[t] = tc
			if !rec(t + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// skeletonJob is the prepared event structure for one skeleton combination
// (fixed control paths and choice bits across all threads). reset builds it
// from threads; enumerate reads it and works in s.
type skeletonJob struct {
	locs    []Loc
	threads []*threadCode
	// base[t] is the ID of thread t's first event: what relocates the
	// thread-local indices of threads[t].
	base   []int
	events []memmodel.Event
	// fixed[id] says event id's value is known before any rf is chosen;
	// the others — the reads and the register-fed writes — get theirs from
	// a stepRead or stepWrite.
	fixed []bool
	reads []int
	// writersOf[loc] lists the writes to loc by ID, the init write first.
	writersOf map[string][]int
	// skel is the candidate-invariant part shared by every Execution this
	// job emits — po, rmw and the syntactic dependencies, which the paths
	// and choice bits fix; memmodel.NewChecker hoists per-skeleton work off
	// it.
	skel *memmodel.Skeleton
	s    scratch
}

// newJob allocates the one job, and its scratch, that forEachJob rewrites
// for every skeleton combination: every slice and register map at the size
// of the largest combination, so that no reset or candidate grows one (a
// relation grows at its first edges and keeps that capacity). The init
// writes (one per location, IDs 0 to len(locs)-1) are the same in every
// combination and are laid out here.
func (c *code) newJob() *skeletonJob {
	n, regs := len(c.locs), make([]int, len(c.threads))
	for t, tcs := range c.threads {
		events := 0
		for _, tc := range tcs {
			events, regs[t] = max(events, len(tc.events)), max(regs[t], len(tc.regs))
		}
		n += events
	}
	writers, perms := make([]int, len(c.locs)*n), make([]int, len(c.locs)*n)
	j := &skeletonJob{
		locs:      c.locs,
		threads:   make([]*threadCode, len(c.threads)),
		base:      make([]int, len(c.threads)),
		events:    make([]memmodel.Event, 0, n),
		fixed:     make([]bool, 0, n),
		reads:     make([]int, 0, n),
		writersOf: make(map[string][]int, len(c.locs)),
		// The dependencies and rmw are often empty in every combination,
		// and then never allocate.
		skel: &memmodel.Skeleton{Po: rel.New(), Rmw: rel.New(), Data: rel.New(), Addr: rel.New(), Ctrl: rel.New()},
	}
	for li, l := range c.locs {
		writers[li*n] = li
		j.writersOf[string(l)] = writers[li*n : li*n+1 : (li+1)*n]
		j.events = append(j.events, memmodel.Event{
			ID: li, Thread: memmodel.InitThread, Kind: memmodel.KindWrite, Loc: string(l),
		})
	}
	s := &j.s
	*s = scratch{j: j, rfOf: make([]int, n), vals: make([]int64, n), known: make([]bool, n),
		perms: make([][]int, len(c.locs)), cur: make([]*rel.Relation, len(c.locs)), final: make([]int, len(c.locs))}
	for li := range c.locs {
		s.perms[li], s.cur[li] = perms[li*n:li*n:(li+1)*n], rel.New()
	}
	s.x = memmodel.Execution{Events: make([]memmodel.Event, 0, n), Rf: rel.NewSized(n), Co: rel.NewSized(n)}
	s.c = Candidate{X: &s.x, Regs: make([]map[Reg]int64, len(c.threads))}
	for t, k := range regs {
		s.c.Regs[t] = make(map[Reg]int64, k)
	}
	return j
}

// reset lays the chosen threads' events out after the init writes in one ID
// space and relocates the threads' relations into it.
func (j *skeletonJob) reset() {
	j.events, j.reads = j.events[:len(j.locs)], j.reads[:0]
	for _, l := range j.locs {
		j.writersOf[string(l)] = j.writersOf[string(l)][:1]
	}
	sk := j.skel
	sk.Po.Reset()
	sk.Rmw.Reset()
	sk.Data.Reset()
	sk.Addr.Reset()
	sk.Ctrl.Reset()
	for t, tc := range j.threads {
		base := len(j.events)
		j.base[t] = base
		for _, e := range tc.events {
			e.ID += base
			for prev := base; prev < e.ID; prev++ {
				sk.Po.Add(prev, e.ID)
			}
			switch e.Kind {
			case memmodel.KindRead:
				j.reads = append(j.reads, e.ID)
			case memmodel.KindWrite:
				j.writersOf[e.Loc] = append(j.writersOf[e.Loc], e.ID)
			}
			j.events = append(j.events, e)
		}
		relocate := func(into *rel.Relation, edges []rel.Pair) {
			for _, e := range edges {
				into.Add(base+e.From, base+e.To)
			}
		}
		relocate(sk.Rmw, tc.rmw)
		relocate(sk.Data, tc.data)
		relocate(sk.Addr, tc.addr)
		relocate(sk.Ctrl, tc.ctrl)
	}
	// Every event's value is lower's, except those a step resolves.
	j.fixed = j.fixed[:len(j.events)]
	for id := range j.fixed {
		j.fixed[id] = true
	}
	for t, tc := range j.threads {
		for _, s := range tc.steps {
			if s.kind == stepRead || s.kind == stepWrite {
				j.fixed[j.base[t]+s.ev] = false
			}
		}
	}
	sk.Events = j.events
}

// scratch is the candidate storage of one enumeration. What value
// resolution works in and everything a candidate is made of are allocated
// once, by newJob, and rewritten for every skeleton, rf and co choice, so a
// candidate is valid only until the fn that receives it returns.
type scratch struct {
	j  *skeletonJob
	fn func(*scratch) bool
	// rfOf[r] is the writer read r reads from; vals and known are value
	// resolution's state. All three are indexed by event ID.
	rfOf  []int
	vals  []int64
	known []bool
	// c is the candidate fn receives and x its execution. ready says they,
	// and perms, hold the current job's skeleton: that is written at the
	// first rf choice whose values resolve, so a job without candidates
	// never pays for it.
	c     Candidate
	x     memmodel.Execution
	ready bool
	// perms[li] holds location li's non-init writers, permuted in place
	// into every coherence order of them in turn; cur[li] is the current
	// order as a relation, and final[li] the write it puts last (the init
	// write when there are none), location li's co-maximal writer in the
	// current candidate.
	perms [][]int
	cur   []*rel.Relation
	final []int
	// out is what intern renders the current candidate's outcome into.
	out []byte
}

// enumerate walks every rf assignment, then every coherence order, invoking
// fn per candidate. Returns false to stop the overall enumeration. The job
// is read-only here; the scratch fn receives, and the candidate in it, are
// the job's and valid only until fn returns.
func (j *skeletonJob) enumerate(fn func(*scratch) bool) bool {
	j.s.fn, j.s.ready = fn, false
	return j.s.enumerateRF(0)
}

// enumerateRF chooses, in turn, every writer of its location for reads[i],
// then for the reads after it.
func (s *scratch) enumerateRF(i int) bool {
	j := s.j
	if i == len(j.reads) {
		return s.enumerateCO()
	}
	r := j.reads[i]
	for _, w := range j.writersOf[j.events[r].Loc] {
		s.rfOf[r] = w
		if !s.enumerateRF(i + 1) {
			return false
		}
	}
	return true
}

// enumerateCO drops the chosen rf if value resolution refutes it, writes
// the resolved values, rf and final registers into the candidate, then
// enumerates coherence orders.
func (s *scratch) enumerateCO() bool {
	if !s.resolve() {
		return true // inconsistent candidate; skip, continue enumeration
	}
	j := s.j
	if !s.ready {
		s.prepare()
	}
	for id := range s.x.Events {
		s.x.Events[id].Val = s.vals[id]
	}
	// rf relation (value consistency holds by construction).
	s.x.Rf.Reset()
	for _, r := range j.reads {
		s.x.Rf.Add(s.rfOf[r], r)
	}
	for t, tc := range j.threads {
		for _, r := range tc.regs {
			s.c.Regs[t][r.reg] = s.regVal(t, r.def)
		}
	}
	return s.enumerateOrders(0)
}

// resolve computes every event's value under the chosen rf by running the
// threads' steps to a fixpoint. It reports false if a branch decision or
// choice bit turns out wrong, or a value has only a cyclic justification.
func (s *scratch) resolve() bool {
	j := s.j
	rfOf, vals, known := s.rfOf, s.vals, s.known
	copy(known, j.fixed)
	for id, e := range j.events {
		vals[id] = e.Val
	}
	for complete := false; !complete; {
		complete = true
		progress := false
		for t, tc := range j.threads {
			// k and v are this thread's window: thread-local indices apply.
			base := j.base[t]
			k, v := known[base:], vals[base:]
		thread:
			for _, st := range tc.steps {
				if st.kind == stepRead {
					if w := rfOf[base+st.ev]; !known[w] {
						complete = false
					} else if !k[st.ev] {
						k[st.ev], v[st.ev], progress = true, vals[w], true
					}
					continue
				}
				x := st.src.imm
				if st.src.ev >= 0 {
					if !k[st.src.ev] {
						complete = false
						if st.kind == stepAssume {
							// Nothing after an undecided branch runs: a value
							// that flows back into its own branch condition
							// stays unknown, like any other cyclic one.
							break thread
						}
						continue
					}
					x = v[st.src.ev]
				}
				switch st.kind {
				case stepWrite:
					if !k[st.ev] {
						k[st.ev], v[st.ev], progress = true, x, true
					}
				case stepAssume, stepCAS:
					if (x == st.val) != st.want {
						return false
					}
				case stepIndex:
					if (x&1 == 1) != st.want {
						return false
					}
				}
			}
		}
		if !complete && !progress {
			// Cyclic value dependency (thin air) — not generated.
			return false
		}
	}
	return true
}

// prepare writes the job's skeleton into the candidate: the job's events to
// write values into, co holding every location's init write before its
// other writes, register files holding none of an earlier job's registers,
// and each location's writers to permute. Candidate-invariant relations are
// shared from the job.
func (s *scratch) prepare() {
	j, sk, x := s.j, s.j.skel, &s.x
	s.ready = true
	x.Events = append(x.Events[:0], j.events...)
	x.Po, x.Rmw, x.Data, x.Addr, x.Ctrl = sk.Po, sk.Rmw, sk.Data, sk.Addr, sk.Ctrl
	x.Co.Reset()
	for _, regs := range s.c.Regs {
		clear(regs)
	}
	for li, l := range j.locs {
		writers := j.writersOf[string(l)]
		init, ws := writers[0], writers[1:]
		for _, w := range ws {
			x.Co.Add(init, w)
		}
		s.perms[li] = append(s.perms[li][:0], ws...)
	}
}

// enumerateOrders writes a coherence order of every location from li on
// into co, in place, and calls fn once all are written.
func (s *scratch) enumerateOrders(li int) bool {
	if li == len(s.perms) {
		return s.fn(s)
	}
	return s.permute(li, 0)
}

// permute writes into co, in turn, every coherence order of location li
// that keeps perms[li][:k] in place — each writer from k on swapped into
// position k and the rest permuted after it, the order stream.golden pins
// — and enumerates the later locations' orders under each. An order has
// edges only from its own location's writers, and no two locations share
// a writer, so taking it out again (MinusWith) clears exactly what it set.
func (s *scratch) permute(li, k int) bool {
	perm := s.perms[li]
	if k < len(perm) {
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			cont := s.permute(li, k+1)
			perm[k], perm[i] = perm[i], perm[k]
			if !cont {
				return false
			}
		}
		return true
	}
	order := s.cur[li]
	order.Reset()
	s.final[li] = li // location li's init write
	for i, w := range perm {
		for _, v := range perm[i+1:] {
			order.Add(w, v)
		}
		s.final[li] = w
	}
	s.x.Co.UnionWith(order)
	cont := s.enumerateOrders(li + 1)
	s.x.Co.MinusWith(order)
	return cont
}

// regVal is the value def leaves in a register of thread t.
func (s *scratch) regVal(t int, def operand) int64 {
	if def.ev < 0 {
		return def.imm
	}
	return s.vals[s.j.base[t]+def.ev]
}

// appendOutcome appends the current candidate's outcome to b: NewOutcome's
// format, written by the same helpers, but read off the job instead of
// maps. Each thread's registers are in name order since lowering, the
// locations since compile, and a location's final value is its co-maximal
// write's.
func (s *scratch) appendOutcome(b []byte) []byte {
	for t, tc := range s.j.threads {
		for _, r := range tc.regs {
			b = appendReg(b, t, r.reg, s.regVal(t, r.def))
		}
	}
	for li, l := range s.j.locs {
		b = appendMem(b, li, string(l), s.vals[s.final[li]])
	}
	return b
}

// intern adds the current candidate's outcome to out. The outcome is
// rendered into the scratch's buffer, and a string is made only for an
// outcome out does not hold yet.
func (s *scratch) intern(out OutcomeSet) {
	s.out = s.appendOutcome(s.out[:0])
	if !out[Outcome(s.out)] {
		out[Outcome(s.out)] = true
	}
}

// ---- Outcomes -----------------------------------------------------------

// Outcome is a canonical rendering of one observable result: final register
// values per thread followed by final memory values.
type Outcome string

// NewOutcome renders an observable result — per-thread final register values
// (thread index, then register name) followed by final memory (location
// name). It is the only place the format is written down: opcheck's machine
// runs and OutcomeOf come through here, and the enumerator's in-place
// rendering (appendOutcome) writes with the same two helpers, so their
// outcome sets compare as strings.
func NewOutcome(regs []map[Reg]int64, mem map[string]int64) Outcome {
	var b []byte
	var names []string
	for t, rs := range regs {
		names = names[:0]
		for r := range rs {
			names = append(names, string(r))
		}
		sort.Strings(names)
		for _, r := range names {
			b = appendReg(b, t, Reg(r), rs[Reg(r)])
		}
	}
	names = names[:0]
	for l := range mem {
		names = append(names, l)
	}
	sort.Strings(names)
	for i, l := range names {
		b = appendMem(b, i, l, mem[l])
	}
	return Outcome(b)
}

// appendReg appends thread t's register r with value v: "t:r=v ".
func appendReg(b []byte, t int, r Reg, v int64) []byte {
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(append(append(b, ':'), r...), '=')
	return append(strconv.AppendInt(b, v, 10), ' ')
}

// appendMem appends the i-th location of an outcome's memory, loc with
// final value v: "loc=v", after a separating space unless it is the first.
func appendMem(b []byte, i int, loc string, v int64) []byte {
	if i > 0 {
		b = append(b, ' ')
	}
	b = append(append(b, loc...), '=')
	return strconv.AppendInt(b, v, 10)
}

// OutcomeOf renders a candidate's observable state. Exported so external
// packages (generator tests, differential harnesses) can compute outcome
// sets through EnumerateCandidates and compare them against Enumerate's.
func OutcomeOf(c *Candidate) Outcome { return NewOutcome(c.Regs, c.X.Behav()) }

// OutcomeSet is a set of observable outcomes.
type OutcomeSet map[Outcome]bool

// Outcomes computes the set of outcomes of p admitted by model m on the
// serial reference path. It panics on a program that reads an unassigned
// register; Enumerate returns that as an error.
func Outcomes(p *Program, m memmodel.Model) OutcomeSet { return mustCompile(p).outcomes(m) }

// outcomes is the serial enumeration: every job in turn, into one set of
// the outcomes of the candidates m admits. One memmodel.Checker — the
// candidate-invariant relations evaluated once — serves a job's whole rf×co
// product. It is taken from the model's pool when the job's first candidate
// arrives, so a job whose every rf choice value resolution refutes takes
// none, and it goes back when the job ends, and on a panic.
func (c *code) outcomes(m memmodel.Model) OutcomeSet {
	out := make(OutcomeSet)
	var ck *memmodel.Checker
	defer func() {
		if ck != nil {
			ck.Release()
		}
	}()
	admit := func(s *scratch) bool {
		if ck == nil {
			ck = memmodel.NewChecker(m, s.j.skel)
		}
		if ck.Consistent(s.c.X) {
			s.intern(out)
		}
		return true
	}
	c.forEachJob(func(j *skeletonJob) bool {
		j.enumerate(admit)
		if ck != nil {
			ck.Release()
			ck = nil
		}
		return true
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

package memmodel

import (
	"testing"

	"repro/internal/rel"
)

// mpExecution builds MP's weak-outcome candidate by hand:
//
//	T0: W(X,1); W(Y,1)   T1: R(Y)=1; R(X)=0
//
// with rf(W(Y)→R(Y)), R(X) reading the init write, and co init→W per loc.
func mpExecution() *Execution {
	events := []Event{
		{ID: 0, Thread: InitThread, Kind: KindWrite, Loc: "X", Val: 0},
		{ID: 1, Thread: InitThread, Kind: KindWrite, Loc: "Y", Val: 0},
		{ID: 2, Thread: 0, Kind: KindWrite, Loc: "X", Val: 1},
		{ID: 3, Thread: 0, Kind: KindWrite, Loc: "Y", Val: 1},
		{ID: 4, Thread: 1, Kind: KindRead, Loc: "Y", Val: 1},
		{ID: 5, Thread: 1, Kind: KindRead, Loc: "X", Val: 0},
	}
	x := NewExecution(events)
	x.Po.Add(2, 3)
	x.Po.Add(4, 5)
	x.Rf.Add(3, 4) // R(Y) reads W(Y,1)
	x.Rf.Add(0, 5) // R(X) reads init
	x.Co.Add(0, 2)
	x.Co.Add(1, 3)
	return x
}

// holds evaluates one axiom on x with both evaluators, which must agree.
func holds(t *testing.T, a Axiom, x *Execution) bool {
	t.Helper()
	m := Define(a.Name, a)
	ck := NewChecker(m, &Skeleton{x.Events, x.Po, x.Rmw, x.Data, x.Addr, x.Ctrl})
	defer ck.Release()
	got, want := ck.Consistent(x), ReferenceConsistent(m, x)
	if got != want {
		t.Fatalf("%s: checker says %v, reference says %v for\n%v", a.Name, got, want, x)
	}
	return got
}

func TestDerivedRelations(t *testing.T) {
	x := mpExecution()
	fr := Fr.eval(x)
	// R(X,0) reads init; W(X,1) is co-after init → fr(5, 2).
	if !fr.Has(5, 2) {
		t.Fatalf("fr missing (5,2): %v", fr)
	}
	// R(Y,1) reads the co-maximal write → no fr edge from it.
	if fr.Has(4, 3) {
		t.Fatal("fr should not relate a read to its own source")
	}
	if !Rfe.eval(x).Has(3, 4) {
		t.Fatal("rf(3,4) crosses threads → rfe")
	}
	if !Fre.eval(x).Has(5, 2) {
		t.Fatal("fr(5,2) crosses threads → fre")
	}
}

func TestPoLoc(t *testing.T) {
	x := mpExecution()
	if pl := PoLoc.eval(x); !pl.IsEmpty() {
		t.Fatalf("MP has no same-location po pairs: %v", pl)
	}
	// Same-location pair.
	y := NewExecution([]Event{
		{ID: 0, Thread: 0, Kind: KindWrite, Loc: "X", Val: 1},
		{ID: 1, Thread: 0, Kind: KindRead, Loc: "X", Val: 1},
		{ID: 2, Thread: 0, Kind: KindFence, Fence: FenceMFENCE},
	})
	y.Po.Add(0, 1)
	y.Po.Add(0, 2)
	y.Po.Add(1, 2)
	pl := PoLoc.eval(y)
	if !pl.Has(0, 1) || pl.Size() != 1 {
		t.Fatalf("po|loc wrong: %v", pl)
	}
}

func TestBehav(t *testing.T) {
	x := mpExecution()
	b := x.Behav()
	if b["X"] != 1 || b["Y"] != 1 {
		t.Fatalf("behaviour = %v", b)
	}
}

func TestSCPerLoc(t *testing.T) {
	x := mpExecution()
	if !holds(t, SCPerLoc, x) {
		t.Fatal("MP candidate is per-location coherent")
	}
	// Violate coherence: make the read of X read init while po-after a
	// same-thread write of X that is co-after init.
	y := NewExecution([]Event{
		{ID: 0, Thread: InitThread, Kind: KindWrite, Loc: "X", Val: 0},
		{ID: 1, Thread: 0, Kind: KindWrite, Loc: "X", Val: 1},
		{ID: 2, Thread: 0, Kind: KindRead, Loc: "X", Val: 0},
	})
	y.Po.Add(1, 2)
	y.Rf.Add(0, 2)
	y.Co.Add(0, 1)
	if holds(t, SCPerLoc, y) {
		t.Fatal("reading overwritten init past own write must violate sc-per-loc")
	}
}

func TestAtomicity(t *testing.T) {
	// rmw pair (r, w) on X with an intervening external write w'.
	x := NewExecution([]Event{
		{ID: 0, Thread: InitThread, Kind: KindWrite, Loc: "X", Val: 0},
		{ID: 1, Thread: 0, Kind: KindRead, Loc: "X", Val: 0, RMW: RMWAmo},
		{ID: 2, Thread: 0, Kind: KindWrite, Loc: "X", Val: 1, RMW: RMWAmo},
		{ID: 3, Thread: 1, Kind: KindWrite, Loc: "X", Val: 9},
	})
	x.Po.Add(1, 2)
	x.Rf.Add(0, 1)
	x.Rmw.Add(1, 2)
	x.Co.Add(0, 3)
	x.Co.Add(3, 2)
	x.Co.Add(0, 2)
	if holds(t, Atomicity, x) {
		t.Fatal("intervening write between rmw read and write must violate atomicity")
	}
	// Move w' after the rmw write: fine.
	x.Co = rel.New()
	x.Co.Add(0, 2)
	x.Co.Add(2, 3)
	x.Co.Add(0, 3)
	if !holds(t, Atomicity, x) {
		t.Fatal("write after the rmw pair does not violate atomicity")
	}
}

func TestEventPredicates(t *testing.T) {
	x := mpExecution()
	if got := x.Reads(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("Reads = %v", got)
	}
	if got := x.Writes(); len(got) != 4 {
		t.Fatalf("Writes = %v", got)
	}
	if !x.Events[0].IsInit() || x.Events[2].IsInit() {
		t.Fatal("IsInit wrong")
	}
	if len(x.Fences()) != 0 {
		t.Fatal("MP has no fences")
	}
}

func TestFenceFiltering(t *testing.T) {
	x := NewExecution([]Event{
		{ID: 0, Thread: 0, Kind: KindFence, Fence: FenceFrm},
		{ID: 1, Thread: 0, Kind: KindFence, Fence: FenceDMBFF},
	})
	if got := x.Fences(FenceFrm); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Fences(Frm) = %v", got)
	}
	if got := x.Fences(); len(got) != 2 {
		t.Fatalf("Fences() = %v", got)
	}
}

func TestStringers(t *testing.T) {
	if KindRead.String() != "R" || KindWrite.String() != "W" || KindFence.String() != "F" {
		t.Fatal("Kind names")
	}
	if FenceDMBLD.String() != "DMBLD" || FenceFsc.String() != "Fsc" {
		t.Fatal("Fence names")
	}
	e := Event{ID: 1, Thread: 0, Kind: KindRead, Loc: "X", Val: 2, Acq: true}
	if e.String() == "" {
		t.Fatal("empty event string")
	}
}

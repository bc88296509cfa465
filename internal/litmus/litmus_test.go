package litmus

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
)

var (
	// anyModel is a maximally permissive model: every well-formed candidate
	// is consistent. Handy for testing the enumerator itself.
	anyModel = memmodel.Define("any")
	// coherentModel only requires SC-per-location and atomicity.
	coherentModel = memmodel.Define("coherent", memmodel.SCPerLoc, memmodel.Atomicity)
)

func countCandidates(p *Program) int {
	n := 0
	EnumerateCandidates(p, func(*Candidate) bool { n++; return true })
	return n
}

func TestSingleThreadSingleStore(t *testing.T) {
	p := &Program{Name: "w", Threads: [][]Op{{Store{Loc: "X", Val: 1}}}}
	if n := countCandidates(p); n != 1 {
		t.Fatalf("one store: %d candidates, want 1", n)
	}
	out := Outcomes(p, anyModel)
	if !out.Contains("X=1") || len(out) != 1 {
		t.Fatalf("outcomes: %v", out.Sorted())
	}
}

func TestSingleLoadReadsInit(t *testing.T) {
	p := &Program{Name: "r", Threads: [][]Op{{Load{Dst: "a", Loc: "X"}}}}
	out := Outcomes(p, anyModel)
	if !out.Contains("0:a=0") || len(out) != 1 {
		t.Fatalf("load from init: %v", out.Sorted())
	}
}

func TestMPEnumeration(t *testing.T) {
	// MP: 2 reads × 2 writers each = 4 rf combos; 1 co order per loc.
	if n := countCandidates(MP()); n != 4 {
		t.Fatalf("MP candidates = %d, want 4", n)
	}
	// Under the anything-goes model all 4 outcomes appear.
	out := Outcomes(MP(), anyModel)
	if len(out) != 4 {
		t.Fatalf("MP outcomes = %d, want 4: %v", len(out), out.Sorted())
	}
}

func TestCoEnumeration(t *testing.T) {
	// Two writers to one location: 2 coherence orders.
	p := &Program{Name: "ww", Threads: [][]Op{
		{Store{Loc: "X", Val: 1}},
		{Store{Loc: "X", Val: 2}},
	}}
	if n := countCandidates(p); n != 2 {
		t.Fatalf("2 writers: %d candidates, want 2", n)
	}
	out := Outcomes(p, anyModel)
	if !out.Contains("X=1") || !out.Contains("X=2") {
		t.Fatalf("both final values expected: %v", out.Sorted())
	}
}

func TestIfBothPathsEnumerated(t *testing.T) {
	p := &Program{Name: "if", Threads: [][]Op{
		{Store{Loc: "X", Val: 1}},
		{
			Load{Dst: "a", Loc: "X"},
			If{Reg: "a", Eq: true, Val: 1, Body: []Op{Store{Loc: "Y", Val: 1}}},
		},
	}}
	out := Outcomes(p, coherentModel)
	if !out.Contains("1:a=1", "Y=1") {
		t.Fatal("taken path missing")
	}
	if !out.Contains("1:a=0", "Y=0") {
		t.Fatal("not-taken path missing")
	}
	// Inconsistent combos must not appear.
	if out.Contains("1:a=0", "Y=1") || out.Contains("1:a=1", "Y=0") {
		t.Fatalf("branch decision inconsistent with value: %v", out.Sorted())
	}
}

func TestNestedIf(t *testing.T) {
	p := &Program{Name: "nested", Threads: [][]Op{
		{Store{Loc: "X", Val: 1}, Store{Loc: "Y", Val: 1}},
		{
			Load{Dst: "a", Loc: "X"},
			If{Reg: "a", Eq: true, Val: 1, Body: []Op{
				Load{Dst: "b", Loc: "Y"},
				If{Reg: "b", Eq: true, Val: 1, Body: []Op{
					Store{Loc: "Z", Val: 7},
				}},
			}},
		},
	}}
	out := Outcomes(p, coherentModel)
	if !out.Contains("1:a=1", "1:b=1", "Z=7") {
		t.Fatal("doubly-taken path missing")
	}
	if !out.Contains("1:a=0", "Z=0") {
		t.Fatal("outer not-taken path missing")
	}
	if out.Contains("1:a=0", "Z=7") {
		t.Fatal("Z written on untaken path")
	}
}

func TestCASSuccessSemantics(t *testing.T) {
	p := &Program{Name: "cas", Threads: [][]Op{
		{CAS{Loc: "X", Expect: 0, New: 5, Dst: "old"}},
	}}
	out := Outcomes(p, coherentModel)
	// Only writer besides the CAS is init(0): CAS must succeed.
	if !out.Contains("0:old=0", "X=5") || len(out) != 1 {
		t.Fatalf("lone CAS must succeed: %v", out.Sorted())
	}

	// CAS with wrong expectation always fails.
	p = &Program{Name: "casfail", Threads: [][]Op{
		{CAS{Loc: "X", Expect: 9, New: 5, Dst: "old"}},
	}}
	out = Outcomes(p, coherentModel)
	if !out.Contains("0:old=0", "X=0") || len(out) != 1 {
		t.Fatalf("mismatched CAS must fail: %v", out.Sorted())
	}
}

func TestStoreRegDataFlow(t *testing.T) {
	p := &Program{Name: "flow", Threads: [][]Op{
		{Store{Loc: "X", Val: 3}},
		{Load{Dst: "a", Loc: "X"}, StoreReg{Loc: "Y", Src: "a"}},
	}}
	out := Outcomes(p, coherentModel)
	if !out.Contains("1:a=3", "Y=3") {
		t.Fatal("register value must flow into store")
	}
	if !out.Contains("1:a=0", "Y=0") {
		t.Fatal("reading init must store 0")
	}
	if out.Contains("1:a=3", "Y=0") {
		t.Fatal("store value inconsistent with register")
	}
}

func TestMovImmClearsProvenance(t *testing.T) {
	p := &Program{Name: "mov", Threads: [][]Op{
		{MovImm{Dst: "a", Val: 42}, StoreReg{Loc: "X", Src: "a"}},
	}}
	out := Outcomes(p, coherentModel)
	if !out.Contains("X=42") || len(out) != 1 {
		t.Fatalf("MovImm value must flow: %v", out.Sorted())
	}
	// No data dependency should be produced.
	EnumerateCandidates(p, func(c *Candidate) bool {
		if !c.X.Data.IsEmpty() {
			t.Fatal("MovImm must not create data dependencies")
		}
		return true
	})
}

func TestDependencyExtraction(t *testing.T) {
	p := &Program{Name: "deps", Threads: [][]Op{
		{
			Load{Dst: "a", Loc: "X"},
			StoreReg{Loc: "Y", Src: "a"},
			If{Reg: "a", Eq: true, Val: 0, Body: []Op{Store{Loc: "Z", Val: 1}}},
		},
	}}
	sawData, sawCtrl := false, false
	EnumerateCandidates(p, func(c *Candidate) bool {
		if !c.X.Data.IsEmpty() {
			sawData = true
		}
		if !c.X.Ctrl.IsEmpty() {
			sawCtrl = true
		}
		return true
	})
	if !sawData {
		t.Fatal("expected a data dependency from load to StoreReg")
	}
	if !sawCtrl {
		t.Fatal("expected a control dependency from load into branch body")
	}
}

func TestThinAirRejected(t *testing.T) {
	// LB with data deps both ways: values form a cycle; only init-reading
	// candidates are generated.
	p := &Program{Name: "oota", Threads: [][]Op{
		{Load{Dst: "a", Loc: "X"}, StoreReg{Loc: "Y", Src: "a"}},
		{Load{Dst: "b", Loc: "Y"}, StoreReg{Loc: "X", Src: "b"}},
	}}
	out := Outcomes(p, anyModel)
	for o := range out {
		if containsToken(string(o), "0:a=1") || containsToken(string(o), "X=1") {
			t.Fatalf("thin-air value appeared: %v", o)
		}
	}
	if !out.Contains("0:a=0", "1:b=0") {
		t.Fatal("init-reading candidate missing")
	}
}

// TestEnumerateDefault exercises the no-option entrypoint on a couple of
// representative programs.
func TestEnumerateDefault(t *testing.T) {
	for _, p := range []*Program{MPQ(), SBQ()} {
		for _, m := range testModels() {
			got, err := Enumerate(p, m)
			if err != nil {
				t.Fatalf("%s under %s: %v", p.Name, m.Name(), err)
			}
			assertSameOutcomes(t, p.Name, m.Name(), "Enumerate",
				Outcomes(p, m), got)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	n := 0
	EnumerateCandidates(MP(), func(*Candidate) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop: n=%d, want 2", n)
	}
}

func TestOutcomeSetHelpers(t *testing.T) {
	a := OutcomeSet{"x": true, "y": true}
	b := OutcomeSet{"x": true, "y": true, "z": true}
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	d := b.Minus(a)
	if len(d) != 1 || d[0] != "z" {
		t.Fatalf("Minus wrong: %v", d)
	}
	if got := b.Sorted(); len(got) != 3 || got[0] != "x" {
		t.Fatalf("Sorted wrong: %v", got)
	}
}

func TestLocations(t *testing.T) {
	p := MPQ()
	locs := p.Locations()
	if len(locs) != 2 || locs[0] != "X" || locs[1] != "Y" {
		t.Fatalf("Locations = %v", locs)
	}
}

func TestFenceEventsGenerated(t *testing.T) {
	p := SBFenced()
	EnumerateCandidates(p, func(c *Candidate) bool {
		fences := c.X.Fences(memmodel.FenceMFENCE)
		if len(fences) != 2 {
			t.Fatalf("expected 2 MFENCE events, got %d", len(fences))
		}
		return false
	})
}

// TestUnassignedRegisterIsAnError: a path that reads a register nothing on
// it assigned has no executions, so enumerating it used to return a smaller
// (here: empty) outcome set with a nil error, and every forbid expectation
// and Theorem 1 containment over it held vacuously. Each reading op is
// tried, plus a register assigned only on the path not taken.
func TestUnassignedRegisterIsAnError(t *testing.T) {
	writer := []Op{Store{Loc: "X", Val: 1}, Store{Loc: "Y", Val: 1}}
	for name, reader := range map[string][]Op{
		"if":       {Load{Dst: "a", Loc: "Y"}, If{Reg: "aa", Eq: true, Val: 1, Body: []Op{Load{Dst: "b", Loc: "X"}}}},
		"storereg": {Load{Dst: "a", Loc: "Y"}, StoreReg{Loc: "Z", Src: "aa"}},
		"loadidx":  {Load{Dst: "a", Loc: "Y"}, LoadIdx{Dst: "b", Idx: "aa", Loc0: "X", Loc1: "X"}},
		"storeidx": {Load{Dst: "a", Loc: "Y"}, StoreIdx{Idx: "aa", Loc0: "X", Loc1: "Z", Val: 1}},
		"one path": {
			Load{Dst: "a", Loc: "Y"},
			If{Reg: "a", Eq: true, Val: 1, Body: []Op{Load{Dst: "aa", Loc: "X"}}},
			StoreReg{Loc: "Z", Src: "aa"},
		},
	} {
		p := &Program{Name: "MP+typo", Threads: [][]Op{writer, reader}}
		for _, opts := range [][]Option{nil, {WithCache(NewCache())}} {
			out, err := Enumerate(p, anyModel, opts...)
			if err == nil {
				t.Errorf("%s: Enumerate returned %d outcomes and no error", name, len(out))
				continue
			}
			for _, want := range []string{`"MP+typo"`, "thread 1", `"aa"`} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not name %s", name, err, want)
				}
			}
		}
	}
}

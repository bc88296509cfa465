package litmus

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// x86 model stand-ins are not importable here (cycle), so parse tests use
// the permissive/coherent models plus structural assertions; model-level
// file tests live in internal/models/x86tso.

func TestParseMP(t *testing.T) {
	pt, err := Parse(`
test MP
thread 0
  store X 1
  store Y 1
thread 1
  load a Y
  load b X
forbid a@1=1 b@1=0
allow  a@1=1 b@1=1
`)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Program.Name != "MP" || len(pt.Program.Threads) != 2 {
		t.Fatalf("program: %+v", pt.Program)
	}
	if len(pt.Program.Threads[0]) != 2 || len(pt.Program.Threads[1]) != 2 {
		t.Fatalf("thread ops: %+v", pt.Program.Threads)
	}
	if len(pt.Expectations) != 2 || pt.Expectations[0].Allow || !pt.Expectations[1].Allow {
		t.Fatalf("expectations: %+v", pt.Expectations)
	}
	if pt.Expectations[0].Fragments[0] != "1:a=1" {
		t.Fatalf("fragment: %q", pt.Expectations[0].Fragments[0])
	}
	// Equivalent to the built-in MP: same outcome sets under coherence.
	got := Outcomes(pt.Program, coherentModel)
	want := Outcomes(MP(), coherentModel)
	if !got.SubsetOf(want) || !want.SubsetOf(got) {
		t.Fatalf("parsed MP differs from built-in:\n%v\nvs\n%v", got.Sorted(), want.Sorted())
	}
}

// TestParseModelDirectiveLevels: the `model` directive accepts every
// instruction level (not just the original three) and rejects unknown
// levels with the level list in the error.
func TestParseModelDirectiveLevels(t *testing.T) {
	for _, l := range memmodel.Levels() {
		pt, err := Parse("test T\nmodel " + string(l) + "\nthread 0\n  store X 1\n")
		if err != nil {
			t.Errorf("model %s: %v", l, err)
			continue
		}
		if pt.Model != string(l) {
			t.Errorf("model %s: parsed as %q", l, pt.Model)
		}
	}
	_, err := Parse("test T\nmodel vax\nthread 0\n  store X 1\n")
	if err == nil || !strings.Contains(err.Error(), `unknown model "vax"`) ||
		!strings.Contains(err.Error(), "sparc") {
		t.Errorf("unknown level error = %v", err)
	}
}

// TestParseMembarFences: the SPARC membar tokens round-trip through the
// parser into the directional fence kinds.
func TestParseMembarFences(t *testing.T) {
	pt, err := Parse(`
test MEMBARS
thread 0
  fence membarll
  fence membarls
  fence membarsl
  fence membarss
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []memmodel.Fence{memmodel.FenceMembarLL, memmodel.FenceMembarLS,
		memmodel.FenceMembarSL, memmodel.FenceMembarSS}
	for i, k := range want {
		if f := pt.Program.Threads[0][i].(Fence); f.K != k {
			t.Errorf("op %d = %v, want %v", i, f.K, k)
		}
	}
}

func TestParseAttributesAndCAS(t *testing.T) {
	pt, err := Parse(`
test SBAL-arm
thread 0
  cas X 0 1 amo acq rel
  load a Y acqpc
thread 1
  cas Y 0 1 -> old lxsx
  storereg Z old rel sc
  fence dmbff
forbid a@0=9
`)
	if err != nil {
		t.Fatal(err)
	}
	t0 := pt.Program.Threads[0]
	cas0 := t0[0].(CAS)
	if cas0.Class != memmodel.RMWAmo || !cas0.Acq || !cas0.Rel || cas0.Dst != "" {
		t.Fatalf("cas0: %+v", cas0)
	}
	ld := t0[1].(Load)
	if !ld.AcqPC || ld.Dst != "a" || ld.Loc != "Y" {
		t.Fatalf("load: %+v", ld)
	}
	t1 := pt.Program.Threads[1]
	cas1 := t1[0].(CAS)
	if cas1.Class != memmodel.RMWLxSx || cas1.Dst != "old" {
		t.Fatalf("cas1: %+v", cas1)
	}
	sr := t1[1].(StoreReg)
	if !sr.Rel || !sr.SC || sr.Src != "old" {
		t.Fatalf("storereg: %+v", sr)
	}
	f := t1[2].(Fence)
	if f.K != memmodel.FenceDMBFF {
		t.Fatalf("fence: %+v", f)
	}
}

func TestParseIfNesting(t *testing.T) {
	pt, err := Parse(`
test nested
thread 0
  store X 1
thread 1
  load a X
  if a == 1
    load b X
    if b != 0
      store Y 7
    endif
  endif
allow a@1=1 Y=7
allow a@1=0 Y=0
`)
	if err != nil {
		t.Fatal(err)
	}
	outer := pt.Program.Threads[1][1].(If)
	if outer.Reg != "a" || !outer.Eq || outer.Val != 1 || len(outer.Body) != 2 {
		t.Fatalf("outer if: %+v", outer)
	}
	inner := outer.Body[1].(If)
	if inner.Reg != "b" || inner.Eq || inner.Val != 0 {
		t.Fatalf("inner if: %+v", inner)
	}
	if fails := CheckExpectations(pt, coherentModel); len(fails) != 0 {
		t.Fatalf("expectations failed: %v", fails)
	}
}

func TestParseMovAndHexValues(t *testing.T) {
	pt, err := Parse(`
test movs
thread 0
  mov a 0x10
  storereg X a
allow X=16
`)
	if err != nil {
		t.Fatal(err)
	}
	if fails := CheckExpectations(pt, coherentModel); len(fails) != 0 {
		t.Fatalf("%v", fails)
	}
}

func TestCheckExpectationsFailures(t *testing.T) {
	pt, err := Parse(`
test wrong
thread 0
  store X 1
forbid X=1
allow X=9
`)
	if err != nil {
		t.Fatal(err)
	}
	fails := CheckExpectations(pt, coherentModel)
	if len(fails) != 2 {
		t.Fatalf("expected both expectations to fail: %v", fails)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"thread 0\n store X 1",               // missing test name
		"test t\nstore X 1",                  // statement outside thread
		"test t\nthread 1\n",                 // threads out of order
		"test t\nthread 0\n frobnicate",      // unknown statement
		"test t\nthread 0\n store X",         // missing operand
		"test t\nthread 0\n store X q",       // bad value
		"test t\nthread 0\n fence dmbxx",     // unknown fence
		"test t\nthread 0\n if a == 1",       // unterminated if
		"test t\nthread 0\n endif",           // endif without if
		"test t\nthread 0\n load a X\nallow", // empty expectation
		"test t\nthread 0\nallow a=b",        // bad expectation value
		"test t\nthread 0\nallow a@x=1",      // bad thread index
		"test t\nthread 0\nallow a1",         // missing '='
		"test t",                             // no threads
		"test t\nthread 0\n cas X 0 1 -> ",   // malformed cas
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

// TestParseRejectsUnassignedRegister: Parse takes outside input, and a
// mistyped register name used to give a test that passes every forbid line
// because it has no executions at all.
func TestParseRejectsUnassignedRegister(t *testing.T) {
	_, err := Parse(`
test MP+typo
model arm
thread 0
  store X 1
  store Y 1
thread 1
  load a Y
  if aa == 1
    load b X
  endif
forbid a@1=1 b@1=0
`)
	if err == nil {
		t.Fatal("a read of the never-assigned register aa parsed without error")
	}
	for _, want := range []string{"MP+typo", "thread 1", `"aa"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

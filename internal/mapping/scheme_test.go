package mapping

import (
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
)

// TestSchemeRegistryRejects pins the registration invariants: duplicate
// names and self-loop schemes (which would make route enumeration
// meaningless) are refused.
func TestSchemeRegistryRejects(t *testing.T) {
	r := &SchemeRegistry{}
	if err := r.Register(&Scheme{Name: "a", Src: memmodel.LevelX86, Dst: memmodel.LevelTCG}); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if err := r.Register(&Scheme{Name: "a", Src: memmodel.LevelTCG, Dst: memmodel.LevelArm}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := r.Register(&Scheme{Name: "loop", Src: memmodel.LevelTCG, Dst: memmodel.LevelTCG}); err == nil {
		t.Error("self-loop accepted")
	}
}

// TestSchemeLookupError pins the canonical unknown-scheme error shape.
func TestSchemeLookupError(t *testing.T) {
	_, err := DefaultSchemes().Lookup("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{`unknown mapping scheme "nope"`, "x86→tcg/verified", "imm→arm/verified"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestDefaultRoutes pins the route topology of the built-in registry: the
// full x86→arm fan (every chain through tcg, sparc and imm), and the
// canonical verified route being the shortest all-verified chain in
// registration order.
func TestDefaultRoutes(t *testing.T) {
	r := DefaultSchemes()

	for _, tc := range []struct {
		src, dst memmodel.Level
		want     int
	}{
		{memmodel.LevelX86, memmodel.LevelArm, 13},
		{memmodel.LevelX86, memmodel.LevelTCG, 3},
		{memmodel.LevelX86, memmodel.LevelSPARC, 1},
		{memmodel.LevelX86, memmodel.LevelIMM, 1},
		{memmodel.LevelSPARC, memmodel.LevelArm, 4},
		{memmodel.LevelTCG, memmodel.LevelArm, 4},
		{memmodel.LevelIMM, memmodel.LevelArm, 1},
		{memmodel.LevelArm, memmodel.LevelX86, 0}, // no backward schemes
		{memmodel.LevelTCG, memmodel.LevelIMM, 0},
		{memmodel.LevelX86, memmodel.LevelX86, 0}, // same level: compared directly
	} {
		if got := len(r.Routes(tc.src, tc.dst)); got != tc.want {
			t.Errorf("Routes(%s, %s): got %d routes, want %d", tc.src, tc.dst, got, tc.want)
		}
	}

	route, ok := r.VerifiedRoute(memmodel.LevelX86, memmodel.LevelArm)
	if !ok {
		t.Fatal("no verified x86→arm route")
	}
	if got, want := RouteName(route), "x86→tcg/verified + tcg→arm/verified"; got != want {
		t.Errorf("verified x86→arm route = %q, want %q", got, want)
	}
	if !RouteVerified(route) {
		t.Error("canonical route not verified")
	}
	if id, ok := r.VerifiedRoute(memmodel.LevelTCG, memmodel.LevelTCG); !ok || len(id) != 0 {
		t.Errorf("identity route = %v, %v; want empty, true", id, ok)
	}
	if _, ok := r.VerifiedRoute(memmodel.LevelArm, memmodel.LevelX86); ok {
		t.Error("found a verified arm→x86 route in a forward-only registry")
	}
}

// countFences returns how many fences of kind k the program contains.
func countFences(p *litmus.Program, k memmodel.Fence) int {
	n := 0
	var walk func(ops []litmus.Op)
	walk = func(ops []litmus.Op) {
		for _, op := range ops {
			switch o := op.(type) {
			case litmus.Fence:
				if o.K == k {
					n++
				}
			case litmus.If:
				walk(o.Body)
			}
		}
	}
	for _, th := range p.Threads {
		walk(th)
	}
	return n
}

// TestX86ToSPARC: MFENCE becomes membar #StoreLoad, everything else is
// untouched, and the result still forbids exactly what x86 forbade (the
// SBFenced weak outcome) under SPARC-TSO.
func TestX86ToSPARC(t *testing.T) {
	p := litmus.SBFenced()
	sp := X86ToSPARC(p)
	if got := countFences(sp, memmodel.FenceMembarSL); got != countFences(p, memmodel.FenceMFENCE) {
		t.Errorf("membar #SL count %d != MFENCE count %d", got, countFences(p, memmodel.FenceMFENCE))
	}
	if countFences(sp, memmodel.FenceMFENCE) != 0 {
		t.Error("MFENCE survived translation")
	}
}

// TestSPARCToTCGMembars: each membar direction lowers to the directional
// IR fence of the same shape before the verified x86→IR placement runs.
func TestSPARCToTCGMembars(t *testing.T) {
	for membar, ir := range map[memmodel.Fence]memmodel.Fence{
		memmodel.FenceMembarLL: memmodel.FenceFrr,
		memmodel.FenceMembarLS: memmodel.FenceFrw,
		memmodel.FenceMembarSL: memmodel.FenceFwr,
		memmodel.FenceMembarSS: memmodel.FenceFww,
	} {
		p := &litmus.Program{
			Name: "membar",
			Threads: [][]litmus.Op{{
				litmus.Store{Loc: "X", Val: 1},
				litmus.Fence{K: membar},
				litmus.Load{Dst: "a", Loc: "X"},
			}},
		}
		out := SPARCToTCG(p)
		want := 1
		if ir == memmodel.FenceFww {
			// The verified placement itself emits Fww before the store, on
			// top of the one the membar lowers to.
			want = 2
		}
		if countFences(out, ir) != want {
			t.Errorf("membar %s: got %d %s fences in %s, want %d",
				membar, countFences(out, ir), ir, out.Name, want)
		}
		if countFences(out, membar) != 0 {
			t.Errorf("membar %s survived lowering", membar)
		}
	}
}

// TestRouteEndToEnd applies the canonical verified route and checks
// Theorem 1 holds for MP — the composition smoke the matrix generalises.
func TestRouteEndToEnd(t *testing.T) {
	r := DefaultSchemes()
	route, _ := r.VerifiedRoute(memmodel.LevelX86, memmodel.LevelArm)
	p := litmus.MP()
	tgt := ApplyRoute(route, p)
	v := VerifyTheorem1(p, mustModel(t, "x86-TSO"), tgt, mustModel(t, "Arm-Cats"))
	if !v.Correct() {
		t.Errorf("verified route broke Theorem 1 on MP: new=%v err=%v", v.NewBehaviours, v.Err)
	}
}

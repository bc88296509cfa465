package opref_test

import (
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/models/opref"
	"repro/internal/models/x86tso"
)

// enumerate is Enumerate with a fatal on error.
func enumerate(t *testing.T, p *litmus.Program, m memmodel.Model) litmus.OutcomeSet {
	t.Helper()
	out, err := litmus.Enumerate(p, m)
	if err != nil {
		t.Fatalf("enumerate %s under %s: %v", p.Name, m.Name(), err)
	}
	return out
}

// has reports whether some outcome contains every given fragment.
func has(set litmus.OutcomeSet, frags ...string) bool {
	for o := range set {
		ok := true
		for _, f := range frags {
			if !strings.Contains(string(o), f) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestShapePinning pins the four canonical shapes: the store buffer
// relaxes W×W and W×R, so MP, SB and 2+2W gain their weak outcome while
// LB (whose cycle needs load speculation) does not.
func TestShapePinning(t *testing.T) {
	m := opref.New()

	mp := enumerate(t, litmus.MP(), m)
	if len(mp) != 4 || !has(mp, "1:a=1", "1:b=0") {
		t.Fatalf("MP under op-ref = %v, want 4 outcomes incl. a=1,b=0", mp.Sorted())
	}

	sb := enumerate(t, litmus.SB(), m)
	if len(sb) != 4 || !has(sb, "0:a=0", "1:b=0") {
		t.Fatalf("SB under op-ref = %v, want 4 outcomes incl. a=b=0", sb.Sorted())
	}

	lb := enumerate(t, litmus.LB(), m)
	if len(lb) != 3 || has(lb, "0:a=1", "1:b=1") {
		t.Fatalf("LB under op-ref = %v, want 3 outcomes and no a=b=1 (loads execute in order)", lb.Sorted())
	}

	ww := enumerate(t, litmus.TwoPlusTwoW(), m)
	if len(ww) != 4 || !has(ww, "X=1", "Y=1") {
		t.Fatalf("2+2W under op-ref = %v, want 4 outcomes incl. X=Y=1", ww.Sorted())
	}
}

// TestFencedShapesCollapseToSC: store-flushing fences on both sides
// restore the SC outcome set — the verified-mapping variants must show no
// weak outcome.
func TestFencedShapesCollapseToSC(t *testing.T) {
	m := opref.New()
	sbf := enumerate(t, litmus.SBFenced(), m)
	if len(sbf) != 3 || has(sbf, "0:a=0", "1:b=0") {
		t.Fatalf("SB+mfences under op-ref = %v, want a=b=0 forbidden", sbf.Sorted())
	}
	mpd := enumerate(t, litmus.MPArmDMB(), m)
	if len(mpd) != 3 || has(mpd, "1:a=1", "1:b=0") {
		t.Fatalf("MP+dmbs under op-ref = %v, want a=1,b=0 forbidden", mpd.Sorted())
	}
}

// TestWeakerThanTSO: op-ref keeps all of TSO's relaxations and adds W×W,
// so over the whole x86 corpus every TSO-allowed outcome stays allowed.
func TestWeakerThanTSO(t *testing.T) {
	for _, p := range litmus.X86Corpus() {
		tso := enumerate(t, p, x86tso.New())
		op := enumerate(t, p, opref.New())
		if !tso.SubsetOf(op) {
			t.Errorf("%s: TSO ⊄ op-ref; TSO-only outcomes: %v", p.Name, tso.Minus(op))
		}
	}
}

package tcg_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/mapping"
	"repro/internal/memmodel"
	"repro/internal/models/tcgmm"
	"repro/internal/tcg"
)

// tcg.Figure10 is checked the way the mapping tables are: against the
// figure written out longhand, against the pass that reads it, and each row
// as a litmus-level source→target pair under the TCG-IR model, in a family
// of contexts. A context is written at the x86 level — what thread 0 does
// before and after the pair, and a second thread observing it — and
// rendered through a mapping table, because the rows hold on images of
// Figure 7a and not on bare IR (see tcg.Figure10).

var (
	irModel = tcgmm.New()
	// figure7a brackets every access; bare is the same table without the
	// brackets (MFENCE still becomes Fsc).
	figure7a = mapping.X86Verified.Table()
	bare     = func() *mapping.Scheme {
		s := figure7a.Clone()
		s.Load, s.Store = mapping.Placement{}, mapping.Placement{}
		return s
	}()
)

// context is the x86-level surroundings of a pair on location X.
type context struct {
	prefix, suffix, observer []litmus.Op
}

func ld(dst litmus.Reg, loc litmus.Loc) litmus.Op { return litmus.Load{Dst: dst, Loc: loc} }
func st(loc litmus.Loc, v int64) litmus.Op        { return litmus.Store{Loc: loc, Val: v} }

var mfence litmus.Op = litmus.Fence{K: memmodel.FenceMFENCE}

// fmrObserver is thread 1 of §3.2's FMR example at the x86 level, for a
// pair on X between a store to Y and a store to Z.
var fmrObserver = []litmus.Op{ld("o", "Z"), st("Y", 7), ld("p", "Y")}

// family is the contexts every cell is tried in: 5 prefixes × 5 suffixes ×
// 49 observers — every two accesses to different locations of X, Y, Z, with
// and without an MFENCE between them, and the FMR observer.
var family = contexts()

func contexts() []context {
	prefixes := [][]litmus.Op{nil, {ld("e", "Y")}, {st("Y", 1)}, {ld("e", "Z")}, {st("Z", 1)}}
	suffixes := [][]litmus.Op{nil, {ld("f", "Y")}, {st("Y", 2)}, {ld("f", "Z")}, {st("Z", 2)}}
	observers := [][]litmus.Op{fmrObserver}
	access := func(reg litmus.Reg) (out []litmus.Op) {
		for _, loc := range []litmus.Loc{"X", "Y", "Z"} {
			out = append(out, st(loc, 7), ld(reg, loc))
		}
		return out
	}
	for i, first := range access("o") {
		for j, second := range access("p") {
			if i/2 != j/2 {
				observers = append(observers, []litmus.Op{first, second}, []litmus.Op{first, mfence, second})
			}
		}
	}
	var out []context
	for _, p := range prefixes {
		for _, s := range suffixes {
			for _, o := range observers {
				out = append(out, context{p, s, o})
			}
		}
	}
	return out
}

// render translates one thread's x86-level ops with the given table.
func render(tab *mapping.Scheme, ops ...litmus.Op) []litmus.Op {
	return tab.Apply(&litmus.Program{Threads: [][]litmus.Op{ops}}).Threads[0]
}

// programs renders rule r's pair across fence f (FenceNone: nothing) in
// context c: the source program, and the target the rule's rewrite leaves.
// Thread 0 is rendered with tab, the observer always with Figure 7a. For
// RAR the target has no b at all: litmus has no register copy, so its
// outcomes are compared with the source's a=b outcomes (see copied).
func programs(r tcg.Rule, f memmodel.Fence, c context, tab *mapping.Scheme) (src, tgt *litmus.Program) {
	access := func(k memmodel.Kind, reg litmus.Reg, v int64) litmus.Op {
		if k == memmodel.KindWrite {
			return st("X", v)
		}
		return ld(reg, "X")
	}
	earlier, later := access(r.Earlier, "a", 2), access(r.Later, "b", 3)
	var between []litmus.Op
	if f != memmodel.FenceNone {
		between = []litmus.Op{litmus.Fence{K: f}}
	}
	// without returns seg with op replaced by with (by nothing, if none).
	without := func(seg []litmus.Op, op litmus.Op, with ...litmus.Op) (out []litmus.Op) {
		for _, o := range seg {
			if o == op {
				out = append(out, with...)
			} else {
				out = append(out, o)
			}
		}
		return out
	}
	thread0 := func(e, l []litmus.Op) []litmus.Op {
		var t []litmus.Op
		for _, seg := range [][]litmus.Op{render(tab, c.prefix...), e, between, l, render(tab, c.suffix...)} {
			t = append(t, seg...)
		}
		return t
	}
	e, l := render(tab, earlier), render(tab, later)
	te, tl := e, l
	switch {
	case r.Rewrite == tcg.DropEarlier:
		te = without(e, earlier)
	case r.Earlier == memmodel.KindWrite:
		tl = without(l, later, litmus.MovImm{Dst: "b", Val: 2})
	default:
		tl = without(l, later)
	}
	name := fmt.Sprintf("%s across %v", r.Name, f)
	obs := render(figure7a, c.observer...)
	return &litmus.Program{Name: name, Threads: [][]litmus.Op{thread0(e, l), obs}},
		&litmus.Program{Name: name + " rewritten", Threads: [][]litmus.Op{thread0(te, tl), obs}}
}

// show prints a thread the way the paper writes one.
func show(ops []litmus.Op) string {
	var out []string
	for _, op := range ops {
		switch o := op.(type) {
		case litmus.Load:
			out = append(out, fmt.Sprintf("%s=%s", o.Dst, o.Loc))
		case litmus.Store:
			out = append(out, fmt.Sprintf("%s=%d", o.Loc, o.Val))
		case litmus.MovImm:
			out = append(out, fmt.Sprintf("%s:=%d", o.Dst, o.Val))
		case litmus.Fence:
			out = append(out, o.K.String())
		}
	}
	return strings.Join(out, "; ")
}

// copied keeps the outcomes in which thread 0's b read what its a read,
// and drops b from them: the source behaviours a target whose b is a copy
// of a can have.
func copied(s litmus.OutcomeSet) litmus.OutcomeSet {
	out := make(litmus.OutcomeSet)
	for o := range s {
		var a, b string
		var rest []string
		for _, tok := range strings.Fields(string(o)) {
			if v, ok := strings.CutPrefix(tok, "0:b="); ok {
				b = v
				continue
			}
			if v, ok := strings.CutPrefix(tok, "0:a="); ok {
				a = v
			}
			rest = append(rest, tok)
		}
		if a == b {
			out[litmus.Outcome(strings.Join(rest, " "))] = true
		}
	}
	return out
}

// newBehaviours returns what the rewritten program can do that the source
// cannot, under the IR model: empty iff Behav(tgt) ⊆ Behav(src).
func newBehaviours(r tcg.Rule, src, tgt *litmus.Program) []litmus.Outcome {
	s := litmus.Outcomes(src, irModel)
	if r.Rewrite == tcg.ForwardValue && r.Earlier == memmodel.KindRead {
		s = copied(s)
	}
	return litmus.Outcomes(tgt, irModel).Minus(s)
}

// witness searches the family for a context in which the rewrite adds a
// behaviour, and describes the first one ("" if none).
func witness(r tcg.Rule, f memmodel.Fence, tab *mapping.Scheme) string {
	for _, c := range family {
		src, tgt := programs(r, f, c, tab)
		if extra := newBehaviours(r, src, tgt); len(extra) > 0 {
			return fmt.Sprintf("%s ∥ %s gains %s", show(src.Threads[0]), show(src.Threads[1]), extra[0])
		}
	}
	return ""
}

// cells lists no fence and the twelve IR fence kinds.
func cells() []memmodel.Fence {
	out := []memmodel.Fence{memmodel.FenceNone}
	for f := memmodel.FenceFrr; f <= memmodel.FenceFsc; f++ {
		out = append(out, f)
	}
	return out
}

func allows(r tcg.Rule, f memmodel.Fence) bool { return f == memmodel.FenceNone || r.Cross.Has(f) }

// TestFigure10IsTheFigure pins the table against Figure 10 written out a
// second time, longhand: the pair, the fences it may be separated by (the
// paper's F- forms, plus Facq/Frel, which the IR model gives no meaning),
// and what becomes of it.
func TestFigure10IsTheFigure(t *testing.T) {
	want := []string{
		"RAR: R;F;R → the later R copies the earlier, F ∈ {Frm Fww Facq Frel}",
		"RAW: W;F;R → the later R copies the earlier, F ∈ {Fww Facq Frel Fsc}",
		"WAW: W;F;W → the earlier W goes, F ∈ {Frm Fww Facq Frel}",
	}
	if len(tcg.Figure10) != len(want) {
		t.Fatalf("Figure10 has %d rows, the figure %d", len(tcg.Figure10), len(want))
	}
	for i, r := range tcg.Figure10 {
		var cross []string
		for f := memmodel.FenceNone; f < 32; f++ { // every bit, so a stray kind shows
			if r.Cross.Has(f) {
				cross = append(cross, f.String())
			}
		}
		effect := map[tcg.Rewrite]string{
			tcg.ForwardValue: "the later R copies the earlier",
			tcg.DropEarlier:  "the earlier W goes",
		}[r.Rewrite]
		got := fmt.Sprintf("%s: %v;F;%v → %s, F ∈ {%s}", r.Name, r.Earlier, r.Later, effect, strings.Join(cross, " "))
		if got != want[i] {
			t.Errorf("row differs from the figure:\n got  %s\n want %s", got, want[i])
		}
	}
}

// TestElimFiresIffTableAllows builds, for every row and for no fence and
// each IR fence kind, the block `earlier; fence; later` on one location and
// requires accessElim to rewrite it exactly when the row's Cross holds the
// fence. RAW/Fww and RAW/Fsc, RAW/Fmr, RAR/Frm, RAR/Fsc and WAW/- are the
// cells the per-rule tests this replaces used to check by hand.
func TestElimFiresIffTableAllows(t *testing.T) {
	for _, r := range tcg.Figure10 {
		for _, f := range cells() {
			t.Run(r.Name+"/"+f.String(), func(t *testing.T) {
				b := tcg.NewBlock()
				addr := b.Temp()
				b.MovI(addr, 0x100)
				vals, dsts := [2]tcg.Temp{b.Temp(), b.Temp()}, [2]tcg.Temp{b.Temp(), b.Temp()}
				access := func(n int, k memmodel.Kind) {
					if k == memmodel.KindWrite {
						b.MovI(vals[n], int64(n+1))
						b.St(addr, 0, vals[n], 8)
					} else {
						b.Ld(dsts[n], addr, 0, 8)
						b.Mov(tcg.Temp(n), dsts[n]) // keep the value observable
					}
				}
				access(0, r.Earlier)
				if f != memmodel.FenceNone {
					b.Mb(f)
				}
				access(1, r.Later)
				b.Exit(0)
				before := b.String()
				tcg.Optimize(b, tcg.OptConfig{AccessElim: true})

				if !allows(r, f) {
					if b.String() != before {
						t.Fatalf("%s across %v must be blocked:\n%s", r.Name, f, b)
					}
					return
				}
				if b.CountOp(tcg.OpLd)+b.CountOp(tcg.OpSt) != 1 {
					t.Fatalf("%s across %v must fire:\n%s", r.Name, f, b)
				}
				if f != memmodel.FenceNone && b.CountOp(tcg.OpMb) != 1 {
					t.Fatalf("the fence must stay:\n%s", b)
				}
				// What is left computes what the pair did: the later load
				// sees the earlier access's value, the later store wins.
				it := tcg.NewInterp(b, 0x200)
				it.Mem.(tcg.Flat)[0x100] = 5
				if err := it.Run(b); err != nil {
					t.Fatal(err)
				}
				mem := binary.LittleEndian.Uint64(it.Mem.(tcg.Flat)[0x100:])
				want := map[string][3]uint64{"RAR": {5, 5, 5}, "RAW": {0, 1, 1}, "WAW": {0, 0, 2}}[r.Name]
				if got := [3]uint64{it.Temps[0], it.Temps[1], mem}; got != want {
					t.Fatalf("globals 0, 1 and [0x100] = %v, want %v:\n%s", got, want, b)
				}
			})
		}
	}
}

// TestFigure10SoundOnImages: for every cell the table allows, the rewrite
// adds no behaviour in any context of the family rendered through Figure
// 7a. The rendering's own bracket fences stand between the pair too (the
// Frm after the earlier load, the Fww before the later store), so a row
// that did not allow them could never match an image.
func TestFigure10SoundOnImages(t *testing.T) {
	for _, r := range tcg.Figure10 {
		if r.Earlier == memmodel.KindRead && !r.Cross.Has(figure7a.Load.After) ||
			r.Later == memmodel.KindWrite && !r.Cross.Has(figure7a.Store.Before) {
			t.Errorf("%s cannot cross Figure 7a's own brackets: it never matches an image", r.Name)
		}
		for _, f := range cells() {
			if !allows(r, f) {
				continue
			}
			if w := witness(r, f, figure7a); w != "" {
				t.Errorf("%s across %v is unsound on an image of Figure 7a: %s", r.Name, f, w)
			}
		}
	}
}

// TestFigure10Necessity records, for every cell the table leaves out, why:
// a context on an image of Figure 7a where crossing that fence adds a
// behaviour; failing that, one on bare IR; failing that, nothing in the
// family — the table is conservative there. The verdicts are pinned, so
// that widening a row means finding out which of the three it was.
func TestFigure10Necessity(t *testing.T) {
	const (
		onImage = "witness on an image"
		onBare  = "witness on bare IR only"
		none    = "no witness in the family — conservative here"
	)
	want := map[string]string{
		"RAR/Frr": onBare, "RAR/Frw": none, "RAR/Fwr": onImage, "RAR/Fwm": onImage,
		"RAR/Fmr": onImage, "RAR/Fmw": none, "RAR/Fmm": onImage, "RAR/Fsc": onImage,
		"RAW/Frr": onBare, "RAW/Frw": none, "RAW/Frm": onBare, "RAW/Fwr": onBare,
		"RAW/Fwm": onBare, "RAW/Fmr": onBare, "RAW/Fmw": none, "RAW/Fmm": onBare,
		"WAW/Frr": none, "WAW/Frw": none, "WAW/Fwr": onImage, "WAW/Fwm": onImage,
		"WAW/Fmr": onImage, "WAW/Fmw": onBare, "WAW/Fmm": onImage, "WAW/Fsc": onImage,
	}
	excluded := 0
	for _, r := range tcg.Figure10 {
		for _, f := range cells() {
			if allows(r, f) {
				continue
			}
			excluded++
			cell, got := r.Name+"/"+f.String(), none
			if w := witness(r, f, figure7a); w != "" {
				got = onImage
				t.Logf("%s: %s", cell, w)
			} else if w := witness(r, f, bare); w != "" {
				got = onBare
				t.Logf("%s: bare IR: %s", cell, w)
			}
			if got != want[cell] {
				t.Errorf("%s: %s, recorded as %q", cell, got, want[cell])
			}
		}
	}
	if excluded != len(want) {
		t.Errorf("the table excludes %d cells, %d verdicts are recorded", excluded, len(want))
	}
}

// TestFigure10NeedsItsPrecondition: on bare IR three cells the table allows
// add a behaviour — nothing there keeps the ordering the removed access
// carried — and the optimizer does apply the table to bare IR: thread 0 of
// §3.2's FMR example, whose RAW rewrite the paper shows unsound, is
// rewritten. Neither matters while every block is an image (frontend's
// TestFrontendEmitsImages); both would the day one is not.
func TestFigure10NeedsItsPrecondition(t *testing.T) {
	fenced := func(first, second litmus.Op) []litmus.Op { return []litmus.Op{first, mfence, second} }
	for _, c := range []struct {
		rule  tcg.Rule
		fence memmodel.Fence
		ctx   context
		gains []string // what only the rewritten program can do
	}{
		// e=Y; a=X; Frm; b=X ∥ X=7; Fsc; Y=7 — e→b through the Frm is lost.
		{tcg.Figure10[0], memmodel.FenceFrm, context{prefix: []litmus.Op{ld("e", "Y")}, observer: fenced(st("X", 7), st("Y", 7))},
			[]string{"0:e=7", "0:a=0"}},
		// e=Y; X=2; Fsc; b=X ∥ X=7; Fsc; Y=7 — e→b→X=7 is lost.
		{tcg.Figure10[1], memmodel.FenceFsc, context{prefix: []litmus.Op{ld("e", "Y")}, observer: fenced(st("X", 7), st("Y", 7))},
			[]string{"0:e=7", "0:b=2", "X=7"}},
		// X=2; Fww; X=3; Z=2 ∥ o=Z; Fsc; p=X — X=2→Z=2 is lost.
		{tcg.Figure10[2], memmodel.FenceFww, context{suffix: []litmus.Op{st("Z", 2)}, observer: fenced(ld("o", "Z"), ld("p", "X"))},
			[]string{"1:o=2", "1:p=0"}},
	} {
		if !allows(c.rule, c.fence) {
			t.Fatalf("%s across %v is no longer allowed: this case belongs in TestFigure10Necessity", c.rule.Name, c.fence)
		}
		src, tgt := programs(c.rule, c.fence, c.ctx, bare)
		extra := make(litmus.OutcomeSet)
		for _, o := range newBehaviours(c.rule, src, tgt) {
			extra[o] = true
		}
		if !extra.Contains(c.gains...) {
			t.Errorf("%s ∥ %s: rewriting %s was expected to add %v, it adds %v",
				show(src.Threads[0]), show(src.Threads[1]), c.rule.Name, c.gains, extra.Sorted())
		}
	}

	// st X; Fmr; st Y; ld Y; Frw; st Z, with the tcg builder.
	b := tcg.NewBlock()
	addr, v, a := b.Temp(), b.Temp(), b.Temp()
	for _, op := range litmus.FMRSource().Threads[0] {
		switch o := op.(type) {
		case litmus.Store:
			b.MovI(addr, 0x100+8*int64(o.Loc[0]-'X'))
			b.MovI(v, o.Val)
			b.St(addr, 0, v, 8)
		case litmus.Load:
			b.Ld(a, addr, 0, 8)
		case litmus.Fence:
			b.Mb(o.K)
		}
	}
	b.Mov(0, a)
	b.Exit(0)
	tcg.Optimize(b, tcg.OptConfig{AccessElim: true})
	if n := b.CountOp(tcg.OpLd); n != 0 {
		t.Errorf("the optimizer no longer forwards FMR's store to its load (%d loads left): "+
			"if it now looks at the fences before a pair, say so in Figure10's precondition\n%s", n, b)
	}
}

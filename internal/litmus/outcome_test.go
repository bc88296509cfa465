package litmus_test

import (
	"slices"
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/models"
)

// TestOneOutcomeFormat holds the enumerator's in-place outcome rendering to
// NewOutcome, the one writer of the format, over the differential's
// programs, the register-dataflow shapes and the .lit files: every
// candidate's rendering must be what NewOutcome makes of a deep copy's
// register files and behaviour, and under every registry model Enumerate,
// called with no options, must return exactly the NewOutcome renderings of
// the candidates the model admits.
func TestOneOutcomeFormat(t *testing.T) {
	progs := append(differentialPrograms(t), litmus.DepShapes()...)
	progs = append(progs, litmus.LitFilePrograms(t)...)
	for _, p := range progs {
		litmus.EnumerateRendered(p, func(c *litmus.Candidate, rendered []byte) bool {
			kept := keep(c)
			if want := litmus.NewOutcome(kept.Regs, kept.X.Behav()); string(rendered) != string(want) {
				t.Fatalf("%s: enumerator renders %q, NewOutcome %q for\n%v", p.Name, rendered, want, kept.X)
			}
			return true
		})
		sks := skeletons(p)
		for _, e := range models.Default().Entries() {
			want := make(litmus.OutcomeSet)
			for _, cands := range sks {
				ck := newChecker(e.Model, cands[0].X)
				for _, c := range cands {
					if ck.Consistent(c.X) {
						want[litmus.OutcomeOf(c)] = true
					}
				}
				ck.Release()
			}
			got, err := litmus.Enumerate(p, e.Model)
			if err != nil {
				t.Fatalf("%s under %s: %v", p.Name, e.Name, err)
			}
			if g, w := got.Sorted(), want.Sorted(); !slices.Equal(g, w) {
				t.Fatalf("%s under %s: Enumerate %v, NewOutcome over the admitted candidates %v",
					p.Name, e.Name, g, w)
			}
		}
	}
}

// TestNewOutcomeFormat pins the format itself: registers by thread, then by
// name, each followed by a space; then memory by location name, separated
// by single spaces.
func TestNewOutcomeFormat(t *testing.T) {
	for _, c := range []struct {
		regs []map[litmus.Reg]int64
		mem  map[string]int64
		want litmus.Outcome
	}{
		{nil, map[string]int64{"Y": 1, "X": 1}, "X=1 Y=1"},
		{[]map[litmus.Reg]int64{{"b": 2, "a": -1}, {}, {"r": 10}}, map[string]int64{"X": 0},
			"0:a=-1 0:b=2 2:r=10 X=0"},
		{[]map[litmus.Reg]int64{{"a": 42}}, nil, "0:a=42 "},
	} {
		if got := litmus.NewOutcome(c.regs, c.mem); got != c.want {
			t.Errorf("NewOutcome(%v, %v) = %q, want %q", c.regs, c.mem, got, c.want)
		}
	}
	// The behaviour of an MP candidate whose writer's stores are co-last:
	// X and Y end at 1 (what memmodel's TestBehav checks of the map).
	x := memmodel.NewExecution([]memmodel.Event{
		{ID: 0, Thread: memmodel.InitThread, Kind: memmodel.KindWrite, Loc: "X"},
		{ID: 1, Thread: memmodel.InitThread, Kind: memmodel.KindWrite, Loc: "Y"},
		{ID: 2, Thread: 0, Kind: memmodel.KindWrite, Loc: "X", Val: 1},
		{ID: 3, Thread: 0, Kind: memmodel.KindWrite, Loc: "Y", Val: 1},
		{ID: 4, Thread: 1, Kind: memmodel.KindRead, Loc: "Y", Val: 1},
		{ID: 5, Thread: 1, Kind: memmodel.KindRead, Loc: "X", Val: 0},
	})
	x.Co.Add(0, 2)
	x.Co.Add(1, 3)
	if got := litmus.NewOutcome(nil, x.Behav()); got != "X=1 Y=1" {
		t.Errorf("NewOutcome of MP's behaviour = %q, want \"X=1 Y=1\"", got)
	}
}

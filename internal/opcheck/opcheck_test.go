package opcheck

import (
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/models"
)

func TestSoundnessOnClassicCorpus(t *testing.T) {
	// Every outcome the operational machine produces must be admitted by
	// the Armed-Cats model.
	programs := []*litmus.Program{
		litmus.MP(), litmus.SB(), litmus.LB(), litmus.S(), litmus.R(),
		litmus.TwoPlusTwoW(), litmus.CoRR(), litmus.CoWW(), litmus.CoWR(),
		litmus.WRC(), litmus.ISA2(), litmus.IRIW(),
	}
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for _, p := range programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			bad, err := CheckSound(p, models.ByLevel(memmodel.LevelArm), seeds)
			if err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 {
				t.Fatalf("operational outcomes not admitted by Arm-Cats: %v", bad)
			}
		})
	}
}

func TestWeakOutcomeActuallyObservable(t *testing.T) {
	// The operational model is not vacuous: SB's weak outcome (which
	// needs genuine store-load reordering) shows up.
	c, err := Compile(litmus.SB())
	if err != nil {
		t.Fatal(err)
	}
	observed, err := c.Observe(60)
	if err != nil {
		t.Fatal(err)
	}
	if !observed.Contains("0:a=0", "1:b=0") {
		t.Fatalf("SB weak outcome never observed operationally: %v", observed.Sorted())
	}
}

func TestFencedMPNeverWeakOperationally(t *testing.T) {
	p := litmus.MPArmDMB()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := c.Observe(60)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Contains("1:a=1", "1:b=0") {
		t.Fatal("DMB-fenced MP exhibited the weak outcome operationally")
	}
}

func TestReleaseStorePublishes(t *testing.T) {
	// MP with an STLR release on Y: writer-side ordering restored even
	// without a DMB.
	p := &litmus.Program{
		Name: "MP+stlr",
		Threads: [][]litmus.Op{
			{
				litmus.Store{Loc: "X", Val: 1},
				litmus.Store{Loc: "Y", Val: 1, Attr: litmus.Attr{Rel: true}},
			},
			{
				litmus.Load{Dst: "a", Loc: "Y", Attr: litmus.Attr{Acq: true}},
				litmus.Load{Dst: "b", Loc: "X"},
			},
		},
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := c.Observe(60)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Contains("1:a=1", "1:b=0") {
		t.Fatal("release store failed to publish the earlier write")
	}
	// And the axiomatic model agrees the observations are fine.
	bad, err := CheckSound(p, models.ByLevel(memmodel.LevelArm), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("unsound observations: %v", bad)
	}
}

func TestSoundnessOnRandomPrograms(t *testing.T) {
	nProgs := 40
	if testing.Short() {
		nProgs = 10
	}
	locs := []litmus.Loc{"X", "Y", "Z"}
	for seed := 0; seed < nProgs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := &litmus.Program{Name: "rand"}
		regN := 0
		for th := 0; th < 2; th++ {
			var ops []litmus.Op
			n := 2 + rng.Intn(3)
			for i := 0; i < n; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					r := litmus.Reg(string(rune('a' + regN)))
					regN++
					ops = append(ops, litmus.Load{Dst: r, Loc: locs[rng.Intn(3)]})
				case 2:
					ops = append(ops, litmus.Store{Loc: locs[rng.Intn(3)], Val: int64(1 + rng.Intn(3))})
				case 3:
					kinds := []memmodel.Fence{memmodel.FenceDMBFF, memmodel.FenceDMBLD, memmodel.FenceDMBST}
					ops = append(ops, litmus.Fence{K: kinds[rng.Intn(3)]})
				}
			}
			p.Threads = append(p.Threads, ops)
		}
		bad, err := CheckSound(p, models.ByLevel(memmodel.LevelArm), 20)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(bad) > 0 {
			t.Fatalf("seed %d: unsound operational outcomes %v for program %+v", seed, bad, p)
		}
	}
}

func TestCompileRejectsUnsupported(t *testing.T) {
	undefReg := &litmus.Program{
		Name:    "undef",
		Threads: [][]litmus.Op{{litmus.StoreReg{Loc: "X", Src: "ghost"}}},
	}
	if _, err := Compile(undefReg); err == nil {
		t.Fatal("storereg of an undefined register must be rejected")
	}
	undefBranch := &litmus.Program{
		Name:    "undefbranch",
		Threads: [][]litmus.Op{{litmus.If{Reg: "ghost", Eq: true, Val: 1}}},
	}
	if _, err := Compile(undefBranch); err == nil {
		t.Fatal("branch on an undefined register must be rejected")
	}
	bigImm := &litmus.Program{
		Name: "bigimm",
		Threads: [][]litmus.Op{{
			litmus.MovImm{Dst: "a", Val: 1},
			litmus.If{Reg: "a", Eq: true, Val: 1 << 20},
		}},
	}
	if _, err := Compile(bigImm); err == nil {
		t.Fatal("If immediate beyond imm12 must be rejected")
	}
	relLoad := &litmus.Program{
		Name:    "relload",
		Threads: [][]litmus.Op{{litmus.Load{Dst: "a", Loc: "X", Attr: litmus.Attr{Rel: true}}}},
	}
	if _, err := Compile(relLoad); err == nil {
		t.Fatal("release-attributed load must be rejected")
	}
}

func TestCASProgramsCompileAndCheckSound(t *testing.T) {
	// The RMW corpus entries (single-instruction amo and lx/sx retry
	// loops, with and without a failure-observing Dst and If body) must
	// now compile and stay sound against the Arm model.
	for _, p := range []*litmus.Program{litmus.MPQ(), litmus.SBQ(), litmus.SBAL()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			bad, err := CheckSound(p, models.ByLevel(memmodel.LevelArm), 30)
			if err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 {
				t.Fatalf("unsound operational outcomes: %v", bad)
			}
		})
	}
}

func TestIRFencesLowerConservatively(t *testing.T) {
	// IR-level fences now lower via the StoreFlush classification: a
	// store-flushing Fwr restores SC on SB, a load-side Frm does not
	// (it lowers to a load barrier, an operational no-op).
	sbWith := func(k memmodel.Fence) *litmus.Program {
		return &litmus.Program{
			Name: "sb+" + k.String(),
			Threads: [][]litmus.Op{
				{litmus.Store{Loc: "X", Val: 1}, litmus.Fence{K: k}, litmus.Load{Dst: "a", Loc: "Y"}},
				{litmus.Store{Loc: "Y", Val: 1}, litmus.Fence{K: k}, litmus.Load{Dst: "b", Loc: "X"}},
			},
		}
	}
	c, err := Compile(sbWith(memmodel.FenceFwr))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := c.Observe(60)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Contains("0:a=0", "1:b=0") {
		t.Fatalf("Fwr-fenced SB exhibited the weak outcome: %v", observed.Sorted())
	}
	if c, err = Compile(sbWith(memmodel.FenceFrm)); err != nil {
		t.Fatal(err)
	}
	if observed, err = c.Observe(60); err != nil {
		t.Fatal(err)
	}
	if !observed.Contains("0:a=0", "1:b=0") {
		t.Fatalf("Frm-fenced SB never weak — load-side fences must not drain stores: %v", observed.Sorted())
	}
}

func TestExecutedMaskHidesUntakenRegisters(t *testing.T) {
	// MPQ's If body runs only when the CAS saw X=1; the outcome keys must
	// include the body's registers exactly when it executed — matching
	// litmus.OutcomeOf — so every operational outcome is enumerable.
	c, err := Compile(litmus.MPQ())
	if err != nil {
		t.Fatal(err)
	}
	observed, err := c.Observe(60)
	if err != nil {
		t.Fatal(err)
	}
	admitted, err := litmus.Enumerate(litmus.MPQ(), models.MustLookup("arm"))
	if err != nil {
		t.Fatal(err)
	}
	for o := range observed {
		if !admitted[o] {
			t.Fatalf("outcome %q not in the enumerable set %v — register-mask rendering diverges from OutcomeOf", o, admitted.Sorted())
		}
	}
}

// TestElevenThreadsRenderLikeLitmus: from the eleventh thread on, sorting
// "t:reg" keys as strings ("10:a" before "1:a") and sorting by thread index
// disagree, and opcheck's own copy of the outcome format reported a sound
// program unsound. There is one renderer now, litmus.NewOutcome.
func TestElevenThreadsRenderLikeLitmus(t *testing.T) {
	p := &litmus.Program{Name: "R11"}
	for i := 0; i < 11; i++ {
		p.Threads = append(p.Threads, []litmus.Op{litmus.Load{Dst: "a", Loc: "X"}})
	}
	bad, err := CheckSound(p, models.ByLevel(memmodel.LevelArm), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Fatalf("eleven loads of X=0 reported unsound: %v", bad)
	}
}

// TestObserveOnReusedMachine holds Observe's pooled machines to fresh ones:
// for every named corpus program, the walks on a machine that last ran
// IRIW (four CPUs, and more written pages than the two-thread programs)
// observe the outcome set the same walks observe on a fresh machine.
func TestObserveOnReusedMachine(t *testing.T) {
	const seeds = 8
	iriw, err := Compile(litmus.IRIW())
	if err != nil {
		t.Fatal(err)
	}
	used := machine.New(memSize)
	for _, p := range litmus.Named() {
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		want, err := c.observe(machine.New(memSize), seeds)
		if err != nil {
			t.Fatalf("%s on a fresh machine: %v", p.Name, err)
		}
		if _, err := iriw.observe(used, seeds); err != nil {
			t.Fatal(err)
		}
		got, err := c.observe(used, seeds)
		if err != nil {
			t.Fatalf("%s after IRIW: %v", p.Name, err)
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: %v on a machine IRIW ran last, %v on a fresh one", p.Name, got.Sorted(), want.Sorted())
		}
	}
}

// TestObserveConcurrently calls Observe from one goroutine per named
// program at once, as campaign's workers do, and holds each result to the
// program's serial one: the machine pool hands a machine to one Observe
// at a time.
func TestObserveConcurrently(t *testing.T) {
	const seeds = 4
	progs := litmus.Named()
	compiled := make([]*Compiled, len(progs))
	want := make([]litmus.OutcomeSet, len(progs))
	for i, p := range progs {
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if want[i], err = c.Observe(seeds); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		compiled[i] = c
	}
	got := make([]litmus.OutcomeSet, len(progs))
	errs := make([]error, len(progs))
	var wg sync.WaitGroup
	for i, c := range compiled {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.Observe(seeds)
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if errs[i] != nil {
			t.Errorf("%s: %v", p.Name, errs[i])
		} else if !maps.Equal(got[i], want[i]) {
			t.Errorf("%s: %v concurrently, %v alone", p.Name, got[i].Sorted(), want[i].Sorted())
		}
	}
}

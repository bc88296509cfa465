package mapping

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/models/armcats"
	"repro/internal/models/tcgmm"
	"repro/internal/models/x86tso"
)

// TestVerifiedX86ToTCG checks Theorem 1 for step (1) of Figure 7 over the
// whole x86 corpus: the verified x86→TCG scheme introduces no behaviour.
func TestVerifiedX86ToTCG(t *testing.T) {
	for _, p := range litmus.X86Corpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tgt := X86Verified.Apply(p)
			v := VerifyTheorem1(p, x86tso.New(), tgt, tcgmm.New())
			if !v.Correct() {
				t.Fatalf("verified x86→TCG introduced behaviours on %s: %v", p.Name, v.NewBehaviours)
			}
		})
	}
}

// TestQemuX86ToTCG checks QEMU's (stronger-than-needed) IR mapping against
// the IR model. It is correct on everything except MPQ: QEMU places fences
// *before* accesses, so nothing orders a load with a po-later *failed* RMW
// (a failed RMW generates only an Rsc event, which Figure 6's ord orders
// with successors, not predecessors). This is the IR-level shadow of the
// MPQ translation error; Risotto's trailing Frm after loads fixes it.
func TestQemuX86ToTCG(t *testing.T) {
	for _, p := range litmus.X86Corpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tgt := X86Qemu.Apply(p)
			v := VerifyTheorem1(p, x86tso.New(), tgt, tcgmm.New())
			if p.Name == "MPQ" {
				if v.Correct() {
					t.Fatal("QEMU's leading-fence IR mapping must already be erroneous on MPQ")
				}
				return
			}
			if !v.Correct() {
				t.Fatalf("QEMU x86→TCG introduced behaviours on %s: %v", p.Name, v.NewBehaviours)
			}
		})
	}
}

// TestVerifiedTCGToArm checks Theorem 1 for step (3): TCG programs produced
// by the verified IR mapping, lowered with the verified Arm scheme, under
// the corrected Armed-Cats model — for both RMW lowerings of Figure 7b.
func TestVerifiedTCGToArm(t *testing.T) {
	for name, lower := range map[string]*Scheme{"casal": ArmVerified, "rmw2+dmb": ArmVerifiedLxSx} {
		for _, p := range litmus.X86Corpus() {
			p, lower := p, lower
			t.Run(name+"/"+p.Name, func(t *testing.T) {
				ir := X86Verified.Apply(p)
				arm := lower.Apply(ir)
				v := VerifyTheorem1(ir, tcgmm.New(), arm, armcats.New())
				if !v.Correct() {
					t.Fatalf("verified TCG→Arm (%s) introduced behaviours on %s: %v",
						name, p.Name, v.NewBehaviours)
				}
			})
		}
	}
}

// TestVerifiedEndToEnd checks the composed x86→Arm translation (Figure 7c).
func TestVerifiedEndToEnd(t *testing.T) {
	for name, lower := range map[string]*Scheme{"casal": ArmVerified, "rmw2+dmb": ArmVerifiedLxSx} {
		for _, p := range litmus.X86Corpus() {
			p, lower := p, lower
			t.Run(name+"/"+p.Name, func(t *testing.T) {
				arm := ApplyRoute([]*Scheme{X86Verified, lower}, p)
				v := VerifyTheorem1(p, x86tso.New(), arm, armcats.New())
				if !v.Correct() {
					t.Fatalf("verified x86→Arm (%s) introduced behaviours on %s: %v",
						name, p.Name, v.NewBehaviours)
				}
			})
		}
	}
}

// TestQemuEndToEndErrors reproduces §3.2: QEMU's composed translation is
// erroneous on MPQ (with the GCC-10 casal helper) and on SBQ (with the
// GCC-9 ldaxr/stlxr helper).
func TestQemuEndToEndErrors(t *testing.T) {
	mpq := ApplyRoute([]*Scheme{X86Qemu, ArmQemuCasal}, litmus.MPQ())
	v := VerifyTheorem1(litmus.MPQ(), x86tso.New(), mpq, armcats.New())
	if v.Correct() {
		t.Fatal("QEMU translation of MPQ must exhibit new behaviour (a=1,X=1)")
	}

	sbq := ApplyRoute([]*Scheme{X86Qemu, ArmQemuLxSx}, litmus.SBQ())
	v = VerifyTheorem1(litmus.SBQ(), x86tso.New(), sbq, armcats.New())
	if v.Correct() {
		t.Fatal("QEMU translation of SBQ must exhibit new behaviour (a=b=0)")
	}
}

// TestQemuCorrectWithoutRMWs shows QEMU's scheme is fine on the fence/plain
// access corpus — its errors are confined to RMW handling.
func TestQemuCorrectWithoutRMWs(t *testing.T) {
	for _, p := range []*litmus.Program{
		litmus.MP(), litmus.SB(), litmus.SBFenced(), litmus.LB(),
		litmus.S(), litmus.R(), litmus.RFenced(), litmus.TwoPlusTwoW(),
		litmus.CoRR(), litmus.CoWW(), litmus.CoWR(),
	} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			arm := ApplyRoute([]*Scheme{X86Qemu, ArmQemuCasal}, p)
			v := VerifyTheorem1(p, x86tso.New(), arm, armcats.New())
			if !v.Correct() {
				t.Fatalf("QEMU translation of RMW-free %s should be correct: %v",
					p.Name, v.NewBehaviours)
			}
		})
	}
}

// TestNoFencesIncorrect shows the no-fences oracle is incorrect: MP gains
// the weak outcome.
func TestNoFencesIncorrect(t *testing.T) {
	arm := ApplyRoute([]*Scheme{X86NoFences, ArmVerified}, litmus.MP())
	v := VerifyTheorem1(litmus.MP(), x86tso.New(), arm, armcats.New())
	if v.Correct() {
		t.Fatal("no-fences translation of MP must introduce the weak outcome")
	}
}

// TestArmCatsIntendedMappingSBAL reproduces §3.3: the Figure-3 "intended"
// Armed-Cats mapping (LDRQ/STRL/casal) is erroneous for SBAL under the
// original model, and correct under the corrected model.
func TestArmCatsIntendedMappingSBAL(t *testing.T) {
	src := litmus.SBAL()
	tgt := litmus.SBALArm()

	v := VerifyTheorem1(src, x86tso.New(), tgt, armcats.NewVariant(armcats.Original))
	if v.Correct() {
		t.Fatal("under the original Armed-Cats model, the Figure-3 mapping of SBAL must be erroneous")
	}

	v = VerifyTheorem1(src, x86tso.New(), tgt, armcats.New())
	if !v.Correct() {
		t.Fatalf("under the corrected model the Figure-3 mapping of SBAL is correct; got %v", v.NewBehaviours)
	}
}

// figure renders a table the way the paper draws one: name, levels and
// claim, what surrounds a load, a store and an RMW, then every fence of any
// level the table rewrites (the rest it keeps).
func figure(s *Scheme) string {
	around := func(before memmodel.Fence, what string, after memmodel.Fence) string {
		if before != memmodel.FenceNone {
			what = before.String() + ";" + what
		}
		if after != memmodel.FenceNone {
			what += ";" + after.String()
		}
		return what
	}
	rmw := []string{"RMW", "RMW1", "RMW2"}[s.RMW.Attr.Class] + "^"
	for _, a := range []struct {
		set  bool
		name string
	}{{s.RMW.Attr.Acq, "A"}, {s.RMW.Attr.AcqPC, "Q"}, {s.RMW.Attr.Rel, "L"}, {s.RMW.Attr.SC, "sc"}} {
		if a.set {
			rmw += a.name
		}
	}
	out := []string{
		fmt.Sprintf("%s %s→%s verified=%v", s.Name, s.Src, s.Dst, s.Verified),
		around(s.Load.Before, "ld", s.Load.After),
		around(s.Store.Before, "st", s.Store.After),
		around(s.RMW.Before, strings.TrimSuffix(rmw, "^"), s.RMW.After),
	}
	var rows []string
	for k := memmodel.FenceMFENCE; k <= memmodel.FenceMembarSS; k++ {
		if to := s.Fence(k); to != k {
			rows = append(rows, k.String()+"→"+to.String())
		}
	}
	return strings.Join(append(out, strings.Join(rows, " ")), " | ")
}

// TestTablesAreTheFigures pins every table against Figures 2, 7a and 7b
// written out a second time, longhand ("-" = dropped). The placement tests
// in frontend and backend compare the translator with Scheme.Apply — two
// readers of one table — and TestMinimality reaches only the rows the
// verified chain emits, so this is the one place a row such as Fmm→DMBFF,
// which the optimizer's fence merging makes the real translator emit, is
// compared with the paper.
func TestTablesAreTheFigures(t *testing.T) {
	const (
		fig7b = "Frr→DMBLD Frw→DMBLD Frm→DMBLD Fww→DMBST Fwr→DMBFF Fwm→DMBFF " +
			"Fmr→DMBFF Fmw→DMBFF Fmm→DMBFF Facq→- Frel→- Fsc→DMBFF"
		fig2 = "Frr→DMBLD Frw→DMBLD Frm→DMBLD Fww→DMBFF Fwr→DMBFF Fwm→DMBFF " +
			"Fmr→DMBFF Fmw→DMBFF Fmm→DMBFF Facq→- Frel→- Fsc→DMBFF"
	)
	for _, c := range []struct {
		tab  *Scheme
		want string
	}{
		{X86Verified, "x86→tcg/verified x86→tcg verified=true | ld;Frm | Fww;st | RMW^sc | MFENCE→Fsc"},
		{X86Qemu, "x86→tcg/qemu x86→tcg verified=false | Frr;ld | Fmw;st | RMW^sc | MFENCE→Fsc"},
		{X86NoFences, "x86→tcg/no-fences x86→tcg verified=false | ld | st | RMW^sc | MFENCE→Fsc"},
		{ArmVerified, "tcg→arm/verified tcg→arm verified=true | ld | st | RMW1^AL | " + fig7b},
		{ArmVerifiedLxSx, "tcg→arm/verified-lxsx tcg→arm verified=true | ld | st | DMBFF;RMW2;DMBFF | " + fig7b},
		{ArmQemuCasal, "tcg→arm/qemu-casal tcg→arm verified=false | ld | st | RMW1^AL | " + fig2},
		{ArmQemuLxSx, "tcg→arm/qemu-lxsx tcg→arm verified=false | ld | st | RMW2^AL | " + fig2},
		{x86ToSPARC, "x86→sparc/membar x86→sparc verified=true | ld | st | RMW | MFENCE→MembarSL"},
		{sparcToTCG, "sparc→tcg/verified sparc→tcg verified=true | ld;Frm | Fww;st | RMW^sc | " +
			"MembarLL→Frr MembarLS→Frw MembarSL→Fwr MembarSS→Fww"},
		{x86ToIMM, "x86→imm/verified x86→imm verified=true | ld;Frm | Fww;st | RMW^sc | MFENCE→Fsc"},
		{immToArm, "imm→arm/verified imm→arm verified=true | ld | st | RMW1^AL | " + fig7b},
	} {
		if got := figure(c.tab); got != c.want {
			t.Errorf("table differs from the figure:\n got  %s\n want %s", got, c.want)
		}
	}
}

// TestCloneSharesNothing: editing a Clone (and a relabelled table, which is
// one) leaves the table the translator emits from alone.
func TestCloneSharesNothing(t *testing.T) {
	before := figure(X86Verified)
	for _, v := range []*Scheme{
		X86Verified.Clone(),
		X86Verified.relabel("copy", memmodel.LevelX86, memmodel.LevelIMM),
	} {
		v.Fences[memmodel.FenceMFENCE] = memmodel.FenceNone
		v.Load.After = memmodel.FenceNone
		if after := figure(X86Verified); after != before {
			t.Fatalf("editing a copy rewrote x86→tcg/verified: %s", after)
		}
	}
}

// mpRMW is message passing whose flag write is an RMW: X=1; RMW(Y,0,1) ∥
// a=Y; b=X. x86 forbids a=1,b=0. It is the one witness for the leading
// DMBFF of DMBFF;RMW2;DMBFF — every corpus program passes without it.
func mpRMW() *litmus.Program {
	return &litmus.Program{
		Name: "MP+rmw",
		Threads: [][]litmus.Op{
			{
				litmus.Store{Loc: "X", Val: 1},
				litmus.CAS{Loc: "Y", Expect: 0, New: 1, Attr: litmus.Attr{Class: memmodel.RMWAmo}},
			},
			{litmus.Load{Dst: "a", Loc: "Y"}, litmus.Load{Dst: "b", Loc: "X"}},
		},
	}
}

// variant is a table with one entry dropped (a fence) or weakened (an RMW
// attribute).
type variant struct {
	entry string         // the entry edited, for messages
	row   memmodel.Fence // its key when it is a Fences row, else FenceNone
	s     *Scheme
}

// oneEntryLess returns one variant per entry of the table that places or
// keeps something.
func oneEntryLess(s *Scheme) []variant {
	var out []variant
	edit := func(entry string, row memmodel.Fence, f func(*Scheme)) {
		v := s.Clone()
		f(v)
		out = append(out, variant{entry, row, v})
	}
	for _, pl := range []struct {
		name string
		at   func(*Scheme) *memmodel.Fence
	}{
		{"Load.Before", func(v *Scheme) *memmodel.Fence { return &v.Load.Before }},
		{"Load.After", func(v *Scheme) *memmodel.Fence { return &v.Load.After }},
		{"Store.Before", func(v *Scheme) *memmodel.Fence { return &v.Store.Before }},
		{"Store.After", func(v *Scheme) *memmodel.Fence { return &v.Store.After }},
		{"RMW.Before", func(v *Scheme) *memmodel.Fence { return &v.RMW.Before }},
		{"RMW.After", func(v *Scheme) *memmodel.Fence { return &v.RMW.After }},
	} {
		if k := *pl.at(s); k != memmodel.FenceNone {
			edit(fmt.Sprintf("%s=%s", pl.name, k), memmodel.FenceNone,
				func(v *Scheme) { *pl.at(v) = memmodel.FenceNone })
		}
	}
	var rows []memmodel.Fence
	for k, to := range s.Fences {
		if to != memmodel.FenceNone {
			rows = append(rows, k)
		}
	}
	slices.Sort(rows)
	for _, k := range rows {
		edit(fmt.Sprintf("%s→%s", k, s.Fences[k]), k, func(v *Scheme) { v.Fences[k] = memmodel.FenceNone })
	}
	if s.RMW.Attr.Acq {
		edit("RMW.Acq", memmodel.FenceNone, func(v *Scheme) { v.RMW.Attr.Acq = false })
	}
	if s.RMW.Attr.Rel {
		edit("RMW.Rel", memmodel.FenceNone, func(v *Scheme) { v.RMW.Attr.Rel = false })
	}
	return out
}

// TestMinimality is the Figure-8 necessity argument as a loop over the
// tables: for each entry the verified x86→IR→Arm chain emits (under both
// RMW lowerings), the chain with that one entry dropped or weakened must
// break Theorem 1 on some program. An entry without a witness is
// droppable, and fails the test.
func TestMinimality(t *testing.T) {
	progs := append(litmus.X86Corpus(), mpRMW())
	// emitted reports whether the x86→IR hop produces IR fence k at all.
	emitted := func(k memmodel.Fence) bool {
		return slices.ContainsFunc(progs, func(p *litmus.Program) bool {
			return countFences(X86Verified.Apply(p), k) > 0
		})
	}
	witnesses := func(x86, arm *Scheme) (ws []string) {
		for _, p := range progs {
			v := VerifyTheorem1(p, x86tso.New(), arm.Apply(x86.Apply(p)), armcats.New())
			if v.Err != nil {
				t.Fatal(v.Err)
			}
			if !v.Correct() {
				ws = append(ws, fmt.Sprintf("%s %v", p.Name, v.NewBehaviours))
			}
		}
		return ws
	}
	for _, arm := range []*Scheme{ArmVerified, ArmVerifiedLxSx} {
		if ws := witnesses(X86Verified, arm); len(ws) != 0 {
			t.Fatalf("%s + %s is unsound before any entry is dropped: %v", X86Verified.Name, arm.Name, ws)
		}
		var entries []string
		require := func(hop *Scheme, entry string, ws []string) {
			entries = append(entries, entry)
			if len(ws) == 0 {
				t.Errorf("%s is droppable from %s (chain ending in %s): no program breaks without it",
					entry, hop.Name, arm.Name)
			}
			t.Logf("%s without %s (chain ending in %s): %v", hop.Name, entry, arm.Name, ws)
		}
		for _, v := range oneEntryLess(X86Verified) {
			require(X86Verified, v.entry, witnesses(v.s, arm))
		}
		for _, v := range oneEntryLess(arm) {
			if v.row == memmodel.FenceNone || emitted(v.row) {
				require(arm, v.entry, witnesses(X86Verified, v.s))
			}
		}
		want := []string{"Load.After=Frm", "Store.Before=Fww", "MFENCE→Fsc"}
		if arm == ArmVerifiedLxSx {
			want = append(want, "RMW.Before=DMBFF", "RMW.After=DMBFF")
		}
		want = append(want, "Frm→DMBLD", "Fww→DMBST", "Fsc→DMBFF")
		if arm == ArmVerified {
			want = append(want, "RMW.Acq", "RMW.Rel")
		}
		if !slices.Equal(entries, want) {
			t.Errorf("entries checked for %s: %v, want %v", arm.Name, entries, want)
		}
	}
}

// TestVerifiedMappingOnDependencyPrograms checks Theorem 1 on programs
// with address dependencies: the verified scheme's fences subsume the
// orderings the dependencies would have provided on Arm (and must, since
// TCG may eliminate false dependencies, §6.1).
func TestVerifiedMappingOnDependencyPrograms(t *testing.T) {
	for _, p := range []*litmus.Program{
		{
			Name: "MP+addr-x86",
			Threads: [][]litmus.Op{
				{litmus.Store{Loc: "X0", Val: 1}, litmus.Store{Loc: "Y", Val: 1}},
				{
					litmus.Load{Dst: "a", Loc: "Y"},
					litmus.LoadIdx{Dst: "b", Idx: "a", Loc0: "X0", Loc1: "X0"},
				},
			},
		},
		{
			Name: "LB+addrs-x86",
			Threads: [][]litmus.Op{
				{
					litmus.Load{Dst: "a", Loc: "X"},
					litmus.StoreIdx{Idx: "a", Loc0: "Y", Loc1: "Y", Val: 1},
				},
				{
					litmus.Load{Dst: "b", Loc: "Y"},
					litmus.StoreIdx{Idx: "b", Loc0: "X", Loc1: "X", Val: 1},
				},
			},
		},
	} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			arm := ApplyRoute([]*Scheme{X86Verified, ArmVerified}, p)
			v := VerifyTheorem1(p, x86tso.New(), arm, armcats.New())
			if !v.Correct() {
				t.Fatalf("verified mapping broken on %s: %v", p.Name, v.NewBehaviours)
			}
			// The no-fences "mapping" additionally DROPS the dependency
			// ordering the IR cannot express; at the Arm level the
			// dependency survives untranslated here, so the program stays
			// ordered — the interesting unsoundness is the IR-level one,
			// demonstrated by LB+addrs under tcgmm in armcats's tests.
		})
	}
}

// TestSBStaysRelaxed checks the paper's performance claim foundation: the
// verified mapping leaves x86's one relaxation (store-load) observable —
// SB's weak outcome survives translation (no fence between st and ld).
func TestSBStaysRelaxed(t *testing.T) {
	arm := ApplyRoute([]*Scheme{X86Verified, ArmVerified}, litmus.SB())
	out := litmus.Outcomes(arm, armcats.New())
	if !out.Contains("0:a=0", "1:b=0") {
		t.Fatal("the verified mapping must not over-synchronize: SB weak outcome should survive")
	}
}

// TestTheorem1RejectsUnassignedRegister: a target that reads a register it
// never assigned has an empty outcome set, which is contained in anything;
// the verdict must be an error, not "correct".
func TestTheorem1RejectsUnassignedRegister(t *testing.T) {
	typo := &litmus.Program{Name: "MP+typo", Threads: [][]litmus.Op{
		{litmus.Store{Loc: "X", Val: 1}, litmus.Store{Loc: "Y", Val: 1}},
		{
			litmus.Load{Dst: "a", Loc: "Y"},
			litmus.If{Reg: "aa", Eq: true, Val: 1, Body: []litmus.Op{litmus.Load{Dst: "b", Loc: "X"}}},
		},
	}}
	v := VerifyTheorem1(litmus.MP(), x86tso.New(), typo, armcats.New())
	if v.Correct() || v.Err == nil {
		t.Fatalf("verdict %+v: want an error naming the register", v)
	}
	if !strings.Contains(v.Err.Error(), `"aa"`) {
		t.Errorf("error %q does not name the register", v.Err)
	}
}

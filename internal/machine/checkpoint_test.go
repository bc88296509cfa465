package machine_test

import (
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/isa/arm"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/opcheck"
)

// loader puts a machine in a program's initial state, from whatever state
// it is in, through Reset.
type loader func(m *machine.Machine) error

// checkpointMem is the memory size of every machine the rollback tests
// build: opcheck's.
const checkpointMem = 1 << 16

// rollbackStats counts what one seeded schedule exercised.
type rollbackStats struct {
	saves, rollbacks, compares int
}

// checkRollback drives a machine loaded by load along a seeded schedule:
// it saves checkpoints at random states, rolls back to a random live one
// (discarding those saved after it) at random points and at every final
// state, and takes new random branches from there. After every rollback,
// and at the end, the machine must be the state a fresh replay of the
// decision path yields on a machine reset and loaded by load — field by
// field (machine.StateDiff) — and every fetch it serves from its decode
// table must decode memory.
func checkRollback(t *testing.T, name string, load loader, seed uint64) rollbackStats {
	t.Helper()
	m, ref := machine.New(checkpointMem), machine.New(checkpointMem)
	if err := load(m); err != nil {
		t.Fatal(err)
	}
	machine.CheckFetches(t, m)
	rng := rand.New(rand.NewPCG(seed, 1))
	type saved struct {
		cp    *machine.Checkpoint
		depth int
	}
	var (
		cps   []saved
		spare []*machine.Checkpoint
		path  []machine.Transition
		ts    []machine.Transition
		st    rollbackStats
	)
	compare := func(when string) {
		t.Helper()
		st.compares++
		if err := load(ref); err != nil {
			t.Fatal(err)
		}
		for i, tr := range path {
			if _, err := ref.Apply(tr, nil); err != nil {
				t.Fatalf("%s seed %d: replay step %d %v: %v", name, seed, i, tr, err)
			}
		}
		if d := machine.StateDiff(m, ref); len(d) > 0 {
			t.Fatalf("%s seed %d, %s after %d transitions: the rolled-back machine differs from a replay:\n%v", name, seed, when, len(path), d)
		}
	}
	for step := 0; step < 400 && st.rollbacks < 30; step++ {
		ts = m.Enabled(ts[:0])
		if len(cps) > 0 && (len(ts) == 0 || rng.IntN(5) == 0) {
			k := rng.IntN(len(cps))
			for _, s := range cps[k+1:] {
				spare = append(spare, s.cp)
			}
			cps = cps[:k+1]
			m.Rollback(cps[k].cp)
			path = path[:cps[k].depth]
			st.rollbacks++
			compare("a rollback")
			continue
		}
		if len(ts) == 0 {
			break
		}
		if rng.IntN(3) == 0 {
			cp := new(machine.Checkpoint)
			if n := len(spare); n > 0 {
				cp, spare = spare[n-1], spare[:n-1]
			}
			m.Save(cp)
			cps = append(cps, saved{cp, len(path)})
			st.saves++
		}
		tr := ts[rng.IntN(len(ts))]
		if _, err := m.Apply(tr, nil); err != nil {
			t.Fatalf("%s seed %d: %v: %v", name, seed, tr, err)
		}
		path = append(path, tr)
	}
	compare("the last transition")
	return st
}

// compiledLoader loads a litmus program as opcheck compiles it.
func compiledLoader(t *testing.T, p *litmus.Program) (loader, bool) {
	t.Helper()
	c, err := opcheck.Compile(p)
	if errors.Is(err, opcheck.ErrUnsupported) {
		return nil, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return c.Reset, true
}

// codeLoader loads code at textBase with hook as the Syscall handler, in
// weak mode, one CPU parked at each entry.
func codeLoader(code []byte, entries []uint64, hook func(*machine.Machine, *machine.CPU, uint16) error) loader {
	return func(m *machine.Machine) error {
		m.Reset()
		m.Syscall = hook
		if err := m.Write(textBase, code); err != nil {
			return err
		}
		m.EnableWeakMode()
		for i, e := range entries {
			c := m.CPUs[0]
			if i > 0 {
				c = m.AddCPU()
			}
			c.PC = e
		}
		return nil
	}
}

// textBase is where the hand-built programs' code starts.
const textBase = 0x1000

// assemble assembles a at textBase and returns the code and the addresses
// of labels.
func assemble(t *testing.T, a *arm.Assembler, labels ...string) ([]byte, []uint64) {
	t.Helper()
	code, syms, err := a.Assemble(textBase)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint64, len(labels))
	for i, l := range labels {
		addrs[i] = syms[l]
	}
	return code, addrs
}

// patchingProgram's first thread executes the instruction at "site",
// stores what it loaded, and then calls SVC #7, whose handler rewrites
// the site through Write inside the exec transition — so the site's
// decode slot must follow the bytes a rollback puts back. The second
// thread races on the stored location.
func patchingProgram(t *testing.T) loader {
	a := arm.NewAssembler()
	a.Label("t0").MovImm(arm.X10, 3).Label("loop").Label("site").
		Raw(arm.Inst{Op: arm.MOVZ, Rd: arm.X1, Imm: 1}).
		MovImm(arm.X2, 0x8000).Str(arm.X1, arm.X2, 0, 8).
		Svc(7).
		SubI(arm.X10, arm.X10, 1).CbnzLabel(arm.X10, "loop").
		Hlt()
	a.Label("t1").MovImm(arm.X3, 0x8000).Ldr(arm.X4, arm.X3, 0, 8).
		MovImm(arm.X3, 0x8008).Str(arm.X4, arm.X3, 0, 8).Hlt()
	code, addrs := assemble(t, a, "t0", "t1", "site")
	site := addrs[2]
	hook := func(m *machine.Machine, c *machine.CPU, imm uint16) error {
		if imm != 7 {
			return machine.NativeSyscall(m, c, imm)
		}
		w, err := arm.Encode(arm.Inst{Op: arm.MOVZ, Rd: arm.X1, Imm: int64(10 + c.Regs[10])})
		if err != nil {
			return err
		}
		return m.Write(site, binary.LittleEndian.AppendUint32(nil, w))
	}
	return codeLoader(code, addrs[:2], hook)
}

// spawningProgram's first thread starts the second inside an exec
// transition (the spawn syscall's AddCPU), stores and loads against it,
// writes to the output, and joins it, parking until it halts.
func spawningProgram(t *testing.T) loader {
	a := arm.NewAssembler()
	a.Label("t0").
		MovSym(arm.X0, "child").MovImm(arm.X1, 5).MovImm(arm.X2, 0).MovImm(arm.X8, machine.SysSpawn).Svc(0).
		Mov(arm.X19, arm.X0).
		MovImm(arm.X2, 0x8000).MovImm(arm.X1, 1).Str(arm.X1, arm.X2, 0, 8).
		MovImm(arm.X3, 0x8008).Ldr(arm.X4, arm.X3, 0, 8).
		MovImm(arm.X0, textBase).MovImm(arm.X1, 6).MovImm(arm.X8, machine.SysWrite).Svc(0).
		Mov(arm.X0, arm.X19).MovImm(arm.X8, machine.SysJoin).Svc(0).
		MovImm(arm.X3, 0x8010).Str(arm.X4, arm.X3, 0, 8).
		Hlt()
	a.Label("child").
		MovImm(arm.X2, 0x8008).Str(arm.X0, arm.X2, 0, 8).
		MovImm(arm.X3, 0x8000).Ldr(arm.X4, arm.X3, 0, 8).
		MovImm(arm.X3, 0x8018).Str(arm.X4, arm.X3, 0, 8).
		Hlt()
	code, addrs := assemble(t, a, "t0")
	return codeLoader(code, addrs, machine.NativeSyscall)
}

// mpRMW is message passing whose flag write is a single-instruction CAS.
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

// casPairs contends on one location with an exclusive pair and a CASAL
// on each thread, so rollbacks cross armed monitors and line-owner
// changes.
func casPairs() *litmus.Program {
	lxsx := litmus.Attr{Class: memmodel.RMWLxSx}
	return &litmus.Program{
		Name: "CAS+pairs",
		Threads: [][]litmus.Op{
			{
				litmus.CAS{Loc: "X", Expect: 0, New: 1, Dst: "a", Attr: lxsx},
				litmus.CAS{Loc: "X", Expect: 2, New: 3, Dst: "b", Attr: litmus.Attr{SC: true, Class: memmodel.RMWAmo}},
			},
			{
				litmus.Store{Loc: "Y", Val: 1},
				litmus.CAS{Loc: "X", Expect: 1, New: 2, Dst: "c", Attr: lxsx},
				litmus.CAS{Loc: "X", Expect: 0, New: 4, Dst: "d", Attr: litmus.Attr{Class: memmodel.RMWAmo}},
			},
		},
	}
}

// TestRollbackEqualsReplay: rolling a machine back to a checkpoint and
// going on from there is indistinguishable from replaying the decision
// path on a reset machine, over the named corpus, an RMW and an
// exclusive/CAS program, and hand-built programs whose exec transitions
// write code through Write and start a CPU.
func TestRollbackEqualsReplay(t *testing.T) {
	type program struct {
		name string
		load loader
	}
	var progs []program
	for _, p := range append(litmus.Named(), mpRMW(), casPairs()) {
		if load, ok := compiledLoader(t, p); ok {
			progs = append(progs, program{p.Name, load})
		}
	}
	progs = append(progs, program{"patching", patchingProgram(t)}, program{"spawning", spawningProgram(t)})
	for _, p := range progs {
		var total rollbackStats
		for seed := range uint64(6) {
			st := checkRollback(t, p.name, p.load, seed)
			total.saves += st.saves
			total.rollbacks += st.rollbacks
			total.compares += st.compares
		}
		if total.saves == 0 || total.rollbacks == 0 {
			t.Errorf("%s: %d saves and %d rollbacks over the seeds", p.name, total.saves, total.rollbacks)
		}
	}
}

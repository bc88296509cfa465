package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/isa/x86"
	"repro/internal/selfheal"
)

// sweepGuest is a guest program with a known fault-free exit code.
type sweepGuest struct {
	name string
	img  *guestimg.Image
	want uint64
	// idl, when set, host-links the guest's imports against newTestLib.
	idl string
}

// sweepGuests builds the known-answer guests of the fault sweep: a
// store/reload loop (decode, memory and step sites), a success-then-failure
// cmpxchg pair (the atomic path) and a host-linked call (the host-call
// site).
func sweepGuests(t *testing.T) []sweepGuest {
	t.Helper()
	build := func(b *guestimg.Builder) *guestimg.Image {
		img, err := b.Build("main")
		if err != nil {
			t.Fatal(err)
		}
		return img
	}

	sum := guestimg.NewBuilder(0x10000, 0x40000)
	buf := sum.Zeros(16 * 8)
	sum.Asm.Label("main").
		MovRI(x86.RSI, int64(buf)).
		MovRI(x86.RCX, 0).
		MovRI(x86.RAX, 0).
		Label("loop").
		Store(x86.MemIdx(x86.RSI, x86.RCX, 8, 0), x86.RCX, 8).
		Load(x86.RBX, x86.MemIdx(x86.RSI, x86.RCX, 8, 0), 8).
		AddRR(x86.RAX, x86.RBX).
		AddRI(x86.RCX, 1).
		CmpRI(x86.RCX, 16).
		Jcc(x86.CondNE, "loop")
	exitWith(sum.Asm, x86.RAX)

	cas := guestimg.NewBuilder(0x10000, 0x40000)
	cell := cas.Zeros(8)
	cas.Asm.Label("main").
		MovRI(x86.RSI, int64(cell)).
		MovRI(x86.RAX, 0).
		MovRI(x86.RBX, 7).
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8).
		MovRI(x86.RAX, 0).
		MovRI(x86.RBX, 9).
		CmpXchg(x86.Mem0(x86.RSI), x86.RBX, 8)
	exitWith(cas.Asm, x86.RAX)

	host := guestimg.NewBuilder(0x10000, 0x40000)
	host.Import("triple")
	host.Asm.Label("main").
		MovRI(x86.RDI, 14).
		Call("triple@plt").
		Jmp("done").
		Label("triple"). // guest fallback, never linked here
		MovRR(x86.RAX, x86.RDI).
		Ret().
		Label("done")
	exitWith(host.Asm, x86.RAX)

	return []sweepGuest{
		{name: "sum-loop", img: build(sum), want: 120}, // sum 0..15
		// The second CAS fails and leaves the old value (7) in RAX.
		{name: "cas", img: build(cas), want: 7},
		{name: "host-call", img: build(host), want: 42, idl: "i64 triple(i64 x);\n"},
	}
}

// sweepSites lists every site a -fault name arms, in SpecNames order.
func sweepSites(t *testing.T) []faults.Site {
	t.Helper()
	var sites []faults.Site
	seen := map[faults.Site]bool{}
	for _, name := range faults.SpecNames() {
		sp, err := faults.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[sp.Site] {
			seen[sp.Site] = true
			sites = append(sites, sp.Site)
		}
	}
	return sites
}

// sweepCell is one run of the fault sweep.
type sweepCell struct {
	code   uint64
	err    error
	trap   *faults.Trap
	stats  Stats
	counts map[faults.Site]uint64
}

// line renders everything the golden pins about the cell except its label.
func (c sweepCell) line(sites []faults.Site) string {
	var b strings.Builder
	if c.trap != nil {
		fmt.Fprintf(&b, "trap %s pc=%#x guest=%v cpu=%d", c.trap.Kind, c.trap.PC, c.trap.GuestPC, c.trap.CPU)
	} else {
		fmt.Fprintf(&b, "exit %d", c.code)
	}
	fmt.Fprintf(&b, " flushes=%d heals=%d quarantines=%d divergences=%d",
		c.stats.CacheFlushes, c.stats.Heals, c.stats.Quarantines, c.stats.Divergences)
	for _, site := range sites {
		fmt.Fprintf(&b, " %s=%d", site, c.counts[site])
	}
	return b.String()
}

// runSweepCell runs g with spec armed ("" arms nothing). Every run carries
// a step budget and a deadline, so a hang is a trap, and a panic fails the
// test. heal turns on -selfheal and -selfcheck.
func runSweepCell(t *testing.T, g sweepGuest, spec string, heal bool, sites []faults.Site) sweepCell {
	t.Helper()
	in := faults.NewInjector()
	if spec != "" {
		sp, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		sp.Arm(in)
	}
	rt, err := newRuntime(Config{
		Replay: selfheal.Replay{
			StepBudget: 5_000_000, Deadline: 30 * time.Second,
			SelfHeal: heal, SelfCheck: heal, IDL: g.idl,
		},
		Variant: VariantRisotto, Lib: newTestLib(), Inject: in,
	}, g.img)
	if err != nil {
		t.Fatalf("%s/%s: %v", g.name, spec, err)
	}
	c := sweepCell{counts: map[faults.Site]uint64{}}
	c.code, c.err = rt.Run()
	c.trap, _ = faults.As(c.err)
	c.stats = rt.Stats()
	for _, site := range sites {
		c.counts[site] = in.Count(site)
	}
	return c
}

// TestFaultSweepGolden runs each known-answer guest fault-free, under every
// -fault name, and under miscompile with self-healing on, and pins each
// run's outcome, recovery counters and per-site hit counts in
// testdata/fault_sweep.golden. Before the golden is compared, every cell
// is classified, so -update cannot bless a wrong answer: a run either
// matches the fault-free result or halts with a structured trap; a fault
// whose site the control run never reaches leaves the run equal to the
// control; cache-exhaust recovers by flushing; every other fault halts
// with its own trap kind, marked injected; and a healed miscompile
// finishes with the fault-free result after quarantining a block.
// Regenerate with go test ./internal/core -run FaultSweepGolden -update.
func TestFaultSweepGolden(t *testing.T) {
	sites := sweepSites(t)
	var out strings.Builder
	for _, g := range sweepGuests(t) {
		control := runSweepCell(t, g, "", false, sites)
		if control.err != nil || control.code != g.want {
			t.Fatalf("%s: control run = exit %d, %v; want exit %d", g.name, control.code, control.err, g.want)
		}
		fmt.Fprintf(&out, "%s control: %s\n", g.name, control.line(sites))

		for _, name := range faults.SpecNames() {
			sp, err := faults.ParseSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			c := runSweepCell(t, g, name, false, sites)
			label := g.name + "/" + name
			line := c.line(sites)
			fmt.Fprintf(&out, "%s %s: %s\n", g.name, name, line)

			switch {
			case c.err == nil && c.code != g.want:
				t.Errorf("%s: silent wrong result: exit %d, want %d", label, c.code, g.want)
			case c.err != nil && c.trap == nil:
				t.Errorf("%s: untyped error: %v", label, c.err)
			case control.counts[sp.Site] < sp.Nth:
				if line != control.line(sites) {
					t.Errorf("%s: inert fault changed the run:\n got  %s\n want %s", label, line, control.line(sites))
				}
			case name == "cache-exhaust":
				if c.err != nil {
					t.Errorf("%s: exhaustion not recovered: %v", label, c.err)
				} else if c.stats.CacheFlushes == 0 {
					t.Errorf("%s: recovered without any flush recorded", label)
				}
			case c.trap == nil:
				t.Errorf("%s: want a %s trap, run finished with exit %d", label, sp.Kind, c.code)
			case c.trap.Kind != sp.Kind || !c.trap.Injected:
				t.Errorf("%s: trap = %v, want an injected %s trap", label, c.err, sp.Kind)
			}
		}

		c := runSweepCell(t, g, "miscompile", true, sites)
		fmt.Fprintf(&out, "%s miscompile(healed): %s\n", g.name, c.line(sites))
		if c.err != nil || c.code != g.want {
			t.Errorf("%s/miscompile(healed): exit %d, %v; want exit %d", g.name, c.code, c.err, g.want)
		} else if c.stats.Quarantines == 0 {
			t.Errorf("%s/miscompile(healed): recovered without quarantining any block", g.name)
		}
	}
	checkGolden(t, "fault_sweep.golden", out.String())
}

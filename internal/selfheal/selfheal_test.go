package selfheal

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestTierLadder pins the ladder's order, names and optimizer mapping: a
// renamed or reordered tier changes bundle documents and demotion policy.
func TestTierLadder(t *testing.T) {
	want := []struct {
		tier Tier
		name string
		opt  int
	}{
		{TierFull, "full", 0},
		{TierNoFenceMerge, "no-fence-merge", 1},
		{TierNoOpt, "no-opt", 2},
		{TierInterp, "interp", 2},
	}
	if len(want) != NumTiers {
		t.Fatalf("ladder has %d rungs, test covers %d", NumTiers, len(want))
	}
	for _, w := range want {
		if got := w.tier.String(); got != w.name {
			t.Errorf("%d.String() = %q, want %q", w.tier, got, w.name)
		}
		if got := w.tier.OptLevel(); got != w.opt {
			t.Errorf("%s.OptLevel() = %d, want %d", w.name, got, w.opt)
		}
		parsed, err := ParseTier(w.name)
		if err != nil || parsed != w.tier {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", w.name, parsed, err, w.tier)
		}
	}
	// Next walks the full ladder then stops at the bottom.
	tier := TierFull
	for i := 0; i < NumTiers-1; i++ {
		next, ok := tier.Next()
		if !ok || next != tier+1 {
			t.Fatalf("%s.Next() = %v, %v; want %v, true", tier, next, ok, tier+1)
		}
		tier = next
	}
	if _, ok := TierInterp.Next(); ok {
		t.Error("interp tier demotes further; the ladder must end there")
	}
	if _, err := ParseTier("turbo"); err == nil {
		t.Error("ParseTier accepted an unknown tier name")
	}
}

// TestTierJSON checks tiers encode as their names and reject junk, so
// bundles stay readable and version-stable.
func TestTierJSON(t *testing.T) {
	for tier := Tier(0); tier < NumTiers; tier++ {
		data, err := json.Marshal(tier)
		if err != nil {
			t.Fatalf("marshal %v: %v", tier, err)
		}
		if string(data) != `"`+tier.String()+`"` {
			t.Errorf("marshal %v = %s, want name string", tier, data)
		}
		var back Tier
		if err := json.Unmarshal(data, &back); err != nil || back != tier {
			t.Errorf("round-trip %v = %v, %v", tier, back, err)
		}
	}
	if _, err := json.Marshal(Tier(NumTiers)); err == nil {
		t.Error("marshal of invalid tier succeeded")
	}
	var tier Tier
	if err := json.Unmarshal([]byte(`"warp"`), &tier); err == nil {
		t.Error("unmarshal of unknown tier name succeeded")
	}
	if err := json.Unmarshal([]byte(`7`), &tier); err == nil {
		t.Error("unmarshal of numeric tier succeeded")
	}
}

// TestQuarantineStateDemotes walks one block down the whole ladder: each
// quarantine demotes exactly one rung, only the first sets First, and the
// bottom rung reports Demoted=false while still recording the event.
func TestQuarantineStateDemotes(t *testing.T) {
	s := NewState()
	const pc = 0x10040
	if got := s.TierOf(pc); got != TierFull {
		t.Fatalf("fresh block tier = %v, want full", got)
	}
	for i := 0; i < NumTiers-1; i++ {
		d := s.Quarantine(pc, "trap")
		if !d.Demoted || d.From != Tier(i) || d.To != Tier(i+1) {
			t.Fatalf("quarantine %d: %+v, want %v->%v demoted", i, d, Tier(i), Tier(i+1))
		}
		if d.First != (i == 0) {
			t.Errorf("quarantine %d: First = %v", i, d.First)
		}
		if got := s.TierOf(pc); got != Tier(i+1) {
			t.Errorf("after quarantine %d: tier = %v, want %v", i, got, Tier(i+1))
		}
	}
	d := s.Quarantine(pc, "still broken")
	if d.Demoted || d.From != TierInterp || d.To != TierInterp {
		t.Errorf("bottom-rung quarantine = %+v, want undemoted interp->interp", d)
	}
	hist := s.History()
	if len(hist) != NumTiers {
		t.Fatalf("history has %d events, want %d", len(hist), NumTiers)
	}
	for i, e := range hist {
		if e.Seq != i+1 || e.GuestPC != pc {
			t.Errorf("event %d = %+v, want seq %d pc %#x", i, e, i+1, pc)
		}
	}
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", s.Quarantined())
	}
}

// TestQuarantineStateNilSafe pins the nil-receiver contract the runtime
// relies on when self-healing is off.
func TestQuarantineStateNilSafe(t *testing.T) {
	var s *State
	if got := s.TierOf(0x1000); got != TierFull {
		t.Errorf("nil TierOf = %v, want full", got)
	}
	if h := s.History(); h != nil {
		t.Errorf("nil History = %v, want nil", h)
	}
	if n := s.Quarantined(); n != 0 {
		t.Errorf("nil Quarantined = %d, want 0", n)
	}
}

// TestQuarantineHistoryBounded checks the event list truncates at
// maxHistory while the tier map keeps every block.
func TestQuarantineHistoryBounded(t *testing.T) {
	s := NewState()
	n := maxHistory + 17
	for i := 0; i < n; i++ {
		s.Quarantine(uint64(0x1000+i*4), "flood")
	}
	hist := s.History()
	if len(hist) != maxHistory {
		t.Fatalf("history has %d events, want cap %d", len(hist), maxHistory)
	}
	if hist[len(hist)-1].Seq != n {
		t.Errorf("newest event seq = %d, want %d", hist[len(hist)-1].Seq, n)
	}
	if hist[0].Seq != n-maxHistory+1 {
		t.Errorf("oldest kept seq = %d, want %d", hist[0].Seq, n-maxHistory+1)
	}
	if s.Quarantined() != n {
		t.Errorf("Quarantined() = %d, want %d (tier map is never truncated)", s.Quarantined(), n)
	}
}

// testBundle builds a minimal bundle that passes Validate.
func testBundle() *Bundle {
	return &Bundle{
		Version: BundleVersion,
		Tool:    "risotto",
		Variant: "risotto",
		Image:   []byte{1, 2, 3, 4},
		Replay:  Replay{MemSize: 1 << 20, Quantum: 64},
		Trap:    TrapInfo{Kind: "decode", CPU: 0, PC: 0x10040, GuestPC: true, Injected: true},
		CPUs: []CPUState{
			{ID: 0, Regs: make([]uint64, 31), PC: 0x40_0080, Cycles: 99, Insts: 42},
			{ID: 1, Regs: make([]uint64, 31), Halted: true},
		},
		Quarantine: []Event{
			{Seq: 1, GuestPC: 0x10040, From: TierFull, To: TierNoFenceMerge, Reason: "trap[decode]"},
		},
		Spans: []SpanRecord{
			{Seq: 3, Phase: "frontend.decode", CPU: 0, GuestPC: 0x10040},
			{Seq: 5, Phase: "backend.emit", CPU: 0, GuestPC: 0x10040, HostPC: 0x40_0000},
		},
		Metrics: map[string]uint64{"core.blocks": 7, "selfheal.quarantines": 1},
	}
}

// TestBundleRoundTrip checks Encode/DecodeBundle is the identity and the
// encoding itself is deterministic byte-for-byte.
func TestBundleRoundTrip(t *testing.T) {
	b := testBundle()
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	again, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("two encodings of the same bundle differ")
	}
	back, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, back) {
		t.Errorf("round-trip changed the bundle:\n%+v\n%+v", b, back)
	}
	re, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Error("re-encoding a decoded bundle changed the bytes")
	}
}

// TestOldBundleDecodes: bundles written while the stack size and the step
// and heal limits were settable carry them as stack_size, max_steps and
// max_heals, and ones written while the injector took a seed carry
// fault_seed. They still decode, to the same bundle.
func TestOldBundleDecodes(t *testing.T) {
	b := testBundle()
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"quantum": 64,`),
		[]byte(`"stack_size": 262144, "quantum": 64, "max_steps": 2000000000, "max_heals": 16, "fault_seed": 1,`), 1)
	if bytes.Equal(old, data) {
		t.Fatal("quantum field not found in the encoding")
	}
	back, err := DecodeBundle(old)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, back) {
		t.Errorf("old bundle decoded differently:\n%+v\n%+v", b, back)
	}
}

// TestBundleValidateRejects walks the schema: each mutation must trip
// Validate with an error mentioning the broken field.
func TestBundleValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Bundle)
		mention string
	}{
		{"version", func(b *Bundle) { b.Version = 99 }, "version"},
		{"tool", func(b *Bundle) { b.Tool = "" }, "tool"},
		{"image", func(b *Bundle) { b.Image = nil }, "image"},
		{"memsize", func(b *Bundle) { b.MemSize = 0 }, "mem_size"},
		{"trap-kind", func(b *Bundle) { b.Trap.Kind = "gremlins" }, "trap kind"},
		{"no-cpus", func(b *Bundle) { b.CPUs = nil }, "CPU"},
		{"cpu-ids", func(b *Bundle) { b.CPUs[1].ID = 7 }, "id"},
		{"cpu-regs", func(b *Bundle) { b.CPUs[0].Regs = nil }, "registers"},
		{"quarantine-seq", func(b *Bundle) { b.Quarantine[0].Seq = 0 }, "seq"},
		{"quarantine-tier", func(b *Bundle) { b.Quarantine[0].To = Tier(9) }, "tier"},
		{"span-phase", func(b *Bundle) { b.Spans[0].Phase = "" }, "phase"},
		{"span-seq", func(b *Bundle) { b.Spans[1].Seq = b.Spans[0].Seq }, "seq"},
		{"metric-name", func(b *Bundle) { b.Metrics["Bad Name"] = 1 }, "metric"},
		{"fault-space", func(b *Bundle) { b.FaultSpec = " decode@2" }, "fault"},
	}
	for _, tc := range cases {
		b := testBundle()
		tc.mutate(b)
		err := b.Validate()
		if err == nil {
			t.Errorf("%s: mutation passed validation", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.mention)
		}
	}
	if err := testBundle().Validate(); err != nil {
		t.Fatalf("baseline bundle invalid: %v", err)
	}
}

// TestTrapInfoOfAndMatches checks serialization folds the wrapped error
// into Msg and Matches keys on kind+PC+space+CPU only.
func TestTrapInfoOfAndMatches(t *testing.T) {
	tr := faults.New(faults.TrapDecode, "bad opcode").WithCPU(1).WithGuestPC(0x10040)
	ti := TrapInfoOf(tr)
	if ti.Kind != "decode" || ti.CPU != 1 || ti.PC != 0x10040 || !ti.GuestPC {
		t.Fatalf("TrapInfoOf = %+v", ti)
	}
	if !ti.Matches(tr) {
		t.Error("trap does not match its own serialization")
	}
	other := faults.New(faults.TrapDecode, "bad opcode").WithCPU(1).WithGuestPC(0x10044)
	if ti.Matches(other) {
		t.Error("Matches ignored a different PC")
	}
	hostPC := faults.New(faults.TrapDecode, "bad opcode").WithCPU(1).WithHostPC(0x10040)
	if ti.Matches(hostPC) {
		t.Error("Matches ignored the guest/host address-space bit")
	}
	if ti.Matches(nil) {
		t.Error("Matches accepted a nil trap")
	}
}

// TestNormalizeSpans checks the newest-N selection and that no timing
// leaks into the records.
func TestNormalizeSpans(t *testing.T) {
	spans := []obs.Span{
		{Seq: 1, Phase: "a", CPU: -1, StartNS: 100},
		{Seq: 2, Phase: "b", CPU: 0, StartNS: 200, GuestPC: 0x10},
		{Seq: 3, Phase: "c", CPU: 1, StartNS: 300, HostPC: 0x40},
	}
	out := NormalizeSpans(spans, 2)
	if len(out) != 2 || out[0].Seq != 2 || out[1].Seq != 3 {
		t.Fatalf("NormalizeSpans kept %+v, want newest two", out)
	}
	if out[1].Phase != "c" || out[1].CPU != 1 || out[1].HostPC != 0x40 {
		t.Errorf("record fields lost: %+v", out[1])
	}
	if got := NormalizeSpans(spans, 0); len(got) != 3 {
		t.Errorf("max=0 kept %d spans, want all", len(got))
	}
}

// TestDivergenceSummary pins the one-line report format quarantine reasons
// embed.
func TestDivergenceSummary(t *testing.T) {
	d := &Divergence{GuestPC: 0x10040, Tier: TierNoOpt, Kind: "register", Detail: "global 3: host 0x1, interp 0x2"}
	s := d.Summary()
	for _, want := range []string{"0x10040", "no-opt", "register", "global 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

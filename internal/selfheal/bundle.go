// Crash-triage bundles: when a trap survives every recovery attempt, the
// runtime serializes everything needed to re-execute the run
// deterministically — config, guest image, fault spec, quarantine
// history, the faulting block's disassembly, CPU state, recent trace spans
// and the counter snapshot — as one JSON document. `risotto -replay
// bundle.json` rebuilds the run from it and must reproduce the identical
// trap; the encoding is deterministic (sorted keys, no wall-clock fields),
// so replaying a bundle and re-bundling yields byte-identical output.

package selfheal

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// BundleVersion is the current bundle format version.
const BundleVersion = 1

// TrapInfo is the serialized form of a faults.Trap.
type TrapInfo struct {
	Kind     string `json:"kind"`
	CPU      int    `json:"cpu"`
	PC       uint64 `json:"pc"`
	GuestPC  bool   `json:"guest_pc"`
	Addr     uint64 `json:"addr,omitempty"`
	Steps    uint64 `json:"steps,omitempty"`
	Injected bool   `json:"injected,omitempty"`
	Msg      string `json:"msg,omitempty"`
}

// TrapInfoOf serializes t.
func TrapInfoOf(t *faults.Trap) TrapInfo {
	ti := TrapInfo{
		Kind:     t.Kind.String(),
		CPU:      t.CPU,
		PC:       t.PC,
		GuestPC:  t.GuestPC,
		Addr:     t.Addr,
		Steps:    t.Steps,
		Injected: t.Injected,
		Msg:      t.Msg,
	}
	if t.Err != nil {
		if ti.Msg != "" {
			ti.Msg += ": "
		}
		ti.Msg += t.Err.Error()
	}
	return ti
}

// Matches reports whether t reproduces the bundled trap: same kind, same
// faulting PC in the same address space, same CPU.
func (ti TrapInfo) Matches(t *faults.Trap) bool {
	return t != nil &&
		ti.Kind == t.Kind.String() &&
		ti.PC == t.PC && ti.GuestPC == t.GuestPC &&
		ti.CPU == t.CPU
}

// CPUState is one vCPU's architectural state at trap time.
type CPUState struct {
	ID       int      `json:"id"`
	Regs     []uint64 `json:"regs"`
	PC       uint64   `json:"pc"`
	N        bool     `json:"n,omitempty"`
	Z        bool     `json:"z,omitempty"`
	C        bool     `json:"c,omitempty"`
	V        bool     `json:"v,omitempty"`
	Cycles   uint64   `json:"cycles"`
	Insts    uint64   `json:"insts"`
	Halted   bool     `json:"halted,omitempty"`
	ExitCode uint64   `json:"exit_code,omitempty"`
}

// SpanRecord is a timing-normalized obs span: wall-clock fields are
// dropped so two runs of the same deterministic guest bundle identically.
type SpanRecord struct {
	Seq     uint64 `json:"seq"`
	Phase   string `json:"phase"`
	Detail  string `json:"detail,omitempty"`
	CPU     int    `json:"cpu"`
	GuestPC uint64 `json:"guest_pc,omitempty"`
	HostPC  uint64 `json:"host_pc,omitempty"`
}

// NormalizeSpans converts the newest max spans (oldest-first order is
// preserved) into timing-free records.
func NormalizeSpans(spans []obs.Span, max int) []SpanRecord {
	if max > 0 && len(spans) > max {
		spans = spans[len(spans)-max:]
	}
	out := make([]SpanRecord, len(spans))
	for i, s := range spans {
		out[i] = SpanRecord{
			Seq: s.Seq, Phase: s.Phase, Detail: s.Detail,
			CPU: s.CPU, GuestPC: s.GuestPC, HostPC: s.HostPC,
		}
	}
	return out
}

// TierUp configures the tier-up JIT; core.TierUpConfig is this type, and
// the command-line -tierup flags bind straight into it. Promotion happens
// at a guest dispatch count, so replaying a bundled TierUp reproduces the
// same promotions.
type TierUp struct {
	// Enabled turns tier-up on: unpinned blocks start at TierNoOpt and
	// hot ones are promoted by the dispatch that finds them hot.
	Enabled bool `json:"enabled"`
	// PromoteThreshold is how many dispatches make a block hot
	// (0 = default 8).
	PromoteThreshold int `json:"promote_threshold"`
	// SuperblockMax bounds how many guest blocks one promoted superblock
	// may stitch (0 = default 4; 1 disables superblocks but keeps
	// promotion).
	SuperblockMax int `json:"superblock_max"`
}

// Replay is the replayable part of a run's configuration: core.Config
// embeds it and so does Bundle, so a crash bundle records, and
// ReplayOptions restores, every field here without naming any of them. A
// knob that changes what a run does belongs in this struct; fields are in
// bundle order. Older bundles also carry stack_size, max_steps and
// max_heals, which only ever held what are now the runtime's constants,
// and fault_seed, which seeded nothing a run read; decoding ignores them.
type Replay struct {
	// MemSize is the machine memory size the run resolved, so a bundle
	// replays at the size it was written at whatever core's default is.
	MemSize int `json:"mem_size"`
	// CodeCacheBase is where generated host code is placed (default:
	// upper quarter of memory).
	CodeCacheBase uint64 `json:"code_cache_base"`
	// Quantum is the round-robin scheduling quantum in instructions.
	Quantum int `json:"quantum"`
	// StepBudget, when non-zero, bounds each vCPU's executed host
	// instructions; a guest that reaches it (runaway loop, livelocked
	// spin) halts with a structured faults.TrapBudget instead of spinning
	// until the runtime's total step limit.
	StepBudget uint64 `json:"step_budget,omitempty"`
	// Deadline, when non-zero, is the wall-clock watchdog for Run. It
	// encodes as integer nanoseconds.
	Deadline time.Duration `json:"deadline_ns,omitempty"`
	// Chain enables translation-block chaining: a block whose exit
	// target is constant gets its dispatch trap patched into a direct
	// branch to the target block once both are translated (QEMU's
	// goto_tb). Off by default so the calibrated dispatch cost of the
	// evaluation figures stays comparable across variants.
	Chain bool `json:"chain,omitempty"`
	// SelfHeal enables the tiered self-healing layer: a trap attributed
	// to a translated block quarantines it — the block is invalidated in
	// the code cache, its tier demoted one rung (full opts → no fence
	// merging → no opts → TCG interpreter), and execution resumes — with
	// a bounded number of recoveries per run. Off by default so core's
	// fault sweep keeps pinning every injected fault's undisguised trap.
	SelfHeal bool `json:"self_heal,omitempty"`
	// SelfCheck additionally shadow-executes every freshly translated
	// block once against the TCG interpreter on a snapshot of CPU and
	// memory state, and quarantines the block on any register, memory or
	// exit divergence — runtime translation validation. Implies SelfHeal.
	SelfCheck bool `json:"self_check,omitempty"`
	// FaultSpec is the -fault spec list the run was armed with;
	// ReplayOptions rearms an injector from it.
	FaultSpec string `json:"fault,omitempty"`
	// WeakSeed, when non-nil, runs the simulated host in operational
	// weak-memory mode (store buffers with out-of-order drain, seeded by
	// the value) — the generated code's fences then actually constrain
	// visible reorderings. Used by correctness demonstrations, not by the
	// performance figures.
	WeakSeed *int64 `json:"weak_seed,omitempty"`
	// IDL, when non-empty and the variant is Risotto, enables the host
	// linker for the declared functions.
	IDL string `json:"idl,omitempty"`
}

// Bundle is the crash-triage document. Every field is either part of the
// run's deterministic configuration (enough for ReplayOptions to rebuild
// it) or post-mortem evidence (trap, CPU state, history, disassembly,
// spans, counters).
type Bundle struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`

	// --- replay configuration ---
	Variant string `json:"variant"`
	Kernel  string `json:"kernel,omitempty"`
	Image   []byte `json:"image"`
	Replay
	// TierUp is nil for runs without the tier-up JIT.
	TierUp *TierUp `json:"tier_up,omitempty"`

	// --- post-mortem evidence ---
	Trap       TrapInfo          `json:"trap"`
	CPUs       []CPUState        `json:"cpus"`
	Quarantine []Event           `json:"quarantine,omitempty"`
	Disasm     string            `json:"disasm,omitempty"`
	Spans      []SpanRecord      `json:"spans,omitempty"`
	Metrics    map[string]uint64 `json:"metrics,omitempty"`
}

// Encode serializes the bundle deterministically: json.Marshal sorts map
// keys and struct fields keep declaration order, and no field carries
// wall-clock or host-environment data.
func (b *Bundle) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("selfheal: encoding bundle: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeBundle parses and validates a bundle document.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("selfheal: decoding bundle: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// metricNameRE is the obsvalidate vocabulary: dot-separated lower-case
// segments of letters, digits and underscores.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$`)

// Validate performs the schema check obsvalidate applies to snapshots,
// extended to the bundle's own invariants. It reports the first problem.
func (b *Bundle) Validate() error {
	if b.Version != BundleVersion {
		return fmt.Errorf("selfheal: bundle version %d, want %d", b.Version, BundleVersion)
	}
	if b.Tool == "" {
		return fmt.Errorf("selfheal: bundle has no tool")
	}
	if len(b.Image) == 0 {
		return fmt.Errorf("selfheal: bundle has no guest image")
	}
	if b.MemSize <= 0 {
		return fmt.Errorf("selfheal: bundle mem_size %d invalid", b.MemSize)
	}
	kindOK := false
	for _, k := range faults.KindNames() {
		if b.Trap.Kind == k {
			kindOK = true
			break
		}
	}
	if !kindOK {
		return fmt.Errorf("selfheal: bundle trap kind %q unknown", b.Trap.Kind)
	}
	if len(b.CPUs) == 0 {
		return fmt.Errorf("selfheal: bundle has no CPU state")
	}
	for i, c := range b.CPUs {
		if c.ID != i {
			return fmt.Errorf("selfheal: cpu state %d has id %d", i, c.ID)
		}
		if len(c.Regs) == 0 {
			return fmt.Errorf("selfheal: cpu %d has no registers", i)
		}
	}
	for i, e := range b.Quarantine {
		if e.Seq <= 0 {
			return fmt.Errorf("selfheal: quarantine event %d has seq %d", i, e.Seq)
		}
		if int(e.From) >= NumTiers || int(e.To) >= NumTiers {
			return fmt.Errorf("selfheal: quarantine event %d has invalid tier", i)
		}
	}
	var prevSeq uint64
	for i, s := range b.Spans {
		if s.Phase == "" {
			return fmt.Errorf("selfheal: span %d has no phase", i)
		}
		if s.Seq <= prevSeq {
			return fmt.Errorf("selfheal: span %d seq %d not increasing", i, s.Seq)
		}
		prevSeq = s.Seq
	}
	for name := range b.Metrics {
		if !metricNameRE.MatchString(name) {
			return fmt.Errorf("selfheal: metric name %q malformed", name)
		}
	}
	if strings.TrimSpace(b.FaultSpec) != b.FaultSpec {
		return fmt.Errorf("selfheal: fault spec %q has surrounding space", b.FaultSpec)
	}
	return nil
}

// Divergence is a structured selfcheck mismatch report: the effects of a
// freshly emitted block disagreed with the TCG interpreter's on the same
// snapshot.
type Divergence struct {
	// GuestPC identifies the diverging block; Tier is the tier whose
	// emitted code diverged.
	GuestPC uint64
	Tier    Tier
	// Kind is "trap", "exit", "register" or "memory".
	Kind string
	// Detail pinpoints the first disagreement.
	Detail string
}

// Summary renders the divergence as one line.
func (d *Divergence) Summary() string {
	return fmt.Sprintf("selfcheck divergence at %#x (tier %s): %s: %s",
		d.GuestPC, d.Tier, d.Kind, d.Detail)
}

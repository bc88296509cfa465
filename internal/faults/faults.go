// Package faults is the failure model of the Risotto-Go stack: a typed
// trap taxonomy shared by the DBT runtime (internal/core), the simulated
// host machine (internal/machine), the guest frontend (internal/frontend)
// and the litmus enumeration engine (internal/litmus), plus a
// deterministic fault injector armed by the CLIs' -fault flag and the
// fault tests.
//
// Following "Sound Transpilation from Binary to Machine-Independent Code"
// (Metere et al.), decoder and translation failure is a first-class,
// *recoverable* outcome rather than a process abort: every hard failure
// in the execution stack surfaces as a *Trap that callers can classify
// with errors.As and either recover from (code-cache exhaustion triggers
// a flush-and-retranslate cycle; a litmus shard panic degrades to the
// serial enumerator) or report as a structured one-line trap.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// TrapKind classifies a structured runtime trap.
type TrapKind int

const (
	// TrapDecode is a guest (or generated-host) instruction decode fault,
	// including unexpected trap instructions reaching the runtime.
	TrapDecode TrapKind = iota
	// TrapUnmapped is a memory access outside the simulated physical
	// memory.
	TrapUnmapped
	// TrapMisaligned is an atomic or exclusive access whose address is
	// not naturally aligned for its size (Arm faults these).
	TrapMisaligned
	// TrapCacheExhausted is code-cache exhaustion that survived the
	// flush-and-retranslate degradation path (a single block larger than
	// the whole cache, or injected twice).
	TrapCacheExhausted
	// TrapBudget is a step/cycle budget or wall-clock watchdog expiry —
	// the structured halt of a runaway (or livelocked) guest.
	TrapBudget
	// TrapHostCall is a failure inside the host-linked library call path
	// (marshaling, missing function, host fault).
	TrapHostCall
	// TrapWorkerPanic is a captured panic in a parallel worker (litmus
	// enumeration shard); the degraded path re-runs serially.
	TrapWorkerPanic
	// TrapMiscompile is a translation whose emitted host code diverged
	// from its IR oracle — detected either by executing a corrupted block
	// (its first word is rewritten into a trapping marker) or by the
	// -selfcheck shadow run comparing host effects against the TCG
	// interpreter. The self-healing tier ladder recovers it by
	// quarantining the block and retranslating one tier down.
	TrapMiscompile
)

var kindNames = [...]string{
	TrapDecode:         "decode",
	TrapUnmapped:       "unmapped",
	TrapMisaligned:     "misaligned",
	TrapCacheExhausted: "cache-exhausted",
	TrapBudget:         "step-budget",
	TrapHostCall:       "host-call",
	TrapWorkerPanic:    "worker-panic",
	TrapMiscompile:     "miscompile",
}

// KindNames lists every trap kind's wire name, indexed by TrapKind — the
// vocabulary crash-bundle validation checks embedded kinds against.
func KindNames() []string {
	out := make([]string, len(kindNames))
	copy(out, kindNames[:])
	return out
}

func (k TrapKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("trap?%d", int(k))
}

// Trap is a structured, errors.As-able runtime fault. Fields that do not
// apply to a kind are left at their zero value (CPU: -1 means unknown).
type Trap struct {
	// Kind classifies the trap.
	Kind TrapKind
	// CPU is the faulting vCPU id, or -1 when not attributable.
	CPU int
	// PC is the faulting program counter. GuestPC distinguishes guest
	// addresses (frontend/translation traps) from host addresses
	// (machine traps); see the Msg for context.
	PC uint64
	// GuestPC reports whether PC is a guest address.
	GuestPC bool
	// Addr is the faulting data address, when the trap is memory-related.
	Addr uint64
	// Steps is the executed-instruction count, for budget traps.
	Steps uint64
	// Injected marks traps forced by an Injector rather than organic.
	Injected bool
	// Msg is the human-readable description.
	Msg string
	// Err is the wrapped cause, when the trap decorates a lower error.
	Err error
}

// Error renders the trap as a single line.
func (t *Trap) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trap[%s]", t.Kind)
	if t.CPU >= 0 {
		fmt.Fprintf(&b, " cpu=%d", t.CPU)
	}
	if t.PC != 0 || t.GuestPC {
		space := "host"
		if t.GuestPC {
			space = "guest"
		}
		fmt.Fprintf(&b, " pc=%#x(%s)", t.PC, space)
	}
	if t.Kind == TrapUnmapped || t.Kind == TrapMisaligned {
		fmt.Fprintf(&b, " addr=%#x", t.Addr)
	}
	if t.Steps != 0 {
		fmt.Fprintf(&b, " steps=%d", t.Steps)
	}
	if t.Injected {
		b.WriteString(" injected")
	}
	if t.Msg != "" {
		b.WriteString(": ")
		b.WriteString(t.Msg)
	}
	if t.Err != nil {
		b.WriteString(": ")
		b.WriteString(t.Err.Error())
	}
	return b.String()
}

// Unwrap exposes the wrapped cause to errors.Is/As chains.
func (t *Trap) Unwrap() error { return t.Err }

// New builds a trap of the given kind with a formatted message.
func New(kind TrapKind, format string, args ...any) *Trap {
	return &Trap{Kind: kind, CPU: -1, Msg: fmt.Sprintf(format, args...)}
}

// Wrap builds a trap of the given kind around a cause.
func Wrap(kind TrapKind, err error, format string, args ...any) *Trap {
	t := New(kind, format, args...)
	t.Err = err
	return t
}

// WithCPU attaches the faulting vCPU (and leaves an already-set id alone,
// so the innermost attribution wins). Returns t for chaining.
func (t *Trap) WithCPU(id int) *Trap {
	if t.CPU < 0 {
		t.CPU = id
	}
	return t
}

// WithGuestPC attaches a guest program counter if none is set.
func (t *Trap) WithGuestPC(pc uint64) *Trap {
	if t.PC == 0 && !t.GuestPC {
		t.PC, t.GuestPC = pc, true
	}
	return t
}

// WithHostPC attaches a host program counter if none is set.
func (t *Trap) WithHostPC(pc uint64) *Trap {
	if t.PC == 0 && !t.GuestPC {
		t.PC = pc
	}
	return t
}

// As extracts the innermost *Trap from err's chain.
func As(err error) (*Trap, bool) {
	var t *Trap
	if errors.As(err, &t) {
		return t, true
	}
	return nil, false
}

// IsKind reports whether err carries a trap of kind k.
func IsKind(err error, k TrapKind) bool {
	t, ok := As(err)
	return ok && t.Kind == k
}

// ---- Injection --------------------------------------------------------

// Site names a fault-injection point in the execution stack. Each site is
// hit once per occurrence of the guarded operation; an armed plan fires at
// its Nth hit.
type Site string

const (
	// SiteDecode guards each guest instruction decode in the frontend.
	SiteDecode Site = "decode"
	// SiteMemory guards each simulated memory access.
	SiteMemory Site = "memory"
	// SiteCacheAlloc guards each code-cache block allocation.
	SiteCacheAlloc Site = "cache-alloc"
	// SiteStep guards each scheduler quantum of each vCPU.
	SiteStep Site = "step"
	// SiteHostCall guards each host-linked library call.
	SiteHostCall Site = "host-call"
	// SiteLitmusShard guards each parallel litmus enumeration shard; an
	// armed plan panics the worker (exercising panic capture + serial
	// fallback) rather than returning a trap through the normal path.
	// With -workers 1 the same site guards the serial enumeration, where
	// a fired plan has no fallback and surfaces as an unrecovered trap.
	SiteLitmusShard Site = "litmus-shard"
	// SiteCacheCorrupt guards each persistent translation-cache append;
	// an armed plan corrupts the journaled entry's checksum so the
	// reopen path must detect it and degrade to retranslation.
	SiteCacheCorrupt Site = "cache-corrupt"
	// SiteServeJob guards each daemon job attempt in internal/serve; an
	// armed plan panics the worker goroutine mid-job, exercising the
	// recover-into-typed-trap path.
	SiteServeJob Site = "serve-job"
	// SiteMiscompile guards each emitted translation block; an armed plan
	// corrupts the block's host code in place (its first word becomes a
	// trapping marker) instead of returning a trap through the normal
	// path, so detection is up to the self-healing layer.
	SiteMiscompile Site = "miscompile"
)

// plan is one armed injection: fire kind at the nth hit of the site.
type plan struct {
	nth   uint64
	kind  TrapKind
	fired bool
}

// Injector deterministically forces traps at chosen occurrences of
// instrumented sites. It is safe for concurrent use (litmus shards hit it
// from worker goroutines) and nil-receiver safe, so call sites can be
// guarded with a plain `if t := inj.Hit(site); t != nil` even when no
// injector is configured.
type Injector struct {
	mu     sync.Mutex
	counts map[Site]uint64
	plans  map[Site][]*plan

	// observability: fired injections are counted under "faults.injected"
	// and emit a faults.inject trace event naming the site.
	sc       *obs.Scope
	injected *obs.Counter
}

// SetObs points the injector's instrumentation at root's "faults" child
// scope. Nil-receiver and nil-scope safe; the last scope set wins when an
// injector is shared across runtimes.
func (in *Injector) SetObs(root *obs.Scope) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sc = root.Child("faults")
	in.injected = in.sc.Counter("injected")
}

// NewInjector returns an injector with nothing armed.
func NewInjector() *Injector {
	return &Injector{
		counts: make(map[Site]uint64),
		plans:  make(map[Site][]*plan),
	}
}

// Arm schedules a one-shot trap of the given kind at the nth (1-based)
// hit of site.
func (in *Injector) Arm(site Site, nth uint64, kind TrapKind) {
	if nth == 0 {
		nth = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans[site] = append(in.plans[site], &plan{nth: nth, kind: kind})
}

// Hit records one occurrence of site and returns a trap if an armed plan
// fires at this occurrence. Nil-receiver safe.
func (in *Injector) Hit(site Site) *Trap {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[site]++
	n := in.counts[site]
	for _, p := range in.plans[site] {
		if !p.fired && p.nth == n {
			p.fired = true
			t := New(p.kind, "injected at site %q occurrence %d", site, n)
			t.Injected = true
			in.injected.Inc()
			in.sc.Event("faults.inject", fmt.Sprintf("%s@%d:%s", site, n, p.kind), -1, 0, 0)
			return t
		}
	}
	return nil
}

// Count returns how many times site has been hit. Nil-receiver safe.
func (in *Injector) Count(site Site) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[site]
}

// ---- CLI fault specs --------------------------------------------------

// Spec is a parsed CLI fault specification: which site to arm, with which
// trap kind, at which occurrence.
type Spec struct {
	Name string
	Site Site
	Kind TrapKind
	Nth  uint64
}

// specTable maps CLI fault names to their (site, kind).
var specTable = map[string]Spec{
	"decode":        {Site: SiteDecode, Kind: TrapDecode},
	"unmapped":      {Site: SiteMemory, Kind: TrapUnmapped},
	"misaligned":    {Site: SiteMemory, Kind: TrapMisaligned},
	"cache-exhaust": {Site: SiteCacheAlloc, Kind: TrapCacheExhausted},
	"step-budget":   {Site: SiteStep, Kind: TrapBudget},
	"host-call":     {Site: SiteHostCall, Kind: TrapHostCall},
	"shard-panic":   {Site: SiteLitmusShard, Kind: TrapWorkerPanic},
	"miscompile":    {Site: SiteMiscompile, Kind: TrapMiscompile},
	"cache-corrupt": {Site: SiteCacheCorrupt, Kind: TrapMiscompile},
	"job-panic":     {Site: SiteServeJob, Kind: TrapWorkerPanic},
}

// SpecNames lists the accepted -fault names, sorted.
func SpecNames() []string {
	names := make([]string, 0, len(specTable))
	for n := range specTable {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseSpec parses a -fault argument: a name from SpecNames, optionally
// suffixed with "@N" to select the Nth occurrence (default 1), e.g.
// "cache-exhaust" or "decode@3". Multiple specs may be comma-separated
// through ParseInjector.
func ParseSpec(s string) (Spec, error) {
	name, nthStr, hasNth := strings.Cut(strings.TrimSpace(s), "@")
	sp, ok := specTable[name]
	if !ok {
		return Spec{}, fmt.Errorf("faults: unknown fault %q (want one of %s)",
			name, strings.Join(SpecNames(), ", "))
	}
	sp.Name = name
	sp.Nth = 1
	if hasNth {
		n, err := strconv.ParseUint(nthStr, 10, 64)
		if err != nil || n == 0 {
			return Spec{}, fmt.Errorf("faults: bad occurrence in %q (want name@N, N >= 1)", s)
		}
		sp.Nth = n
	}
	return sp, nil
}

// ParseInjector parses a comma-separated -fault list and returns an
// injector armed with every spec in it. An empty list yields a nil
// injector, which disables injection entirely.
func ParseInjector(s string) (*Injector, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	in := NewInjector()
	for _, part := range strings.Split(s, ",") {
		sp, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		sp.Arm(in)
	}
	return in, nil
}

// Arm arms sp on in.
func (sp Spec) Arm(in *Injector) { in.Arm(sp.Site, sp.Nth, sp.Kind) }

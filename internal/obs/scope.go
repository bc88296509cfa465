package obs

import "sync"

// Scope is the instrumentation handle threaded through the stack: a
// registry plus a tracer, with an optional name prefix for metrics.
// Child scopes share both and extend the prefix. A nil *Scope disables
// everything (all methods are nil-safe no-ops), so subsystems can accept
// one unconditionally.
type Scope struct {
	prefix string
	reg    *Registry
	tr     *Tracer
	// handles holds what each Handles resolved in this scope, keyed by
	// the *Handles.
	handles sync.Map
}

// NewScope returns a root scope with a fresh registry and a tracer of
// DefaultTraceCapacity. An empty name means metric names are used
// verbatim; otherwise they are prefixed "name.".
func NewScope(name string) *Scope {
	return NewScopeCapacity(name, DefaultTraceCapacity)
}

// NewScopeCapacity is NewScope with an explicit trace-ring capacity.
func NewScopeCapacity(name string, traceCapacity int) *Scope {
	return &Scope{prefix: prefixOf(name), reg: NewRegistry(), tr: NewTracer(traceCapacity)}
}

func prefixOf(name string) string {
	if name == "" {
		return ""
	}
	return name + "."
}

// Child returns a scope sharing this scope's registry and tracer, with
// name appended to the metric prefix. Nil-safe (returns nil).
func (s *Scope) Child(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{prefix: s.prefix + prefixOf(name), reg: s.reg, tr: s.tr}
}

// Registry exposes the underlying registry (nil on a nil scope).
func (s *Scope) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer exposes the underlying tracer (nil on a nil scope).
func (s *Scope) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Counter returns the scoped counter handle. Nil-safe.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.Counter(s.prefix + name)
}

// Gauge returns the scoped gauge handle. Nil-safe.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.Gauge(s.prefix + name)
}

// Histogram returns the scoped histogram handle. Nil-safe.
func (s *Scope) Histogram(name string, bounds []uint64) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.Histogram(s.prefix+name, bounds)
}

// Begin returns a span start timestamp for a later Span call. Nil-safe.
func (s *Scope) Begin() int64 {
	if s == nil {
		return 0
	}
	return s.tr.Now()
}

// Span records a span that started at start (from Begin) and ends now,
// returning its duration in nanoseconds. Nil-safe (returns 0).
func (s *Scope) Span(phase, detail string, cpu int, guestPC, hostPC uint64, start int64) int64 {
	if s == nil {
		return 0
	}
	dur := s.tr.Now() - start
	if dur < 0 {
		dur = 0
	}
	s.tr.Append(Span{
		Phase: phase, Detail: detail, CPU: cpu,
		GuestPC: guestPC, HostPC: hostPC,
		StartNS: start, DurNS: dur,
	})
	return dur
}

// Event records a zero-duration point span. Nil-safe.
func (s *Scope) Event(phase, detail string, cpu int, guestPC, hostPC uint64) {
	if s == nil {
		return
	}
	s.tr.Append(Span{
		Phase: phase, Detail: detail, CPU: cpu,
		GuestPC: guestPC, HostPC: hostPC,
		StartNS: s.tr.Now(),
	})
}

// Snapshot freezes the scope's registry and trace summary. Nil-safe: a
// nil scope yields an empty snapshot.
func (s *Scope) Snapshot() Snapshot {
	if s == nil {
		return (*Registry)(nil).Snapshot()
	}
	snap := s.reg.Snapshot()
	snap.Spans = s.tr.Stats()
	return snap
}

// Handles is a set of metric handles — a struct of counters, histograms
// and the like — that a layer reporting once per block or per job resolves
// once per scope: Of builds it on a scope's first use and returns the same
// set after, so the caller neither concatenates names nor takes the
// registry lock again. Declare one per layer, as a package variable.
type Handles[T any] struct {
	build func(*Scope) T
}

// NewHandles returns a Handles that builds its set with build. The zero T
// must be the set that records nothing (a struct of nil handles is): a nil
// scope gets it.
func NewHandles[T any](build func(*Scope) T) *Handles[T] {
	return &Handles[T]{build: build}
}

// Of returns the set resolved in s, building it on first use. Nil-safe: a
// nil scope yields the zero T. Concurrent first uses may both build; one
// set wins, and the handles of both name the same registry metrics.
func (h *Handles[T]) Of(s *Scope) T {
	if s == nil {
		var zero T
		return zero
	}
	if v, ok := s.handles.Load(h); ok {
		return v.(T)
	}
	v, _ := s.handles.LoadOrStore(h, h.build(s))
	return v.(T)
}

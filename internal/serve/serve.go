// Package serve is risottod's engine: a fault-isolated multi-tenant
// translation service over the DBT stack. Guests are assumed hostile —
// the daemon's contract is that no submitted image can kill it, starve
// other tenants, or corrupt their results. The isolation layers, outside
// in:
//
//	admission   bounded global queue + per-tenant queue-depth and
//	            concurrency limits; overflow is shed with 429 and a
//	            Retry-After hint instead of queueing unboundedly.
//	breaker     a per-tenant circuit breaker trips after N consecutive
//	            trap-terminated jobs and sheds that tenant with
//	            exponential backoff + single-probe recovery — the
//	            selfheal quarantine pattern applied to tenants.
//	watchdog    every job runs under step-budget and deadline caps with
//	            the selfheal tier ladder on, so runaway or miscompiled
//	            guests degrade into structured traps, and worker panics
//	            are recovered into faults.TrapWorkerPanic.
//	retry       transiently-trapped jobs (cache exhaustion, worker
//	            panics) retry with jittered backoff; the final failure
//	            carries the crash-triage selfheal.Bundle.
//	cache       an optional persistent translation cache
//	            (internal/transcache) shares verified IR across jobs and
//	            daemon restarts; corrupt entries degrade to
//	            retranslation, never into executions.
package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/transcache"
)

// Config tunes the daemon. The zero value is unusable; Default() fills
// every knob with serviceable settings and callers override from flags.
type Config struct {
	// Workers bounds concurrently executing jobs. Each worker keeps the
	// machine its jobs run on, so resident guest memory is at most
	// Workers × MemSize.
	Workers int
	// QueueDepth bounds admitted-but-not-finished jobs beyond the worker
	// pool; a full queue sheds with 429.
	QueueDepth int
	// TenantMaxInflight bounds one tenant's concurrently running jobs.
	TenantMaxInflight int
	// TenantQueueDepth bounds one tenant's admitted (queued + running)
	// jobs.
	TenantQueueDepth int
	// BreakerThreshold trips a tenant's breaker after this many
	// consecutive trap-terminated jobs.
	BreakerThreshold int
	// BreakerBackoff is the first open interval; it doubles per failed
	// probe up to BreakerMaxBackoff.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// MaxRetries caps retries of transiently-trapped jobs (attempts =
	// 1 + MaxRetries).
	MaxRetries int
	// RetryBackoff is the base jittered delay between attempts.
	RetryBackoff time.Duration
	// StepBudgetCap and DeadlineCap bound what a job may request; a job
	// asking for 0 (or more than the cap) gets the cap.
	StepBudgetCap uint64
	DeadlineCap   time.Duration
	// MemSize is the per-job machine memory (0 = core's default 32 MiB).
	MemSize int
	// Cache, when non-nil, persists translations across jobs and
	// restarts.
	Cache *transcache.Cache
	// TierUp is every job's tier-up JIT configuration (risottod's -tierup
	// flags): when enabled, hot blocks are promoted to superblocks on the
	// job's own goroutine — the raw-speed knob for repeat traffic.
	TierUp core.TierUpConfig
	// Obs is the root scope; the server instruments under a "serve"
	// child. Nil disables instrumentation.
	Obs *obs.Scope
}

// jitterSeed seeds retry jitter, so a server's backoff sequence is the
// same from run to run.
const jitterSeed = 1

// Default returns the serviceable baseline configuration.
func Default() Config {
	return Config{
		Workers:           4,
		QueueDepth:        64,
		TenantMaxInflight: 2,
		TenantQueueDepth:  8,
		BreakerThreshold:  3,
		BreakerBackoff:    100 * time.Millisecond,
		BreakerMaxBackoff: 10 * time.Second,
		MaxRetries:        2,
		RetryBackoff:      10 * time.Millisecond,
		StepBudgetCap:     200e6,
		DeadlineCap:       10 * time.Second,
	}
}

// withDefaults backfills zero fields from Default so tests and callers
// can set only what they care about.
func (c Config) withDefaults() Config {
	d := Default()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.TenantMaxInflight <= 0 {
		c.TenantMaxInflight = d.TenantMaxInflight
	}
	if c.TenantQueueDepth <= 0 {
		c.TenantQueueDepth = d.TenantQueueDepth
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = d.BreakerThreshold
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = d.BreakerBackoff
	}
	if c.BreakerMaxBackoff <= 0 {
		c.BreakerMaxBackoff = d.BreakerMaxBackoff
	}
	if c.MaxRetries < 0 {
		// Negative is the "use the default" sentinel (flags can't leave
		// an int unset); an explicit 0 disables retries.
		c.MaxRetries = d.MaxRetries
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.StepBudgetCap == 0 {
		c.StepBudgetCap = d.StepBudgetCap
	}
	if c.DeadlineCap <= 0 {
		c.DeadlineCap = d.DeadlineCap
	}
	return c
}

// metrics is the server's obs surface (all under "serve.").
type metrics struct {
	jobs, jobsOK, jobsTrap, jobsError        *obs.Counter
	retries                                  *obs.Counter
	shedQueue, shedTenant, shedBreaker       *obs.Counter
	breakerTrips, breakerRecoveries, drained *obs.Counter
	queueDepth, running                      *obs.Gauge
}

// Server is the daemon engine. Build with New, mount Handler, stop with
// Drain.
type Server struct {
	cfg Config

	mu       sync.Mutex
	tenants  map[string]*tenant
	draining bool
	wg       sync.WaitGroup

	// queueSlots bounds admitted jobs (running + queued); workerSlots
	// bounds running jobs. A worker slot is the machine its jobs run on:
	// acquiring one receives it (nil until a job has built one), and
	// releasing one sends back the machine to reuse, or nil to drop it.
	queueSlots  chan struct{}
	workerSlots chan *machine.Machine

	jobSeq uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	met metrics
}

// New builds a Server from cfg (zero fields backfilled from Default).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	sc := cfg.Obs.Child("serve")
	s := &Server{
		cfg:         cfg,
		tenants:     make(map[string]*tenant),
		queueSlots:  make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		workerSlots: make(chan *machine.Machine, cfg.Workers),
		rng:         rand.New(rand.NewSource(jitterSeed)),
		met: metrics{
			jobs:              sc.Counter("jobs"),
			jobsOK:            sc.Counter("jobs_ok"),
			jobsTrap:          sc.Counter("jobs_trap"),
			jobsError:         sc.Counter("jobs_error"),
			retries:           sc.Counter("retries"),
			shedQueue:         sc.Counter("shed_queue"),
			shedTenant:        sc.Counter("shed_tenant"),
			shedBreaker:       sc.Counter("shed_breaker"),
			breakerTrips:      sc.Counter("breaker_trips"),
			breakerRecoveries: sc.Counter("breaker_recoveries"),
			drained:           sc.Counter("drained"),
			queueDepth:        sc.Gauge("queue_depth"),
			running:           sc.Gauge("running"),
		},
	}
	for range cfg.Workers {
		s.workerSlots <- nil
	}
	return s
}

// Handler mounts the daemon API:
//
//	POST /v1/jobs      submit a job; the response carries the result
//	GET  /healthz      "ok" (200) or "draining" (503)
//	GET  /metrics      Prometheus exposition (obs)
//	GET  /debug/obs    JSON snapshot + trace spans (obs)
//	GET  /metrics.json bare snapshot JSON (obsvalidate's input schema)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.cfg.Obs.Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/", obs.Handler(s.cfg.Obs))
	return mux
}

// httpError is the JSON error envelope for non-200 responses.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func shed(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, httpError{Error: msg})
}

// handleJobs is the submit path: decode → validate → admit → run → reply.
// The job runs synchronously; the HTTP response is the result. Admission
// failures reply 429 (+Retry-After), malformed requests 400, requests
// that decode but name unusable work 422, drain 503.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Tenant == "" {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "tenant is required"})
		return
	}
	job, err := s.resolve(&req)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, httpError{Error: err.Error()})
		return
	}

	// Admission. Everything under one lock so Drain's draining flag and
	// wg.Add can never race (a handler past the check has its wg slot).
	now := time.Now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, httpError{Error: "draining"})
		return
	}
	tn := s.tenants[req.Tenant]
	if tn == nil {
		tn = &tenant{
			name:  req.Tenant,
			slots: make(chan struct{}, s.cfg.TenantMaxInflight),
		}
		s.tenants[req.Tenant] = tn
	}
	if ok, wait := tn.admit(now, s.cfg); !ok {
		s.mu.Unlock()
		s.met.shedBreaker.Inc()
		shed(w, wait, fmt.Sprintf("tenant %s: circuit breaker open", req.Tenant))
		return
	}
	if tn.inflight >= s.cfg.TenantQueueDepth {
		// Undo a half-open probe claim: this job never ran.
		if tn.state == breakerHalfOpen {
			tn.probing = false
		}
		s.mu.Unlock()
		s.met.shedTenant.Inc()
		shed(w, s.cfg.RetryBackoff, fmt.Sprintf("tenant %s: queue depth limit", req.Tenant))
		return
	}
	select {
	case s.queueSlots <- struct{}{}:
	default:
		if tn.state == breakerHalfOpen {
			tn.probing = false
		}
		s.mu.Unlock()
		s.met.shedQueue.Inc()
		shed(w, s.cfg.RetryBackoff, "job queue full")
		return
	}
	tn.inflight++
	s.jobSeq++
	id := s.jobSeq
	s.wg.Add(1)
	s.mu.Unlock()

	s.met.jobs.Inc()
	s.met.queueDepth.Add(1)

	// Tenant slot before worker slot: a tenant over its concurrency
	// limit waits in its own lane and cannot hold a worker hostage.
	tn.slots <- struct{}{}
	m := <-s.workerSlots
	s.met.running.Add(1)

	resp := s.runJob(&req, job, id, &m)

	s.met.running.Add(-1)
	s.workerSlots <- m
	<-tn.slots
	s.met.queueDepth.Add(-1)
	<-s.queueSlots

	trapped := resp.Status == StatusTrap
	s.mu.Lock()
	tn.inflight--
	tripped, recovered := tn.record(trapped, time.Now(), s.cfg)
	s.mu.Unlock()
	s.wg.Done()
	if tripped {
		s.met.breakerTrips.Inc()
	}
	if recovered {
		s.met.breakerRecoveries.Inc()
	}
	switch resp.Status {
	case StatusOK:
		s.met.jobsOK.Inc()
	case StatusTrap:
		s.met.jobsTrap.Inc()
	default:
		s.met.jobsError.Inc()
	}
	writeJSON(w, http.StatusOK, resp)
}

// Drain stops admission, waits for in-flight jobs, and closes the cache
// journal. Idempotent; safe to call while requests are arriving.
func (s *Server) Drain() error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.wg.Wait()
	if already {
		return nil
	}
	s.met.drained.Inc()
	if s.cfg.Cache != nil {
		return s.cfg.Cache.Close()
	}
	return nil
}

// jitter returns d plus up to d of seeded random spread.
func (s *Server) jitter(d time.Duration) time.Duration {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return d + time.Duration(s.rng.Int63n(int64(d)+1))
}

// retryable reports whether a trap kind is transient: worth retrying on
// the theory the next attempt may not hit it (one-shot injected faults,
// cache pressure), as opposed to deterministic guest behavior (budget
// expiry, decode faults) that would just fail again.
func retryable(k faults.TrapKind) bool {
	return k == faults.TrapCacheExhausted || k == faults.TrapWorkerPanic
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/isa/x86"
	"repro/internal/obs"
	"repro/internal/transcache"
)

// spinImage builds a guest that loops forever — the hostile live-looper
// the watchdogs exist for.
func spinImage(t *testing.T) []byte {
	t.Helper()
	b := guestimg.NewBuilder(0x10000, 0x40000)
	a := b.Asm
	a.Label("main").
		MovRI(x86.RCX, 0).
		Label("loop").
		AddRI(x86.RCX, 1).
		Jmp("loop")
	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return img.Encode()
}

type testServer struct {
	*Server
	hs    *httptest.Server
	scope *obs.Scope
}

func startServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.NewScope("")
	}
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &testServer{Server: srv, hs: hs, scope: cfg.Obs}
}

// submit posts a job and decodes the response. For non-200 statuses the
// JobResponse is zero and the error body text is returned.
func (ts *testServer) submit(t *testing.T, req JobRequest) (int, JobResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var he httpError
		json.NewDecoder(resp.Body).Decode(&he)
		return resp.StatusCode, JobResponse{}, he.Error
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, jr, ""
}

func (ts *testServer) counter(name string) uint64 {
	return ts.scope.Snapshot().Counters[name]
}

func TestCleanJob(t *testing.T) {
	ts := startServer(t, Config{Workers: 2})
	code, jr, _ := ts.submit(t, JobRequest{Tenant: "a", Kernel: "histogram"})
	if code != http.StatusOK || jr.Status != StatusOK {
		t.Fatalf("clean job: HTTP %d, status %q", code, jr.Status)
	}
	if jr.Attempts != 1 {
		t.Fatalf("clean job took %d attempts", jr.Attempts)
	}
}

// TestTierUpJobsAddNoGoroutines: promotion builds run on the job's own
// goroutine — inside runOnce's recover and the admission bound — so
// tier-up jobs leave the process's goroutine count where it was. Jobs are
// run without the HTTP layer, whose connection goroutines come and go.
func TestTierUpJobsAddNoGoroutines(t *testing.T) {
	srv := New(Config{TierUp: core.TierUpConfig{Enabled: true, PromoteThreshold: 4}})
	run := func(req JobRequest) *JobResponse {
		job, err := srv.resolve(&req)
		if err != nil {
			t.Fatal(err)
		}
		return srv.runJob(&req, job, 1)
	}
	before := runtime.NumGoroutine()
	// A budget trap's bundle shows the jobs really promote.
	jr := run(JobRequest{Tenant: "a", Kernel: "fencechain", Scale: 2, StepBudget: 100_000})
	if jr.Bundle == nil || jr.Bundle.TierUp == nil || jr.Bundle.Metrics["core.selfheal.promotions"] == 0 {
		t.Fatalf("tier-up job trapped without recording a promotion: %+v", jr)
	}
	for i := 0; i < 8; i++ {
		if jr := run(JobRequest{Tenant: "a", Kernel: "fencechain", Threads: 2}); jr.Status != StatusOK {
			t.Fatalf("job %d: status %q (%s)", i, jr.Status, jr.Error)
		}
	}
	// (> rather than !=: an earlier test's closed connections may still be
	// winding down.)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the jobs, %d before", n, before)
	}
}

func TestRequestValidation(t *testing.T) {
	ts := startServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
		want int
	}{
		{"no tenant", JobRequest{Kernel: "histogram"}, http.StatusBadRequest},
		{"no work", JobRequest{Tenant: "a"}, http.StatusUnprocessableEntity},
		{"unknown kernel", JobRequest{Tenant: "a", Kernel: "nonesuch"}, http.StatusUnprocessableEntity},
		{"bad image", JobRequest{Tenant: "a", Image: []byte("junk")}, http.StatusUnprocessableEntity},
		{"bad variant", JobRequest{Tenant: "a", Kernel: "histogram", Variant: "nope"}, http.StatusUnprocessableEntity},
		{"bad fault", JobRequest{Tenant: "a", Kernel: "histogram", Fault: "nonesuch"}, http.StatusUnprocessableEntity},
		{"image and kernel", JobRequest{Tenant: "a", Kernel: "histogram", Image: spinImage(t)}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if got, _, _ := ts.submit(t, c.req); got != c.want {
			t.Errorf("%s: HTTP %d, want %d", c.name, got, c.want)
		}
	}
}

// TestRetryTransientFault: a one-shot injected worker panic is retried
// with the same injector, so the second attempt runs clean.
func TestRetryTransientFault(t *testing.T) {
	ts := startServer(t, Config{Workers: 1, MaxRetries: 2, RetryBackoff: time.Millisecond})
	_, jr, _ := ts.submit(t, JobRequest{Tenant: "a", Kernel: "histogram", Fault: "job-panic@1"})
	if jr.Status != StatusOK || jr.Attempts != 2 {
		t.Fatalf("transient panic: status %q after %d attempts, want ok after 2", jr.Status, jr.Attempts)
	}
	if got := ts.counter("serve.retries"); got != 1 {
		t.Fatalf("serve.retries = %d, want 1", got)
	}
	// Two one-shot panics: attempts 1 and 2 die, 3 succeeds.
	_, jr, _ = ts.submit(t, JobRequest{Tenant: "b", Kernel: "histogram", Fault: "job-panic@1,job-panic@2"})
	if jr.Status != StatusOK || jr.Attempts != 3 {
		t.Fatalf("double panic: status %q after %d attempts, want ok after 3", jr.Status, jr.Attempts)
	}
}

// TestRetryExhaustionCarriesBundle: when every attempt dies the response
// is a trap with the crash-triage bundle attached.
func TestRetryExhaustionCarriesBundle(t *testing.T) {
	ts := startServer(t, Config{Workers: 1, MaxRetries: 1, RetryBackoff: time.Millisecond})
	_, jr, _ := ts.submit(t, JobRequest{
		Tenant: "a", Kernel: "histogram", Fault: "job-panic@1,job-panic@2",
	})
	if jr.Status != StatusTrap || jr.Attempts != 2 {
		t.Fatalf("status %q after %d attempts, want trap after 2", jr.Status, jr.Attempts)
	}
	if jr.Trap == nil || jr.Trap.Kind != "worker-panic" {
		t.Fatalf("trap = %+v, want worker-panic", jr.Trap)
	}
	if jr.Bundle == nil {
		t.Fatal("exhausted retries carry no bundle")
	}
	if err := jr.Bundle.Validate(); err != nil {
		t.Fatalf("bundle invalid: %v", err)
	}
}

// TestHostileTenantIsolation is the headline e2e: one tenant live-loops
// and panics, the other runs clean jobs throughout. The hostile tenant
// must never crash the daemon or perturb the clean tenant's results, its
// breaker must trip (shedding with 429), and after backing off it must
// recover through a successful probe.
func TestHostileTenantIsolation(t *testing.T) {
	ts := startServer(t, Config{
		Workers:           4,
		TenantMaxInflight: 2,
		TenantQueueDepth:  4,
		BreakerThreshold:  3,
		BreakerBackoff:    200 * time.Millisecond,
		BreakerMaxBackoff: time.Second,
		MaxRetries:        0, // hostile traps surface immediately
		RetryBackoff:      time.Millisecond,
		StepBudgetCap:     50e6,
		DeadlineCap:       5 * time.Second,
	})
	spin := spinImage(t)

	var wg sync.WaitGroup
	var cleanMu sync.Mutex
	var cleanCodes []uint64
	cleanErr := make(chan string, 1)

	// Clean tenant: steady stream of identical jobs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			code, jr, msg := ts.submit(t, JobRequest{Tenant: "bob", Kernel: "histogram", Threads: 2})
			if code != http.StatusOK || jr.Status != StatusOK {
				select {
				case cleanErr <- fmt.Sprintf("job %d: HTTP %d status %q (%s)", i, code, jr.Status, msg):
				default:
				}
				return
			}
			cleanMu.Lock()
			cleanCodes = append(cleanCodes, jr.ExitCode)
			cleanMu.Unlock()
		}
	}()

	// Hostile tenant: live-looping images (step-budget traps) and
	// injected worker panics, until the breaker sheds it.
	var trapped, shedded int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40 && shedded == 0; i++ {
			req := JobRequest{Tenant: "mallory", Image: spin, StepBudget: 20000}
			if i%2 == 1 {
				req = JobRequest{Tenant: "mallory", Kernel: "histogram", Fault: "job-panic@1"}
			}
			code, jr, _ := ts.submit(t, req)
			switch {
			case code == http.StatusTooManyRequests:
				shedded++
			case code == http.StatusOK && jr.Status == StatusTrap:
				trapped++
			case code == http.StatusOK && jr.Status == StatusOK:
				t.Errorf("hostile job %d unexpectedly succeeded", i)
			}
		}
	}()
	wg.Wait()

	select {
	case msg := <-cleanErr:
		t.Fatalf("clean tenant perturbed: %s", msg)
	default:
	}
	cleanMu.Lock()
	defer cleanMu.Unlock()
	if len(cleanCodes) != 8 {
		t.Fatalf("clean tenant finished %d/8 jobs", len(cleanCodes))
	}
	for _, c := range cleanCodes[1:] {
		if c != cleanCodes[0] {
			t.Fatalf("clean tenant results diverged: %v", cleanCodes)
		}
	}
	if trapped < 3 {
		t.Fatalf("hostile tenant trapped %d times, want >= breaker threshold 3", trapped)
	}
	if shedded == 0 {
		t.Fatal("hostile tenant was never shed: breaker did not trip")
	}
	if got := ts.counter("serve.breaker_trips"); got == 0 {
		t.Fatal("serve.breaker_trips = 0")
	}

	// Recovery: wait out the backoff (trip opened for 200ms; give it
	// margin), then a clean job from the ex-hostile tenant probes the
	// half-open breaker and closes it.
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		time.Sleep(250 * time.Millisecond)
		code, jr, _ := ts.submit(t, JobRequest{Tenant: "mallory", Kernel: "histogram"})
		if code == http.StatusOK && jr.Status == StatusOK {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("hostile tenant never recovered after backing off")
	}
	if got := ts.counter("serve.breaker_recoveries"); got == 0 {
		t.Fatal("serve.breaker_recoveries = 0")
	}
	// Closed again: the next job flows without shedding.
	if code, jr, _ := ts.submit(t, JobRequest{Tenant: "mallory", Kernel: "histogram"}); code != http.StatusOK || jr.Status != StatusOK {
		t.Fatalf("post-recovery job: HTTP %d status %q", code, jr.Status)
	}
}

// TestAdmissionLimits drives the queue and tenant bounds: with one worker
// occupied by a deadline-bounded live-looper, the global queue and the
// per-tenant depth both shed with 429 + Retry-After.
func TestAdmissionLimits(t *testing.T) {
	ts := startServer(t, Config{
		Workers:           1,
		QueueDepth:        1,
		TenantMaxInflight: 1,
		TenantQueueDepth:  1,
		BreakerThreshold:  100, // keep the breaker out of this test
		MaxRetries:        0,
		DeadlineCap:       10 * time.Second,
	})
	spin := spinImage(t)
	slow := JobRequest{Tenant: "slow", Image: spin, DeadlineMS: 1500}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupies the only worker for ~1.5s, then traps on deadline.
		ts.submit(t, slow)
	}()

	// Wait until the slow job is running.
	waitFor(t, func() bool {
		return ts.scope.Snapshot().Gauges["serve.running"] == 1
	})

	// Second job queues (global queue slot 2 of workers+depth = 2).
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts.submit(t, JobRequest{Tenant: "q2", Image: spin, DeadlineMS: 200})
	}()
	waitFor(t, func() bool {
		return ts.scope.Snapshot().Gauges["serve.queue_depth"] == 2
	})

	// Global queue is now full: a third tenant is shed.
	code, _, msg := ts.submit(t, JobRequest{Tenant: "q3", Kernel: "histogram"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue overflow: HTTP %d (%s), want 429", code, msg)
	}
	if got := ts.counter("serve.shed_queue"); got == 0 {
		t.Fatal("serve.shed_queue = 0")
	}

	// The slow tenant already has 1 admitted job = its depth limit.
	code, _, msg = ts.submit(t, JobRequest{Tenant: "slow", Kernel: "histogram"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("tenant overflow: HTTP %d (%s), want 429", code, msg)
	}
	if got := ts.counter("serve.shed_tenant"); got == 0 {
		t.Fatal("serve.shed_tenant = 0")
	}
	wg.Wait()
}

// TestRetryAfterHeader pins the backpressure contract scripted clients
// rely on: 429 responses carry a positive integer Retry-After.
func TestRetryAfterHeader(t *testing.T) {
	ts := startServer(t, Config{
		Workers: 1, QueueDepth: 1, TenantQueueDepth: 1, BreakerThreshold: 100,
		DeadlineCap: 10 * time.Second,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ts.submit(t, JobRequest{Tenant: "slow", Image: spinImage(t), DeadlineMS: 800})
	}()
	waitFor(t, func() bool {
		return ts.scope.Snapshot().Gauges["serve.running"] == 1
	})
	body, _ := json.Marshal(JobRequest{Tenant: "slow", Kernel: "histogram"})
	resp, err := http.Post(ts.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want positive seconds", ra)
	}
	<-done
}

// TestDrain: draining stops admission with 503 while in-flight jobs run
// to completion.
func TestDrain(t *testing.T) {
	ts := startServer(t, Config{Workers: 1, DeadlineCap: 10 * time.Second})
	type result struct {
		jr  JobResponse
		hty int
	}
	got := make(chan result, 1)
	go func() {
		code, jr, _ := ts.submit(t, JobRequest{Tenant: "a", Image: spinImage(t), DeadlineMS: 700})
		got <- result{jr, code}
	}()
	waitFor(t, func() bool {
		return ts.scope.Snapshot().Gauges["serve.running"] == 1
	})
	drained := make(chan error, 1)
	go func() { drained <- ts.Drain() }()

	// New work is refused while the drain waits on the in-flight job.
	waitFor(t, func() bool {
		code, _, _ := ts.submit(t, JobRequest{Tenant: "b", Kernel: "histogram"})
		return code == http.StatusServiceUnavailable
	})

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-got
	// The in-flight job finished normally (deadline trap is its result).
	if r.hty != http.StatusOK || r.jr.Status != StatusTrap {
		t.Fatalf("in-flight job: HTTP %d status %q, want 200/trap", r.hty, r.jr.Status)
	}
}

// TestCacheCorruptionRecovery is the acceptance path: a daemon populates
// the persistent cache, bytes are flipped in the journal, and the
// restarted daemon detects the damage by checksum, retranslates, and
// produces results identical to the cold run.
func TestCacheCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.jsonl")
	job := JobRequest{Tenant: "a", Kernel: "histogram", Threads: 2}

	open := func() (*testServer, *transcache.Cache) {
		cache, err := transcache.Open(path, transcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return startServer(t, Config{Workers: 2, Cache: cache}), cache
	}

	// Cold run populates the journal.
	ts1, _ := open()
	_, cold, _ := ts1.submit(t, job)
	if cold.Status != StatusOK || cold.CacheMisses == 0 || cold.CacheHits != 0 {
		t.Fatalf("cold run: %+v", cold)
	}
	if err := ts1.Drain(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one journaled entry's payload (keep line framing).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal too small to corrupt: %d lines", len(lines))
	}
	mid := lines[len(lines)/2]
	// Lengthen the checksum field: still valid JSON, still a complete
	// line, but the sum can never verify.
	flipped := bytes.Replace(mid, []byte(`"sum":"`), []byte(`"sum":"x`), 1)
	if bytes.Equal(flipped, mid) {
		t.Fatalf("journal line carries no sum field: %q", mid)
	}
	lines[len(lines)/2] = flipped
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	// Warm-but-damaged run: checksum catches the flip, that block
	// retranslates, the result is byte-identical to the cold run.
	ts2, cache2 := open()
	if st := cache2.Stats(); st.CorruptSkipped == 0 {
		t.Fatalf("reopen did not flag the corrupt entry: %+v", st)
	}
	_, warm, _ := ts2.submit(t, job)
	if warm.Status != StatusOK {
		t.Fatalf("warm run status %q", warm.Status)
	}
	if warm.ExitCode != cold.ExitCode {
		t.Fatalf("warm exit %d != cold exit %d", warm.ExitCode, cold.ExitCode)
	}
	if warm.CacheMisses == 0 {
		t.Fatal("corrupt entry did not force a retranslation")
	}
	if warm.CacheHits == 0 {
		t.Fatal("intact entries were not served from cache")
	}
	if err := ts2.Drain(); err != nil {
		t.Fatal(err)
	}

	// Fully healed: a third daemon serves everything from cache.
	ts3, _ := open()
	_, healed, _ := ts3.submit(t, job)
	if healed.Status != StatusOK || healed.ExitCode != cold.ExitCode {
		t.Fatalf("healed run: %+v", healed)
	}
	if healed.CacheMisses != 0 {
		t.Fatalf("healed run still missed %d blocks", healed.CacheMisses)
	}
	if err := ts3.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedCacheCorruption drives the same path through the fault
// site: the server-level injector corrupts the Nth journal append, and a
// restart detects it.
func TestInjectedCacheCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.jsonl")

	inj := faults.NewInjector(1)
	inj.Arm(faults.SiteCacheCorrupt, 1, faults.TrapMiscompile)
	cache, err := transcache.Open(path, transcache.Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	ts := startServer(t, Config{Workers: 1, Cache: cache})
	_, cold, _ := ts.submit(t, JobRequest{Tenant: "a", Kernel: "histogram"})
	if cold.Status != StatusOK {
		t.Fatalf("cold run: %+v", cold)
	}
	if err := ts.Drain(); err != nil {
		t.Fatal(err)
	}

	cache2, err := transcache.Open(path, transcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache2.Stats(); st.CorruptSkipped != 1 {
		t.Fatalf("CorruptSkipped = %d, want 1", st.CorruptSkipped)
	}
	ts2 := startServer(t, Config{Workers: 1, Cache: cache2})
	_, warm, _ := ts2.submit(t, JobRequest{Tenant: "a", Kernel: "histogram"})
	if warm.Status != StatusOK || warm.ExitCode != cold.ExitCode {
		t.Fatalf("warm run: %+v (cold exit %d)", warm, cold.ExitCode)
	}
	if warm.CacheMisses != 1 {
		t.Fatalf("warm CacheMisses = %d, want exactly the corrupted entry", warm.CacheMisses)
	}
	if err := ts2.Drain(); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}

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
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/isa/x86"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/transcache"
	"repro/internal/workloads"
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
	return ts.post(t, body)
}

// post is submit with the request body as given.
func (ts *testServer) post(t *testing.T, body []byte) (int, JobResponse, string) {
	t.Helper()
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

// normalized renders jr without the fields that differ between identical
// runs.
func normalized(t *testing.T, jr JobResponse) string {
	t.Helper()
	jr.JobID, jr.DurationMS = 0, 0
	b, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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

	// Older clients send fault_seed, which seeded nothing: the request is
	// accepted and answered as if the field were absent.
	req := `{"tenant": "b", "kernel": "histogram", "fault": "step-budget@2"`
	_, without, _ := ts.post(t, []byte(req+`}`))
	code, with, msg := ts.post(t, []byte(req+`, "fault_seed": 7}`))
	if code != http.StatusOK || with.Status != StatusTrap {
		t.Fatalf("job with fault_seed: HTTP %d, status %q (%s), want a trap", code, with.Status, msg)
	}
	if normalized(t, with) != normalized(t, without) {
		t.Errorf("fault_seed changed the response:\n%s\nwithout it\n%s", normalized(t, with), normalized(t, without))
	}
}

// TestKernelSizeAdmission: a kernel whose image could not fit a job's
// memory, or whose threads' stacks alone do not, is refused with 422
// before the server builds it; every kernel at its default size runs.
func TestKernelSizeAdmission(t *testing.T) {
	ts := startServer(t, Config{Workers: 1})
	for _, req := range []JobRequest{
		{Tenant: "a", Kernel: "histogram", Scale: 10000},    // a 327 MB image
		{Tenant: "a", Kernel: "matrixmultiply", Scale: 600}, // 5 GB: grows with scale²
		{Tenant: "a", Kernel: "histogram", Threads: 100000},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, _, msg := ts.submit(t, req)
		runtime.ReadMemStats(&after)
		if code != http.StatusUnprocessableEntity || !strings.Contains(msg, "fit") {
			t.Errorf("%s scale %d threads %d: HTTP %d (%s), want 422", req.Kernel, req.Scale, req.Threads, code, msg)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 8<<20 {
			t.Errorf("%s scale %d threads %d: refusing it allocated %d MB", req.Kernel, req.Scale, req.Threads, d>>20)
		}
	}
	for _, k := range workloads.Registry() {
		if code, jr, msg := ts.submit(t, JobRequest{Tenant: "a", Kernel: k.Name}); code != http.StatusOK || jr.Status != StatusOK {
			t.Errorf("%s at its default size: HTTP %d, status %q (%s%s)", k.Name, code, jr.Status, msg, jr.Error)
		}
	}
}

// TestBuildKernelBound: with room set to a kernel's image end at scale 4,
// buildKernel builds scale 4 and refuses scale 5 exactly when scale 5's
// image ends past room.
func TestBuildKernelBound(t *testing.T) {
	for _, k := range workloads.Registry() {
		end := func(scale int) uint64 {
			pb, err := k.Build(2, scale)
			if err != nil {
				t.Fatal(err)
			}
			img, err := pb.BuildGuest("main")
			if err != nil {
				t.Fatal(err)
			}
			return img.MaxAddr()
		}
		room := end(4)
		if _, err := buildKernel(k, 2, 4, room); err != nil {
			t.Errorf("%s: scale 4 refused with room for it: %v", k.Name, err)
		}
		_, err := buildKernel(k, 2, 5, room)
		if fits := end(5) <= room; fits != (err == nil) {
			t.Errorf("%s: scale 5 fits = %v, buildKernel error = %v", k.Name, fits, err)
		}
	}
}

// TestTierUpJobsAddNoGoroutines: promotion builds run on the job's own
// goroutine — inside runOnce's recover and the admission bound — so
// tier-up jobs leave the process's goroutine count where it was. Jobs are
// run without the HTTP layer, whose connection goroutines come and go.
func TestTierUpJobsAddNoGoroutines(t *testing.T) {
	srv := New(Config{TierUp: core.TierUpConfig{Enabled: true, PromoteThreshold: 4}})
	var m *machine.Machine
	run := func(req JobRequest) *JobResponse {
		job, err := srv.resolve(&req)
		if err != nil {
			t.Fatal(err)
		}
		return srv.runJob(&req, job, 1, &m)
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

// TestReusedWorkerMachine: one worker runs alternating kernels, an
// injected worker panic and a step-budget trap on the machine it keeps, and
// every response equals the one a fresh server gives the same request. The
// worker keeps one machine from job to job and drops it only after a
// panicked attempt, so the server builds at most Workers machines plus one
// per panic.
func TestReusedWorkerMachine(t *testing.T) {
	cfg := Config{Workers: 1, MaxRetries: 2, RetryBackoff: time.Millisecond}
	ts := startServer(t, cfg)
	jobs := []JobRequest{
		{Kernel: "histogram", Threads: 2},
		{Kernel: "fencechain"},
		{Kernel: "kmeans", Threads: 2, Fault: "job-panic@1"},
		{Kernel: "histogram"},
		{Kernel: "fencechain", Threads: 2, StepBudget: 5000},
		{Kernel: "kmeans"},
		{Kernel: "histogram", Threads: 2},
	}
	seen := map[*machine.Machine]bool{}
	var prev *machine.Machine
	panics := 0
	for i, req := range jobs {
		req.Tenant = "a"
		_, got, _ := ts.submit(t, req)
		_, want, _ := startServer(t, cfg).submit(t, req)
		if normalized(t, got) != normalized(t, want) {
			t.Errorf("job %d (%s): reused worker answered\n%s\nfresh server\n%s", i, req.Kernel, normalized(t, got), normalized(t, want))
		}
		panicked := req.Fault != ""
		attempts := 1
		if panicked {
			attempts, panics = 2, panics+1
		}
		switch {
		case req.StepBudget != 0 && (got.Status != StatusTrap || got.Bundle == nil):
			t.Errorf("job %d (%s): status %q, bundle %v, want a trap with a bundle", i, req.Kernel, got.Status, got.Bundle != nil)
		case req.StepBudget == 0 && (got.Status != StatusOK || got.Attempts != attempts):
			t.Errorf("job %d (%s): status %q after %d attempts, want ok after %d", i, req.Kernel, got.Status, got.Attempts, attempts)
		}
		m := ts.idleMachines()[0]
		if m == nil {
			t.Fatalf("job %d (%s, status %q) left the worker no machine", i, req.Kernel, got.Status)
		}
		if prev != nil && (m == prev) == panicked {
			t.Errorf("job %d (%s): worker machine changed %v, want changed only after a panic", i, req.Kernel, m != prev)
		}
		seen[m], prev = true, m
	}
	if len(seen) > cfg.Workers+panics {
		t.Errorf("server built %d machines over %d jobs, want at most %d", len(seen), len(jobs), cfg.Workers+panics)
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

	inj := faults.NewInjector()
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

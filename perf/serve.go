package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/guestimg"
	"repro/internal/machine"
	"repro/internal/portasm"
	"repro/internal/selfheal"
	"repro/internal/serve"
	"repro/internal/transcache"
	"repro/internal/workloads"
)

// serveClients is the number of closed-loop clients, one tenant each: at
// most the box's two CPUs.
const serveClients = 2

// deckSize is the number of jobs in a deck: the sum of serveKinds' shares.
const deckSize = 16

// serveKinds are the kernels jobs are drawn from, with each one's share of
// a deck. The shares are unequal on purpose: with equal ones
// the median job would sit on the border between two kernels and the median
// latency would jump between them from run to run.
var serveKinds = []struct {
	kernel string
	share  int
}{
	{"fencechain", 3}, {"blackscholes", 3}, {"linearregression", 6}, {"swaptions", 4},
}

// jobKind is one kernel's job with its reference results.
type jobKind struct {
	name     string
	img      *guestimg.Image
	payload  [serveClients][]byte // the request body, per client tenant
	wantExit uint64
	cycles   uint64
	pcs      []uint64 // the blocks a run translates
}

// serveMix is the serve_mix workload: an operation is one job, from the
// client's send to its reply.
type serveMix struct {
	p       params
	path    string
	cache   *transcache.Cache
	srv     *serve.Server
	handler http.Handler
	kinds   []*jobKind
	seq     [serveClients][]int // each client's job sequence, by kind
	coldMS  []float64
}

func newServeMix(p params) *serveMix { return &serveMix{p: p} }

func (s *serveMix) setup() error {
	s.kinds = nil
	for _, k := range serveKinds {
		kern, err := workloads.KernelByName(k.kernel)
		if err != nil {
			return err
		}
		b, err := kern.Build(2, 1)
		if err != nil {
			return err
		}
		jk := &jobKind{name: k.kernel}
		if jk.img, err = b.BuildGuest("main"); err != nil {
			return err
		}
		for c := range jk.payload {
			if jk.payload[c], err = json.Marshal(serve.JobRequest{
				Tenant: fmt.Sprintf("client%d", c), Image: jk.img.Encode(),
			}); err != nil {
				return err
			}
		}
		// Reference: the native image through the interpreter alone gives
		// the exit code; a direct core run gives the cycles and the blocks.
		nimg, err := b.BuildNative("main")
		if err != nil {
			return err
		}
		m, err := portasm.RunNative(nimg, 0)
		if err != nil {
			return fmt.Errorf("%s/native: %w", k.kernel, err)
		}
		jk.wantExit = m.CPUs[0].ExitCode
		rt, exit, err := runGuest(&guest{img: jk.img}, core.VariantRisotto)
		if err != nil || exit != jk.wantExit {
			return fmt.Errorf("%s: direct run exits %d, native %d (err %v)", k.kernel, exit, jk.wantExit, err)
		}
		jk.cycles, jk.pcs = rt.M.MaxCycles(), rt.BlockPCs()
		s.kinds = append(s.kinds, jk)
	}

	// Each client's sequence is a seeded shuffle of decks holding every
	// kind in its share, so any stretch of it has close to the same mix.
	for c := range s.seq {
		rng := rand.New(rand.NewSource(s.p.seed*serveClients + int64(c)))
		s.seq[c] = nil
		for d := 0; d < 64; d++ {
			var deck []int
			for i, k := range serveKinds {
				for n := 0; n < k.share; n++ {
					deck = append(deck, i)
				}
			}
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			s.seq[c] = append(s.seq[c], deck...)
		}
	}

	s.path = filepath.Join(s.p.workdir, fmt.Sprintf("transcache-%d.jsonl", os.Getpid()))
	if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	var err error
	if s.cache, err = transcache.Open(s.path, transcache.Options{}); err != nil {
		return err
	}
	cfg := serve.Default()
	cfg.Workers = serveClients
	cfg.Cache = s.cache
	s.srv = serve.New(cfg)
	s.handler = s.srv.Handler()

	// One cold pass fills the translation cache; a second checks it is warm.
	s.coldMS = nil
	for pass := 0; pass < 2; pass++ {
		for _, jk := range s.kinds {
			r := s.submit(0, jk)
			if !r.ok {
				return fmt.Errorf("%s: warm-up job failed: %s", jk.name, r.detail)
			}
			if pass == 0 {
				s.coldMS = append(s.coldMS, r.ms)
			} else if r.resp.CacheMisses != 0 {
				return fmt.Errorf("%s: %d cache misses after the warm-up pass", jk.name, r.resp.CacheMisses)
			}
		}
	}
	return nil
}

func (s *serveMix) close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Drain() // closes the cache journal
	s.srv = nil
	if rerr := os.Remove(s.path); err == nil && rerr != nil && !os.IsNotExist(rerr) {
		err = rerr
	}
	return err
}

// reply is one job as its client saw it.
type reply struct {
	ms     float64
	code   int
	resp   serve.JobResponse
	ok     bool
	detail string
}

// submit sends one job through the handler, with no socket, and checks the
// reply against the reference.
func (s *serveMix) submit(client int, jk *jobKind) reply {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(jk.payload[client]))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	s.handler.ServeHTTP(rec, req)
	r := reply{ms: ms(time.Since(t0)), code: rec.Code}
	if rec.Code != http.StatusOK {
		r.detail = fmt.Sprintf("HTTP %d: %s", rec.Code, rec.Body.String())
		return r
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &r.resp); err != nil {
		r.detail = err.Error()
		return r
	}
	if r.resp.Status != serve.StatusOK || r.resp.ExitCode != jk.wantExit {
		r.detail = fmt.Sprintf("status %q exit %d, want ok %d", r.resp.Status, r.resp.ExitCode, jk.wantExit)
		return r
	}
	r.ok = true
	return r
}

// drive runs the closed loop: each client sends its next job when the reply
// to the previous one arrives. each is called with every reply, under a lock.
func (s *serveMix) drive(stop stopFn, each func(client int, jk *jobKind, r reply)) {
	if s.p.smoke {
		stop = func(done int) bool { return done >= 4 }
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; !stop(n); n++ {
				jk := s.kinds[s.seq[c][n%len(s.seq[c])]]
				r := s.submit(c, jk)
				mu.Lock()
				each(c, jk, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

func (s *serveMix) loop(stop stopFn) (*sample, error) {
	out := &sample{}
	var exact exactCheck
	var cycles, jobs float64
	// A window is one deck of one client: every window has the same mix.
	// Its throughput is what the loop would do with every client at this
	// client's pace.
	var cur [serveClients]window
	var began [serveClients]time.Time
	for c := range began {
		began[c] = time.Now()
	}
	s.drive(stop, func(c int, jk *jobKind, r reply) {
		w := &cur[c]
		w.opMS = append(w.opMS, r.ms)
		if len(w.opMS) == deckSize {
			now := time.Now()
			w.wallMS, w.units = ms(now.Sub(began[c])), deckSize*serveClients
			out.windows = append(out.windows, *w)
			*w, began[c] = window{}, now
		}
		if !r.ok {
			out.failed++
			return
		}
		jobs++
		cycles += float64(jk.cycles)
		exact.observe(jk.name, r.resp.CacheHits, r.resp.CacheMisses)
	})
	// The deck a client was in when the loop ended: its jobs count, its
	// timing does not (a zero wallMS leaves it out) unless no deck finished.
	full := len(out.windows)
	for c, w := range cur {
		if len(w.opMS) == 0 {
			continue
		}
		if full == 0 {
			w.wallMS, w.units = ms(time.Since(began[c])), float64(len(w.opMS)*serveClients)
		}
		out.windows = append(out.windows, w)
	}
	out.exactCost = cycles / jobs
	out.mismatches = exact.mismatches
	return out, nil
}

// traced spans every job, reads what the reply says about it, and then
// times alone the pieces of a job the daemon hides: core.New, the cached-IR
// loads of one image, machine.New.
func (s *serveMix) traced(tr *tracer, stop stopFn, lm layers) error {
	var exact exactCheck
	var overhead []float64
	byKind := map[string][]float64{}
	var failed, shed, retries, hits, misses float64
	// For the length of the pass the handler is wrapped in a span per job.
	inner := s.handler
	var next atomic.Int64
	s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.begin(0, int(next.Add(1))-1, "op")
		inner.ServeHTTP(w, r)
		tr.end(id)
	})
	s.drive(stop, func(_ int, jk *jobKind, r reply) {
		if r.code == http.StatusTooManyRequests {
			shed++
		}
		if !r.ok {
			failed++
			return
		}
		retries += float64(r.resp.Attempts - 1)
		hits += float64(r.resp.CacheHits)
		misses += float64(r.resp.CacheMisses)
		overhead = append(overhead, r.ms-float64(r.resp.DurationMS))
		byKind[jk.name] = append(byKind[jk.name], r.ms)
		exact.observe(jk.name, r.resp.CacheHits, r.resp.CacheMisses)
	})
	s.handler = inner

	var loadUS []float64
	for i, jk := range s.kinds {
		var err error
		tr.do(0, i, "core.new", func() { _, err = core.New(jk.img, core.WithVariant(core.VariantRisotto)) })
		if err != nil {
			return err
		}
		tr.do(0, i, "machine.new", func() { machine.New(portasm.NativeMemSize) })
		key := transcache.Fingerprint(jk.img) + "/" + core.VariantRisotto.String()
		for _, pc := range jk.pcs {
			found := false
			d := tr.do(0, i, "transcache.load", func() { _, found = s.cache.Load(key, pc, selfheal.TierFull) })
			if !found {
				return fmt.Errorf("%s: block %#x is not in the warm cache", jk.name, pc)
			}
			loadUS = append(loadUS, d*1e3)
		}
	}

	jobs := tr.durations("op")
	lm["serve.job_p90_ms"] = percentile(jobs, 90)
	lm["serve.job_p99_ms"] = percentile(jobs, 99)
	lm["serve.overhead_ms"] = median(overhead)
	lm["serve.shed"] = shed
	lm["serve.retries"] = retries
	lm["transcache.hits"] = hits
	lm["transcache.misses"] = misses
	if hits+misses > 0 {
		lm["transcache.hit_rate"] = hits / (hits + misses)
	}
	lm["transcache.load_us"] = median(loadUS)
	lm["transcache.cold_job_ms"] = median(s.coldMS)
	lm["core.new_ms"] = median(tr.durations("core.new"))
	lm["machine.new_ms"] = median(tr.durations("machine.new"))
	lm["harness.failed"] += failed
	lm["harness.determinism_mismatches"] += float64(exact.mismatches)
	fmt.Printf("serve_mix: %d jobs traced, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; daemon overhead p50 %.3f ms (DurationMS is whole milliseconds)\n",
		len(jobs), median(jobs), percentile(jobs, 90), percentile(jobs, 99), median(overhead))
	for i, jk := range s.kinds {
		fmt.Printf("  %-18s %2d/16 of the mix  %4d jobs  p50 %7.3f ms\n", jk.name, serveKinds[i].share, len(byKind[jk.name]), median(byKind[jk.name]))
	}
	return nil
}

package serve

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/machine"
	"repro/internal/selfheal"
	"repro/internal/transcache"
	"repro/internal/workloads"
)

// JobRequest is the submit payload. Work is named either by a serialized
// guest image (Image, base64 in JSON) or by a built-in kernel name
// (Kernel + Threads/Scale); exactly one must be set.
type JobRequest struct {
	// Tenant is the QoS identity: limits, breaker state and shed
	// decisions are per-tenant. Required.
	Tenant string `json:"tenant"`
	// Image is a guestimg.Encode payload.
	Image []byte `json:"image,omitempty"`
	// Kernel names a workloads kernel to build instead of sending bytes.
	Kernel  string `json:"kernel,omitempty"`
	Threads int    `json:"threads,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	// Variant selects the DBT setup ("" = risotto).
	Variant string `json:"variant,omitempty"`
	// StepBudget and DeadlineMS request per-job watchdog settings; both
	// are clamped to the server's caps, and 0 means "the cap".
	StepBudget uint64 `json:"step_budget,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	// Fault arms a deterministic per-job injector (faults.ParseInjector
	// syntax). The injector persists across retry attempts, so a one-shot
	// fault hit on attempt 1 leaves attempt 2 clean — exactly the
	// transient-fault shape retry exists for. Requests from older clients
	// may also carry fault_seed, which seeded nothing and is ignored.
	Fault string `json:"fault,omitempty"`
}

// Job statuses.
const (
	StatusOK    = "ok"
	StatusTrap  = "trap"
	StatusError = "error"
)

// JobResponse is the submit result. Status "ok" carries ExitCode; "trap"
// carries the structured trap and, when the runtime survived far enough
// to triage, the crash bundle; "error" is an untyped internal failure.
type JobResponse struct {
	JobID    uint64 `json:"job_id"`
	Tenant   string `json:"tenant"`
	Status   string `json:"status"`
	ExitCode uint64 `json:"exit_code"`
	// Attempts counts executions including retries.
	Attempts int                `json:"attempts"`
	Trap     *selfheal.TrapInfo `json:"trap,omitempty"`
	Bundle   *selfheal.Bundle   `json:"bundle,omitempty"`
	Error    string             `json:"error,omitempty"`
	// CacheHits/CacheMisses are this job's persistent-translation-cache
	// counts (both 0 when the cache is off).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// DurationMS is wall-clock execution time across attempts.
	DurationMS int64 `json:"duration_ms"`
}

// resolvedJob is a validated request: the image to run and the effective
// (capped) config inputs.
type resolvedJob struct {
	img        *guestimg.Image
	variant    core.Variant
	stepBudget uint64
	deadline   time.Duration
	inj        *faults.Injector
}

// resolve validates req into a runnable job. Errors here are the
// client's fault (422): unknown kernel, a kernel too large for the
// server's machines, undecodable image, bad variant or fault spec.
func (s *Server) resolve(req *JobRequest) (*resolvedJob, error) {
	j := &resolvedJob{variant: core.VariantRisotto}
	switch {
	case len(req.Image) > 0 && req.Kernel != "":
		return nil, fmt.Errorf("request has both image and kernel; send one")
	case len(req.Image) > 0:
		img, err := guestimg.Decode(req.Image)
		if err != nil {
			return nil, fmt.Errorf("bad image: %w", err)
		}
		j.img = img
	case req.Kernel != "":
		k, err := workloads.KernelByName(req.Kernel)
		if err != nil {
			return nil, err
		}
		threads, scale := max(req.Threads, 1), max(req.Scale, 1)
		// A kernel runs its threads workers plus main, each on a stack.
		room := core.GuestRoom(s.cfg.MemSize, threads+1)
		if room == 0 {
			return nil, fmt.Errorf("kernel %s: %d threads' stacks do not fit in a job's memory", req.Kernel, threads)
		}
		img, err := buildKernel(k, threads, scale, room)
		if err != nil {
			return nil, fmt.Errorf("kernel %s at scale %d: %w", req.Kernel, scale, err)
		}
		j.img = img
	default:
		return nil, fmt.Errorf("request names no work: send image bytes or a kernel name")
	}
	if req.Variant != "" {
		v, err := core.ParseVariant(req.Variant)
		if err != nil {
			return nil, err
		}
		j.variant = v
	}
	// Clamp the watchdogs to the server caps; 0 means "the cap". A
	// tenant cannot opt out of the watchdogs, only tighten them.
	j.stepBudget = s.cfg.StepBudgetCap
	if req.StepBudget > 0 && req.StepBudget < j.stepBudget {
		j.stepBudget = req.StepBudget
	}
	j.deadline = s.cfg.DeadlineCap
	if req.DeadlineMS > 0 {
		if d := time.Duration(req.DeadlineMS) * time.Millisecond; d < j.deadline {
			j.deadline = d
		}
	}
	var err error
	if j.inj, err = faults.ParseInjector(req.Fault); err != nil {
		return nil, err
	}
	return j, nil
}

// buildKernel builds k at threads × scale, refusing before the build a
// scale whose image would not end below room. Every kernel's image grows
// with scale linearly, quadratically (matrixmultiply) or not at all, so
// the line through the image ends at scales p/2 and p never overshoots
// the end at a larger scale. buildKernel builds at scale 1, 2, 4, … and
// stops as soon as that line crosses room at the requested scale, or a
// build ends past room: however large the scale a request asks for, the
// builds it causes stay near room in size. Once two doublings grow the
// image by the same slope it grows linearly, the line is exact, and the
// next build is the requested scale.
func buildKernel(k workloads.Kernel, threads, scale int, room uint64) (*guestimg.Image, error) {
	tooBig := fmt.Errorf("image does not fit below %#x, the memory a job has for it", room)
	var prevEnd, prevSlope uint64
	prevScale := 0
	for p := 1; ; {
		pb, err := k.Build(threads, p)
		if err != nil {
			return nil, err
		}
		img, err := pb.BuildGuest("main")
		if err != nil {
			return nil, err
		}
		end := img.MaxAddr()
		if end > room {
			return nil, tooBig
		}
		if p == scale {
			return img, nil
		}
		next := min(2*p, scale)
		if prevScale > 0 {
			var slope uint64
			if end > prevEnd {
				slope = (end - prevEnd) / uint64(p-prevScale)
			}
			if slope > 0 && (room-end)/slope < uint64(scale-p) {
				return nil, tooBig
			}
			if prevScale > 1 && slope == prevSlope {
				next = scale
			}
			prevSlope = slope
		}
		prevEnd, prevScale, p = end, p, next
	}
}

// runJob executes a resolved job on the worker's machine *m (nil: a new
// one) with the retry policy: transient traps (retryable kinds) re-run up
// to MaxRetries times with jittered backoff, reusing the job's injector so
// one-shot injected faults stay spent. The final failure carries the last
// attempt's crash bundle. *m is left holding the machine the worker keeps.
func (s *Server) runJob(req *JobRequest, j *resolvedJob, id uint64, m **machine.Machine) *JobResponse {
	resp := &JobResponse{JobID: id, Tenant: req.Tenant}
	start := time.Now()
	defer func() { resp.DurationMS = time.Since(start).Milliseconds() }()

	maxAttempts := 1 + s.cfg.MaxRetries
	for attempt := 1; ; attempt++ {
		resp.Attempts = attempt
		code, hits, misses, trap, bundle, err := s.runOnce(req, j, m)
		resp.CacheHits += hits
		resp.CacheMisses += misses
		if err != nil {
			resp.Status = StatusError
			resp.Error = err.Error()
			return resp
		}
		if trap == nil {
			resp.Status = StatusOK
			resp.ExitCode = code
			resp.Trap = nil
			resp.Bundle = nil
			return resp
		}
		ti := selfheal.TrapInfoOf(trap)
		resp.Trap = &ti
		resp.Bundle = bundle
		if !retryable(trap.Kind) || attempt >= maxAttempts {
			resp.Status = StatusTrap
			resp.ExitCode = 0
			return resp
		}
		s.met.retries.Inc()
		time.Sleep(s.jitter(s.cfg.RetryBackoff))
	}
}

// runOnce is one attempt: build a runtime on *m (nil: a new machine), run
// under the watchdogs with self-healing on, and convert every failure mode
// — including a panic in this worker goroutine — into a structured trap
// plus, when the runtime survived far enough, a crash bundle. It leaves in
// *m the machine to reuse: the runtime's, or nil after a panic, which may
// have left it mid-update. err is reserved for internal failures that are
// not the guest's doing.
func (s *Server) runOnce(req *JobRequest, j *resolvedJob, m **machine.Machine) (code uint64, hits, misses uint64, trap *faults.Trap, bundle *selfheal.Bundle, err error) {
	var rt *core.Runtime
	var view *transcache.ImageCache
	collect := func() {
		if view != nil {
			hits, misses = view.Counts()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*faults.Trap); ok {
				trap = t
			} else {
				trap = &faults.Trap{
					Kind: faults.TrapWorkerPanic, CPU: -1,
					Msg: fmt.Sprintf("job worker panic: %v", r),
				}
			}
			if rt != nil {
				bundle, _ = rt.CrashBundle("risottod", trap)
			}
			collect()
			*m = nil
		}
	}()

	// No WithObs: the runtime makes a private scope, keeping crash
	// bundles deterministic per-job rather than entangled with
	// daemon-lifetime counters.
	opts := []core.Option{
		core.WithVariant(j.variant),
		core.WithMemSize(s.cfg.MemSize),
		core.WithStepBudget(j.stepBudget),
		core.WithDeadline(j.deadline),
		core.WithSelfHeal(true),
		core.WithFaults(j.inj),
		core.WithProvenance(req.Kernel, req.Fault),
		core.WithTierUp(s.cfg.TierUp),
		core.WithMachine(*m),
	}
	if s.cfg.Cache != nil {
		view = s.cfg.Cache.ForImage(transcache.Fingerprint(j.img) + "/" + j.variant.String())
		opts = append(opts, core.WithTranslationCache(view))
	}
	rt, nerr := core.New(j.img, opts...)
	if nerr != nil {
		if t, ok := faults.As(nerr); ok {
			collect()
			return 0, hits, misses, t, nil, nil
		}
		collect()
		return 0, hits, misses, nil, nil, nerr
	}
	*m = rt.M
	// The injected worker-panic site fires after runtime construction so
	// the recovered trap can still be triaged into a bundle.
	if t := j.inj.Hit(faults.SiteServeJob); t != nil {
		panic(t)
	}
	code, rerr := rt.Run()
	collect()
	if rerr != nil {
		if t, ok := faults.As(rerr); ok {
			b, _ := rt.CrashBundle("risottod", t)
			return 0, hits, misses, t, b, nil
		}
		return 0, hits, misses, nil, nil, rerr
	}
	return code, hits, misses, nil, nil, nil
}

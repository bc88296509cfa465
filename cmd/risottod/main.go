// Command risottod is the translation daemon: it serves the DBT stack
// over HTTP/JSON to multiple tenants, surviving hostile guests through
// admission control, per-tenant circuit breakers, watchdogged execution
// with self-healing, transient-fault retry and a crash-safe persistent
// translation cache. See internal/serve for the engine and DESIGN.md
// §"Service architecture" for the isolation layers.
//
// Server mode (default):
//
//	risottod -listen 127.0.0.1:8077 -cache /var/tmp/risotto-cache.jsonl
//
// Client mode (-submit or -snapshot): a minimal driver for scripts and
// smoke tests, speaking the same JSON API any HTTP client can.
//
//	risottod -submit -addr 127.0.0.1:8077 -tenant alice -kernel histogram
//	risottod -snapshot -addr 127.0.0.1:8077 | obsvalidate
//
// Exit codes in client mode follow the CLI convention: 0 for a completed
// job, 3 (cliflags.TrapExitCode) when the job trapped, 1 for errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/transcache"
)

func main() {
	fs := flag.NewFlagSet("risottod", flag.ExitOnError)

	// Mode selection.
	submit := fs.Bool("submit", false, "client mode: submit one job to -addr and print the response")
	snapshot := fs.Bool("snapshot", false, "client mode: print the daemon's bare metrics snapshot JSON")

	// Server flags.
	listen := fs.String("listen", "127.0.0.1:8077", "server: address to serve the job API and metrics on")
	addrFile := fs.String("addr-file", "", "server: write the bound address to FILE once listening (for scripts using :0)")
	cachePath := fs.String("cache", "", "server: persistent translation cache journal (empty = cache off)")
	workers := fs.Int("serve-workers", 0, "server: worker pool size (0 = default)")
	queueDepth := fs.Int("queue-depth", 0, "server: global job queue bound beyond the worker pool")
	tenantInflight := fs.Int("tenant-inflight", 0, "server: per-tenant concurrent job limit")
	tenantQueue := fs.Int("tenant-queue", 0, "server: per-tenant admitted (queued+running) job limit")
	breakerN := fs.Int("breaker-threshold", 0, "server: consecutive trapped jobs that trip a tenant's breaker")
	breakerBackoff := fs.Duration("breaker-backoff", 0, "server: initial breaker open interval")
	retries := fs.Int("job-retries", -1, "server: retry budget for transiently-trapped jobs (-1 = default)")
	stepCap := fs.Uint64("step-budget-cap", 0, "server: per-job step budget cap (jobs may only tighten)")
	deadlineCap := fs.Duration("deadline-cap", 0, "server: per-job wall-clock cap")
	memSize := fs.Int("mem-size", 0, "server: machine memory bytes (0 = core default); each worker keeps one machine this size")

	// Client flags.
	addr := fs.String("addr", "127.0.0.1:8077", "client: daemon address")
	tenant := fs.String("tenant", "default", "client: tenant identity")
	kernel := fs.String("kernel", "", "client: kernel name to run (alternative to -image)")
	threads := fs.Int("threads", 1, "client: kernel thread count")
	scale := fs.Int("scale", 1, "client: kernel problem scale")
	imageFile := fs.String("image", "", "client: guest image file to run (alternative to -kernel)")
	variant := fs.String("variant", "", "client: DBT variant (default risotto)")
	stepBudget := fs.Uint64("step-budget", 0, "client: per-job step budget (0 = server cap)")
	deadlineMS := fs.Int64("deadline-ms", 0, "client: per-job deadline in ms (0 = server cap)")
	jobFault := fs.String("job-fault", "", "client: per-job fault spec list (name[@N],...)")
	jobFaultSeed := fs.Int64("job-fault-seed", 1, "client: per-job fault injector seed")

	cf := cliflags.Register(fs)
	cf.AddFaults(fs)
	cf.AddTierUp(fs)
	fs.Parse(os.Args[1:])

	switch {
	case *submit && *snapshot:
		fmt.Fprintln(os.Stderr, "risottod: -submit and -snapshot are exclusive")
		os.Exit(2)
	case *submit:
		os.Exit(clientSubmit(*addr, serve.JobRequest{
			Tenant:     *tenant,
			Kernel:     *kernel,
			Threads:    *threads,
			Scale:      *scale,
			Variant:    *variant,
			StepBudget: *stepBudget,
			DeadlineMS: *deadlineMS,
			Fault:      *jobFault,
			FaultSeed:  *jobFaultSeed,
		}, *imageFile))
	case *snapshot:
		os.Exit(clientSnapshot(*addr))
	}

	os.Exit(runServer(serverConfig{
		listen: *listen, addrFile: *addrFile, cachePath: *cachePath,
		cf: cf,
		serve: serve.Config{
			Workers:           *workers,
			QueueDepth:        *queueDepth,
			TenantMaxInflight: *tenantInflight,
			TenantQueueDepth:  *tenantQueue,
			BreakerThreshold:  *breakerN,
			BreakerBackoff:    *breakerBackoff,
			MaxRetries:        *retries,
			StepBudgetCap:     *stepCap,
			DeadlineCap:       *deadlineCap,
			MemSize:           *memSize,
			Seed:              cf.FaultSeed,
			TierUp:            cf.TierUp,
		},
	}))
}

type serverConfig struct {
	listen    string
	addrFile  string
	cachePath string
	cf        *cliflags.Set
	serve     serve.Config
}

func runServer(sc serverConfig) int {
	root := obs.NewScope("")
	sc.serve.Obs = root

	// The server-level injector arms daemon sites — in particular
	// cache-corrupt, which sabotages persistent-cache appends so the
	// verify-on-load path can be exercised end to end.
	inj, err := sc.cf.Injector()
	if err != nil {
		fmt.Fprintln(os.Stderr, "risottod:", err)
		return 2
	}

	if sc.cachePath != "" {
		cache, err := transcache.Open(sc.cachePath, transcache.Options{
			Obs:      root,
			Injector: inj,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "risottod: opening cache:", err)
			return 1
		}
		sc.serve.Cache = cache
		st := cache.Stats()
		fmt.Fprintf(os.Stderr, "risottod: cache %s: %d entries loaded, %d corrupt skipped\n",
			sc.cachePath, st.Loaded, st.CorruptSkipped)
	}

	srv := serve.New(sc.serve)
	ln, err := net.Listen("tcp", sc.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "risottod:", err)
		return 1
	}
	if sc.addrFile != "" {
		if err := os.WriteFile(sc.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "risottod:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "risottod: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "risottod: %s: draining\n", got)
	case err := <-done:
		fmt.Fprintln(os.Stderr, "risottod: serve:", err)
		return 1
	}

	// Graceful drain: stop admitting (Drain flips the flag before
	// waiting), finish in-flight jobs, flush and close the cache
	// journal, then stop the listener.
	if err := srv.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "risottod: drain:", err)
		return 1
	}
	ctxErr := hs.Close()
	if ctxErr != nil {
		fmt.Fprintln(os.Stderr, "risottod: close:", ctxErr)
		return 1
	}
	if err := sc.cf.Finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "risottod:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "risottod: drained cleanly")
	return 0
}

func clientSubmit(addr string, req serve.JobRequest, imageFile string) int {
	if imageFile != "" {
		raw, err := os.ReadFile(imageFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "risottod:", err)
			return 1
		}
		req.Image = raw
		req.Kernel = ""
	}
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "risottod:", err)
		return 1
	}
	hc := &http.Client{Timeout: 60 * time.Second}
	resp, err := hc.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "risottod:", err)
		return 1
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "risottod:", err)
		return 1
	}
	os.Stdout.Write(raw)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "risottod: HTTP %d\n", resp.StatusCode)
		return 1
	}
	var jr serve.JobResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		fmt.Fprintln(os.Stderr, "risottod:", err)
		return 1
	}
	switch jr.Status {
	case serve.StatusOK:
		return 0
	case serve.StatusTrap:
		fmt.Fprintf(os.Stderr, "risottod: job trapped: %s\n", jr.Trap.Kind)
		return cliflags.TrapExitCode
	default:
		fmt.Fprintf(os.Stderr, "risottod: job error: %s\n", jr.Error)
		return 1
	}
}

func clientSnapshot(addr string) int {
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get("http://" + addr + "/metrics.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "risottod:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "risottod: HTTP %d\n", resp.StatusCode)
		return 1
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		fmt.Fprintln(os.Stderr, "risottod:", err)
		return 1
	}
	return 0
}

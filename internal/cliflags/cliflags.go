// Package cliflags registers the flags shared by the risotto, risottod,
// litmusctl and risobench commands — one spelling, one default, one help
// string per flag — and turns the parsed values into the objects the
// commands need: a fault injector from -fault, a root
// observability scope whose snapshot -metrics dumps, and the -trace JSONL
// writer. Register installs the flags every command reads (-metrics,
// -trace); the Add* methods install the ones only some commands read
// (-fault, -workers, -listen, the -tierup family), so no
// command accepts a flag it ignores.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"

	"repro/internal/faults"
	"repro/internal/litmus"
	"repro/internal/obs"
	"repro/internal/selfheal"
)

// TrapExitCode is the process exit code every command uses for a run that
// halted with a structured trap — distinct from usage errors (2) and
// internal errors (1), so scripted callers can tell a trapped guest from a
// broken tool.
const TrapExitCode = 3

// TrapReport renders the unified one-line trap report for err when it
// carries a structured faults.Trap ("<tool>: trap[kind] ...") and reports
// whether it did. Commands print the line to stderr and exit with
// TrapExitCode; non-trap errors take their usual path.
func TrapReport(tool string, err error) (string, bool) {
	tr, ok := faults.As(err)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s: %s", tool, tr.Error()), true
}

// Set holds the parsed values of the shared flags. Zero value is unusable;
// build one with Register.
type Set struct {
	// Workers sizes the campaign worker pool (0 = one per CPU); only
	// registered by AddWorkers.
	Workers int
	// Fault is the comma-separated fault spec list (name[@N]); only
	// registered by AddFaults.
	Fault string
	// Metrics selects a snapshot dump format ("" = no dump).
	Metrics string
	// Trace names a JSONL file for the span ring buffer ("" = no trace).
	Trace string
	// Listen is the -listen address ("" = no HTTP endpoint); only
	// registered by AddListen.
	Listen string
	// TierUp holds the -tierup flag family, ready for core.WithTierUp;
	// only registered by AddTierUp.
	TierUp selfheal.TierUp

	scopeOnce sync.Once
	scope     *obs.Scope

	hookMu     sync.Mutex
	flushHooks []func()
}

// Register installs the shared flags on fs and returns the Set their
// parsed values land in. Call before fs.Parse.
func Register(fs *flag.FlagSet) *Set {
	s := &Set{}
	fs.StringVar(&s.Metrics, "metrics", "",
		"dump the metrics snapshot after the run: json | prom | text")
	fs.StringVar(&s.Trace, "trace", "",
		"write the structured trace spans to FILE as JSON lines")
	return s
}

// AddFaults installs the -fault flag (risotto, risottod and litmusctl,
// the commands that arm a fault injector).
func (s *Set) AddFaults(fs *flag.FlagSet) {
	fs.StringVar(&s.Fault, "fault", "",
		"inject deterministic faults: comma list of name[@N]\n(names: "+
			strings.Join(faults.SpecNames(), ", ")+")")
}

// AddWorkers installs the -workers flag (litmusctl, the command that runs
// campaign worker pools).
func (s *Set) AddWorkers(fs *flag.FlagSet) {
	fs.IntVar(&s.Workers, "workers", 0,
		"campaign workers (0 = one per CPU)")
}

// AddListen installs the -listen flag (risotto only): an address for the
// live /metrics and /debug/obs HTTP endpoints.
func (s *Set) AddListen(fs *flag.FlagSet) {
	fs.StringVar(&s.Listen, "listen", "",
		"serve /metrics (Prometheus) and /debug/obs (JSON) on this address")
}

// AddTierUp installs the tier-up JIT flags shared by risotto, risottod
// and risobench, bound straight into s.TierUp.
func (s *Set) AddTierUp(fs *flag.FlagSet) {
	fs.BoolVar(&s.TierUp.Enabled, "tierup", false,
		"tier-up JIT: new blocks start unoptimized; hot blocks are promoted\nto optimized superblocks by the dispatch that finds them hot")
	fs.IntVar(&s.TierUp.PromoteThreshold, "promote-threshold", 0,
		"dispatches that make a block hot enough to promote (0 = default 8)")
	fs.IntVar(&s.TierUp.SuperblockMax, "superblock-max", 0,
		"max guest blocks stitched into one promoted superblock (0 = default 4)")
}

// WorkerCount resolves -workers to a concrete pool size: 0 or negative
// means one worker per CPU. The campaign runner sizes its pool with it.
func (s *Set) WorkerCount() int {
	if s.Workers <= 0 {
		return runtime.NumCPU()
	}
	return s.Workers
}

// Check validates flag values that can fail before any work starts.
func (s *Set) Check() error {
	if s.Metrics != "" && !obs.ValidFormat(s.Metrics) {
		return fmt.Errorf("-metrics %q: want json, prom or text", s.Metrics)
	}
	return nil
}

// Injector arms a fault injector from the -fault spec list; a nil injector
// (no specs) disables injection entirely.
func (s *Set) Injector() (*faults.Injector, error) {
	return faults.ParseInjector(s.Fault)
}

// Scope returns the process-root observability scope, creating it on first
// use. All of a command's metrics and spans hang off this scope, so the
// -metrics dump and the -listen endpoints see everything.
func (s *Set) Scope() *obs.Scope {
	s.scopeOnce.Do(func() { s.scope = obs.NewScope("") })
	return s.scope
}

// LitmusOptions assembles the enumeration options the flags describe: the
// process-wide outcome cache, the root scope, and the injector when -fault
// armed one. extra options append after (last wins).
func (s *Set) LitmusOptions(extra ...litmus.Option) ([]litmus.Option, error) {
	in, err := s.Injector()
	if err != nil {
		return nil, err
	}
	opts := []litmus.Option{
		litmus.WithCache(litmus.DefaultCache),
		litmus.WithObs(s.Scope()),
	}
	if in != nil {
		opts = append(opts, litmus.WithInjector(in))
	}
	return append(opts, extra...), nil
}

// Serve starts the -listen HTTP endpoint when one was requested, returning
// the bound address ("" when -listen is unset). The server runs until the
// process exits.
func (s *Set) Serve() (string, error) {
	if s.Listen == "" {
		return "", nil
	}
	ln, err := net.Listen("tcp", s.Listen)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: obs.Handler(s.Scope())}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "obs listener:", err)
		}
	}()
	return ln.Addr().String(), nil
}

// AddFlushHook registers fn to run (in registration order) when an
// interrupt arrives after InterruptFlush was installed. Commands use it
// to surface partial progress — a campaign's counts so far, a pointer to
// the resumable results file — that would otherwise die with the process.
func (s *Set) AddFlushHook(fn func()) {
	s.hookMu.Lock()
	s.flushHooks = append(s.flushHooks, fn)
	s.hookMu.Unlock()
}

// InterruptFlush installs a SIGINT/SIGTERM handler that runs the
// registered flush hooks, then performs the -metrics/-trace outputs
// (Finish), then exits with the conventional 128+signal code (130 for
// SIGINT, 143 for SIGTERM). Without it an interrupt drops the partial
// snapshot a long run has accumulated; with it ^C behaves like a
// truncated-but-reported run. Call once, after flag parsing.
func (s *Set) InterruptFlush() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "interrupted (%s): flushing partial results\n", sig)
		s.hookMu.Lock()
		hooks := append([]func(){}, s.flushHooks...)
		s.hookMu.Unlock()
		for _, fn := range hooks {
			fn()
		}
		if err := s.Finish(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "flush:", err)
		}
		code := 130
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
}

// Finish performs the post-run outputs: the -metrics dump to w and the
// -trace JSONL file. Safe to call when neither flag was set.
func (s *Set) Finish(w io.Writer) error {
	if s.Metrics != "" {
		if err := obs.Dump(w, s.Scope().Snapshot(), s.Metrics); err != nil {
			return err
		}
	}
	if s.Trace != "" {
		f, err := os.Create(s.Trace)
		if err != nil {
			return err
		}
		if err := s.Scope().Tracer().WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

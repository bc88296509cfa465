package cliflags

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

func parse(t *testing.T, args ...string) *Set {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Register(fs)
	s.AddFaults(fs)
	s.AddWorkers(fs)
	s.AddListen(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return s
}

func TestDefaults(t *testing.T) {
	s := parse(t)
	if s.Workers != 0 || s.Fault != "" || s.Metrics != "" || s.Trace != "" {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check on defaults: %v", err)
	}
	in, err := s.Injector()
	if err != nil || in != nil {
		t.Fatalf("Injector on defaults = %v, %v; want nil, nil", in, err)
	}
}

// TestRegisterInstallsOnlyCommonFlags: flags some commands ignore come
// from the Add* methods, never from Register.
func TestRegisterInstallsOnlyCommonFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, ","); got != "metrics,trace" {
		t.Fatalf("Register installed %s, want metrics,trace", got)
	}
}

func TestCheckRejectsBadFormat(t *testing.T) {
	s := parse(t, "-metrics", "xml")
	if err := s.Check(); err == nil {
		t.Fatal("Check accepted -metrics xml")
	}
	for _, f := range []string{"json", "prom", "text"} {
		if err := parse(t, "-metrics", f).Check(); err != nil {
			t.Fatalf("Check rejected -metrics %s: %v", f, err)
		}
	}
}

func TestInjectorFromSpec(t *testing.T) {
	s := parse(t, "-fault", faults.SpecNames()[0])
	in, err := s.Injector()
	if err != nil {
		t.Fatalf("Injector: %v", err)
	}
	if in == nil {
		t.Fatal("Injector returned nil for an armed spec")
	}
	if _, err := parse(t, "-fault", "no-such-fault").Injector(); err == nil {
		t.Fatal("Injector accepted an unknown spec")
	}
}

func TestLitmusOptions(t *testing.T) {
	s := parse(t, "-workers", "3")
	opts, err := s.LitmusOptions()
	if err != nil {
		t.Fatalf("LitmusOptions: %v", err)
	}
	if len(opts) != 3 {
		t.Fatalf("got %d options, want 3 (workers, cache, obs)", len(opts))
	}
	s = parse(t, "-fault", faults.SpecNames()[0])
	if opts, err = s.LitmusOptions(); err != nil || len(opts) != 4 {
		t.Fatalf("with -fault: %d options, err %v; want 4, nil", len(opts), err)
	}
}

func TestFinishDumpsValidJSONAndTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	s := parse(t, "-metrics", "json", "-trace", tracePath)
	s.Scope().Counter("demo.hits").Add(3)
	s.Scope().Event("demo.phase", "x", -1, 0, 0)

	var buf bytes.Buffer
	if err := s.Finish(&buf); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := obs.ValidateSnapshotJSON(buf.Bytes()); err != nil {
		t.Fatalf("-metrics json output invalid: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if !strings.Contains(string(data), `"demo.phase"`) {
		t.Fatalf("trace file lacks the recorded span:\n%s", data)
	}
}

func TestServe(t *testing.T) {
	s := parse(t, "-listen", "127.0.0.1:0")
	addr, err := s.Serve()
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if addr == "" {
		t.Fatal("Serve returned empty address for -listen")
	}
	s.Scope().Counter("demo.served").Inc()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}

	if addr, err := parse(t).Serve(); err != nil || addr != "" {
		t.Fatalf("Serve without -listen = %q, %v; want empty, nil", addr, err)
	}
}

// TestTrapReport pins the unified trap-exit contract both CLIs share: a
// structured trap renders as one "<tool>: trap[...]" line bound for exit
// code TrapExitCode; anything else is not a trap report.
func TestTrapReport(t *testing.T) {
	tr := faults.New(faults.TrapDecode, "bad opcode").WithCPU(0).WithGuestPC(0x10040)
	line, ok := TrapReport("risotto", tr)
	if !ok {
		t.Fatal("structured trap not recognized")
	}
	if !strings.HasPrefix(line, "risotto: trap[decode]") {
		t.Errorf("report = %q, want risotto: trap[decode] prefix", line)
	}
	if line2, _ := TrapReport("litmusctl", tr); !strings.HasPrefix(line2, "litmusctl: ") {
		t.Errorf("tool name not propagated: %q", line2)
	}
	if _, ok := TrapReport("risotto", os.ErrNotExist); ok {
		t.Error("plain error reported as a trap")
	}
	if _, ok := TrapReport("risotto", nil); ok {
		t.Error("nil error reported as a trap")
	}
	if TrapExitCode != 3 {
		t.Errorf("TrapExitCode = %d; scripted callers pin 3", TrapExitCode)
	}
}

package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/selfheal"
)

// buildCLI compiles a command of this module into dir and returns the
// binary path. `go run` does not propagate the child's exit code, and the
// trap-exit contract is exactly about exit codes, so subprocess tests need
// a real binary.
func buildCLI(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestTrapExitCodeAndReportLine pins the scripted-caller contract for both
// CLIs: an unrecovered trap exits with code 3 and stderr carries exactly
// one "<tool>: trap[kind] ..." report line.
func TestTrapExitCodeAndReportLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	dir := t.TempDir()
	cases := []struct {
		tool   string
		pkg    string
		args   []string
		prefix string
	}{
		{
			tool:   "risotto",
			pkg:    "repro/cmd/risotto",
			args:   []string{"-kernel", "histogram", "-threads", "2", "-fault", "decode@3"},
			prefix: "risotto: trap[decode]",
		},
		{
			tool:   "litmusctl",
			pkg:    "repro/cmd/litmusctl",
			args:   []string{"-workers", "1", "-fault", "shard-panic", "corpus"},
			prefix: "litmusctl: trap[worker-panic]",
		},
	}
	for _, tc := range cases {
		bin := buildCLI(t, dir, tc.pkg)
		var stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: err = %v, want non-zero exit", tc.tool, err)
		}
		if code := ee.ExitCode(); code != 3 {
			t.Errorf("%s: exit code = %d, want 3\nstderr:\n%s", tc.tool, code, stderr.String())
		}
		var reports []string
		for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
			if strings.Contains(line, "trap[") {
				reports = append(reports, line)
			}
		}
		if len(reports) != 1 || !strings.HasPrefix(reports[0], tc.prefix) {
			t.Errorf("%s: trap report lines = %q, want one line with prefix %q",
				tc.tool, reports, tc.prefix)
		}
	}
}

// TestReplayCLIRoundTrip drives the crash-triage loop through the real
// binary: a trapped run writes a bundle, -replay reproduces it with exit 0,
// and the re-bundle is byte-identical.
func TestReplayCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir, "repro/cmd/risotto")
	bundle := filepath.Join(dir, "crash.json")
	rebundle := filepath.Join(dir, "crash2.json")

	crash := exec.Command(bin, "-kernel", "histogram", "-threads", "2",
		"-fault", "decode@3", "-bundle", bundle)
	var stderr bytes.Buffer
	crash.Stderr = &stderr
	err := crash.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("crash run: err = %v, want exit 3\nstderr:\n%s", err, stderr.String())
	}
	orig, err := os.ReadFile(bundle)
	if err != nil {
		t.Fatalf("no crash bundle written: %v", err)
	}

	replay := exec.Command(bin, "-replay", bundle, "-bundle", rebundle)
	out, err := replay.CombinedOutput()
	if err != nil {
		t.Fatalf("replay did not reproduce the trap: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "reproduced") {
		t.Errorf("replay output lacks reproduction notice:\n%s", out)
	}
	again, err := os.ReadFile(rebundle)
	if err != nil {
		t.Fatalf("replay wrote no re-bundle: %v", err)
	}
	if !bytes.Equal(orig, again) {
		t.Errorf("re-bundle differs from original (%d vs %d bytes)", len(orig), len(again))
	}
}

// TestReplayDivergesOnSteps: a bundle whose trap differs from the re-run's
// only in its step count is not reproduced. A watchdog trap bundle is
// replayed as written (exit 0) and with its steps moved by one (exit 1,
// "replay diverged"): a run that traps at the recorded CPU and PC after
// other steps took another schedule.
func TestReplayDivergesOnSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir, "repro/cmd/risotto")
	bundle := filepath.Join(dir, "budget.json")
	crash := exec.Command(bin, "-kernel", "histogram", "-threads", "2", "-step-budget", "10000", "-bundle", bundle)
	if err := crash.Run(); err == nil {
		t.Fatal("the step-budget run did not trap")
	}
	data, err := os.ReadFile(bundle)
	if err != nil {
		t.Fatalf("no crash bundle written: %v", err)
	}
	if out, err := exec.Command(bin, "-replay", bundle).CombinedOutput(); err != nil {
		t.Fatalf("the bundle as written did not replay: %v\n%s", err, out)
	}
	b, err := selfheal.DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Trap.Steps == 0 {
		t.Fatalf("the watchdog trap recorded no steps: %+v", b.Trap)
	}
	b.Trap.Steps++
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	perturbed := filepath.Join(dir, "perturbed.json")
	if err := os.WriteFile(perturbed, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	replay := exec.Command(bin, "-replay", perturbed)
	replay.Stderr = &stderr
	err = replay.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("replay of the perturbed bundle: err = %v, want exit 1", err)
	}
	if !strings.Contains(stderr.String(), "replay diverged") {
		t.Errorf("replay of the perturbed bundle did not report divergence:\n%s", stderr.String())
	}
}

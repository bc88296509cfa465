package explore

// Replay traces and resumable soak files, both in the repository's JSONL
// journal discipline (internal/journal): a header line pinning format and
// provenance, one record per line, flush-per-record writes. Soak files are
// journal run files, resumed through journal.OpenRun like campaign results.
//
// A trace is a complete account of one run's nondeterminism: the header
// names the test and mode, each decision line is one machine.Transition,
// and the final line carries the rendered outcome and verdict. Replay
// re-executes the decisions against a fresh machine, re-renders, and
// re-encodes — byte identity of the two files is the reproducibility check
// the CLI and the CI smoke stage assert.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/journal"
	"repro/internal/litmus"
	"repro/internal/machine"
	"repro/internal/opcheck"
)

// TraceFormatV1 is the replay-trace format tag.
const TraceFormatV1 = "risotto-explore-trace/v1"

// TraceHeader is a trace's first line.
type TraceHeader struct {
	Format string `json:"format"`
	Test   string `json:"test"`
	Mode   string `json:"mode"`
}

// Trace verdicts.
const (
	VerdictAllowed   = "allowed"   // run completed, outcome axiomatically admitted
	VerdictViolation = "violation" // forbidden outcome or a mid-run trap
	VerdictPartial   = "partial"   // budget cut the run before completion
)

// TraceFinal is a trace's last line: what the decisions led to.
type TraceFinal struct {
	Outcome string `json:"outcome"`
	Verdict string `json:"verdict"`
	Steps   int    `json:"steps"`
}

// Trace is one decoded replay trace.
type Trace struct {
	Header    TraceHeader
	Decisions []machine.Transition
	Final     TraceFinal
}

// EncodeTrace renders a trace to its canonical bytes.
func EncodeTrace(tr Trace) ([]byte, error) {
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	if err := w.Encode(tr.Header); err != nil {
		return nil, err
	}
	for _, d := range tr.Decisions {
		if err := w.Encode(d); err != nil {
			return nil, err
		}
	}
	if err := w.Encode(tr.Final); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeTrace parses a trace stream. The final line is recognized by its
// verdict field; a trace without one (producer killed mid-write) is
// reported as such.
func DecodeTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sawHeader, sawFinal := false, false
	_, err := journal.Scan(r, func(line []byte) error {
		if !sawHeader {
			if err := json.Unmarshal(line, &tr.Header); err != nil {
				return fmt.Errorf("explore: bad trace header: %w", err)
			}
			if tr.Header.Format != TraceFormatV1 {
				return fmt.Errorf("explore: unknown trace format %q", tr.Header.Format)
			}
			sawHeader = true
			return nil
		}
		var probe struct {
			Verdict string `json:"verdict"`
			Op      string `json:"op"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return fmt.Errorf("explore: bad trace line: %w", err)
		}
		if probe.Verdict != "" {
			sawFinal = true
			return json.Unmarshal(line, &tr.Final)
		}
		var d machine.Transition
		if err := json.Unmarshal(line, &d); err != nil {
			return err
		}
		tr.Decisions = append(tr.Decisions, d)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("explore: trace has no header")
	}
	if !sawFinal {
		return nil, fmt.Errorf("explore: trace has no final line (torn write?)")
	}
	return tr, nil
}

// ViolationTrace assembles the encodable trace of one violation.
func (r *Result) ViolationTrace(v Violation) Trace {
	return Trace{
		Header:    TraceHeader{Format: TraceFormatV1, Test: r.Test, Mode: string(r.Mode)},
		Decisions: v.Trace,
		Final:     TraceFinal{Outcome: string(v.Outcome), Verdict: VerdictViolation, Steps: len(v.Trace)},
	}
}

// PartialAsTrace assembles the trace of the budget cut, if any.
func (r *Result) PartialAsTrace() (Trace, bool) {
	if !r.Partial {
		return Trace{}, false
	}
	return Trace{
		Header:    TraceHeader{Format: TraceFormatV1, Test: r.Test, Mode: string(r.Mode)},
		Decisions: r.PartialTrace,
		Final:     TraceFinal{Verdict: VerdictPartial, Steps: len(r.PartialTrace)},
	}, true
}

// FirstTrace returns the most useful trace of the run: the first
// violation's, else the partial cut's, else (complete, clean runs) none.
func (r *Result) FirstTrace() (Trace, bool) {
	if len(r.Violations) > 0 {
		return r.ViolationTrace(r.Violations[0]), true
	}
	return r.PartialAsTrace()
}

// Replay re-executes a trace's decisions against p and returns the
// re-recorded trace — Final recomputed from the machine, not copied — so
// byte-comparing EncodeTrace of both checks full reproducibility. The
// axiomatic reference (cfg.Model semantics) classifies the replayed
// outcome. Decisions that do not match an enabled transition mean the
// trace and program diverge, an error.
func Replay(p *litmus.Program, tr *Trace, cfg Config) (*Trace, error) {
	if tr.Header.Test != p.Name {
		return nil, fmt.Errorf("explore: trace is for test %q, replaying against %q", tr.Header.Test, p.Name)
	}
	mdl, err := cfg.model()
	if err != nil {
		return nil, err
	}
	allowed, err := litmus.Enumerate(p, mdl, litmus.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	c, err := opcheck.Compile(p)
	if err != nil {
		return nil, err
	}
	m, err := c.NewMachine()
	if err != nil {
		return nil, err
	}
	out := &Trace{Header: tr.Header}
	var ts []machine.Transition
	for i, d := range tr.Decisions {
		if ts = m.Enabled(ts[:0]); !slices.Contains(ts, d) {
			return nil, fmt.Errorf("explore: replay step %d: decision %v not enabled (trace diverged)", i, d)
		}
		out.Decisions = append(out.Decisions, d)
		if _, err := m.Apply(d); err != nil {
			// The recorded run trapped here; reproduce the verdict.
			out.Final = TraceFinal{Verdict: VerdictViolation, Steps: len(out.Decisions)}
			return out, nil
		}
	}
	out.Final.Steps = len(out.Decisions)
	if len(m.Enabled(ts[:0])) > 0 {
		out.Final.Verdict = VerdictPartial
		return out, nil
	}
	o, err := c.Outcome(m)
	if err != nil {
		return nil, err
	}
	out.Final.Outcome = string(o)
	if allowed[o] {
		out.Final.Verdict = VerdictAllowed
	} else {
		out.Final.Verdict = VerdictViolation
	}
	return out, nil
}

// --- Soak files ---------------------------------------------------------------

// SoakFormatV1 is the resumable soak-results format tag.
const SoakFormatV1 = "risotto-explore/v1"

// SoakHeader pins the producing configuration, campaign-style: the
// run-file header of internal/journal with ConfigHash = Config.Hash().
type SoakHeader = journal.Header

// SoakRecord is one test's exploration summary line.
type SoakRecord struct {
	Test       string  `json:"test"`
	Mode       string  `json:"mode"`
	Runs       int     `json:"runs"`
	States     int     `json:"states"`
	Pruned     int     `json:"pruned,omitempty"`
	Allowed    int     `json:"allowed"`
	Covered    int     `json:"covered"`
	Coverage   float64 `json:"coverage_pct"`
	Violations int     `json:"violations"`
	Partial    bool    `json:"partial,omitempty"`
	Detail     string  `json:"detail,omitempty"`
}

func recordOf(r *Result) SoakRecord {
	rec := SoakRecord{
		Test: r.Test, Mode: string(r.Mode),
		Runs: r.Runs, States: r.States, Pruned: r.Pruned,
		Allowed: r.Allowed, Covered: r.Covered, Coverage: r.Coverage(),
		Violations: len(r.Violations), Partial: r.Partial,
	}
	switch {
	case len(r.Violations) > 0:
		rec.Detail = r.Violations[0].Reason
	case r.Partial:
		rec.Detail = r.PartialReason
	}
	return rec
}

// Soak summarizes a RunFile sweep.
type Soak struct {
	Tests, Resumed, Violations, Partial int
	// Records are this run's newly written records.
	Records []SoakRecord
}

// RunFile explores every test under cfg with results journaled at path.
// With resume false the file is created fresh; with resume true the
// existing header is validated against cfg's hash, tests already recorded
// are skipped, and the torn tail (if the previous soak was killed
// mid-write) is truncated before appending — the crash-resume discipline
// of the campaign results files.
func RunFile(tests []*litmus.Program, cfg Config, path string, resume bool) (Soak, error) {
	var soak Soak
	out, recs, err := journal.OpenRun[SoakRecord](path, SoakHeader{Format: SoakFormatV1, ConfigHash: cfg.Hash()}, resume)
	if err != nil {
		return soak, fmt.Errorf("explore: %w", err)
	}
	defer out.Close()
	done := make(map[string]bool, len(recs))
	for _, r := range recs {
		done[r.Test] = true
	}

	w := journal.NewWriter(out)
	for _, p := range tests {
		if done[p.Name] {
			soak.Resumed++
			continue
		}
		res, err := Run(p, cfg)
		if err != nil {
			return soak, fmt.Errorf("explore: %s: %w", p.Name, err)
		}
		rec := recordOf(res)
		if err := w.Encode(rec); err != nil {
			return soak, err
		}
		soak.Tests++
		soak.Violations += rec.Violations
		if rec.Partial {
			soak.Partial++
		}
		soak.Records = append(soak.Records, rec)
	}
	return soak, nil
}

// ReadSoak parses a soak results stream (header then records), tolerating
// a torn final line.
func ReadSoak(r io.Reader) (SoakHeader, []SoakRecord, error) {
	return journal.ReadRun[SoakRecord](r, SoakFormatV1)
}

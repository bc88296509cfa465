package explore

// Replay traces, in the repository's JSONL journal discipline
// (internal/journal): a header line pinning format and provenance, one
// record per line.
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
// byte-comparing EncodeTrace of both checks full reproducibility. Op-ref,
// as in Run, classifies the replayed outcome. Decisions that do not match
// an enabled transition mean the trace and program diverge, an error.
func Replay(p *litmus.Program, tr *Trace) (*Trace, error) {
	if tr.Header.Test != p.Name {
		return nil, fmt.Errorf("explore: trace is for test %q, replaying against %q", tr.Header.Test, p.Name)
	}
	allowed, err := reference(p)
	if err != nil {
		return nil, err
	}
	c, err := opcheck.Compile(p)
	if err != nil {
		return nil, err
	}
	m := opcheck.BorrowMachine()
	defer opcheck.ReturnMachine(m)
	if err := c.Reset(m); err != nil {
		return nil, err
	}
	out := &Trace{Header: tr.Header}
	var ts []machine.Transition
	for i, d := range tr.Decisions {
		if ts = m.Enabled(ts[:0]); !slices.Contains(ts, d) {
			return nil, fmt.Errorf("explore: replay step %d: decision %v not enabled (trace diverged)", i, d)
		}
		out.Decisions = append(out.Decisions, d)
		if _, err := m.Apply(d, nil); err != nil {
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

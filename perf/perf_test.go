package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload at one short iteration, both passes, and
// checks the result against the metric tables.
func TestSmoke(t *testing.T) {
	p := params{seed: 1, seconds: 1, workdir: t.TempDir(), smoke: true}
	for _, def := range workloadDefs {
		for trace, run := range []func() (*report, error){
			func() (*report, error) { return runEndToEnd(def, p) },
			func() (*report, error) { return runTraced(def, p, "") },
		} {
			r, err := run()
			if err != nil {
				t.Fatalf("%s trace %d: %v", def.name, trace, err)
			}
			if !r.correct() || r.attempted < 1 {
				t.Errorf("%s trace %d: attempted %d, failed %d, determinism mismatches %d",
					def.name, trace, r.attempted, r.failed, r.mismatch)
			}
			// Through JSON and back, as the driver reads it.
			line, err := json.Marshal(r.output())
			if err != nil {
				t.Fatalf("%s trace %d: %v", def.name, trace, err)
			}
			var o output
			if err := json.Unmarshal(line, &o); err != nil {
				t.Fatal(err)
			}
			defs := [][]metricDef{endToEnd, perLayer}[trace]
			if len(o.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", def.name, trace, len(o.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := o.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s: got %+v (present %v), want unit %s", def.name, trace, d.Name, m, ok, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (trace == 0 && m.Value <= 0) {
					t.Errorf("%s trace %d: metric %s = %v", def.name, trace, d.Name, m.Value)
				}
			}
		}
	}
}

// TestColdProgramSeeded checks that the coldcode generator is a function of
// its seed alone.
func TestColdProgramSeeded(t *testing.T) {
	encode := func(seed int64) []byte {
		img, err := coldProgram(seed, 200).BuildGuest("main")
		if err != nil {
			t.Fatal(err)
		}
		return img.Encode()
	}
	if !bytes.Equal(encode(1), encode(1)) {
		t.Error("two generations from seed 1 differ")
	}
	if bytes.Equal(encode(1), encode(2)) {
		t.Error("seeds 1 and 2 generate the same program")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the root of the repository
// lists the workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d is %q (%q), want %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

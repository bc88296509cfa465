// Command perfbench is the repository's benchmark: one program that drives
// the DBT (core.New+Run), the daemon (serve) and the checker (campaign,
// explore) from outside, through their exported functions, and prints every
// metric by name and unit.
//
//	bash perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with no tracing; with
// --trace 1 it makes a separate pass that spans each call into a layer and
// reports the per-layer metrics. The last line of standard output is one JSON
// object; the exit code is non-zero if any output of the program under test
// was wrong. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// params are the inputs of one run.
type params struct {
	seed    int64
	seconds float64
	workdir string
	// smoke shrinks every workload to one short iteration (perf_test.go).
	smoke bool
}

// stopFn reports whether a loop that has completed done iterations should end.
type stopFn func(done int) bool

// until returns a stopFn that ends a loop share×seconds after now, and never
// before one iteration.
func (p params) until(share float64) stopFn {
	deadline := time.Now().Add(time.Duration(share * p.seconds * float64(time.Second)))
	return func(done int) bool {
		if done == 0 {
			return false
		}
		return p.smoke || !time.Now().Before(deadline)
	}
}

// window is one stretch of the timed loop: a DBT iteration, a campaign or
// explore round, or one deck of jobs of one serve client. The box's speed
// wanders over seconds, so a run is summarised window by window.
type window struct {
	// wallMS is how long the stretch took.
	wallMS float64
	// opMS is the wall-clock, in milliseconds, of each operation that
	// completed in the stretch.
	opMS []float64
	// units is the throughput work completed in it: guest runs, jobs,
	// verdicts or explored states.
	units float64
}

// sample is what one untraced timed loop measured.
type sample struct {
	windows []window
	// exactCost is the exact-class cost per operation: simulated cycles,
	// undecided checks or visited states (README.md says which where).
	exactCost float64
	// failed counts operations whose output was wrong, trapped, refused
	// or incomplete; mismatches counts exact-class numbers that differed
	// between two iterations of this loop.
	failed, mismatches int
}

// exactCheck counts exact-class numbers that differ from the first value
// seen under the same key.
type exactCheck struct {
	first      map[string][]uint64
	mismatches int
}

func (e *exactCheck) observe(key string, v ...uint64) {
	if e.first == nil {
		e.first = make(map[string][]uint64)
	}
	f, ok := e.first[key]
	if !ok {
		e.first[key] = v
		return
	}
	for i := range v {
		if v[i] != f[i] {
			e.mismatches++
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layers collects per-layer metric values by name.
type layers map[string]float64

// workload is one set of inputs and the code that drives the program under
// test with them.
type workload interface {
	// setup builds the inputs from the seed, warms caches and takes the
	// reference runs: everything before the timed loop.
	setup() error
	// loop runs operations back to back until stop says so, checking every
	// output, with no tracing.
	loop(stop stopFn) (*sample, error)
	// traced runs the per-layer pass: the same operations with a span
	// around each call into a layer, plus the replays that attribute time
	// to layers the operation hides.
	traced(tr *tracer, stop stopFn, lm layers) error
	// close releases what setup opened.
	close() error
}

type workloadDef struct {
	name, why string
	make      func(p params) workload
}

var workloadDefs = []workloadDef{
	{"hotloop", "execution-dominated: five paper guests loop over under 100 blocks for 7M simulated instructions, so host time is the machine interpreter plus core block dispatch and translation (0.2%) must not show",
		func(p params) workload { return newDBT(p, false) }},
	{"coldcode", "translation-dominated: one seeded straight-line guest of 8000 distinct blocks, each executed once, so host time is frontend+tcg+backend+core and the machine only decodes cold code",
		func(p params) workload { return newDBT(p, true) }},
	{"serve_mix", "closed loop of 2 clients against an in-process risottod engine with a warm translation cache: per-job cost is admission, JSON, core.New, cached-IR load, emit and a short execute",
		func(p params) workload { return newServeMix(p) }},
	{"campaign", "verdict pipeline: a generated litmus corpus through campaign.Check (rel kernels, enumeration, Theorem 1, opcheck) with almost no DBT code",
		func(p params) workload { return newCampaign(p) }},
	{"explore_dpor", "full sleep-set DPOR enumerations of SB, MP, LB and 2+2W: the machine in weak mode, one Step at a time, tens of thousands of short re-executions from fresh machines",
		func(p params) workload { return newExplore(p) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// quietQuantile is the percentile of the per-window figures a run reports:
// the 10th percentile of the windows' median operation times, the 90th of
// their throughputs. On the shared box the same guest run takes anything from
// 1x to 1.5x its quiet time, in stretches of seconds, and never less; so the
// quiet end of a run repeats from run to run where its middle does not. The
// 10th percentile, not the minimum, so that one odd window does not set the
// figure.
const quietQuantile = 10

// quiet is the quiet-end estimate of a repeated timing: see quietQuantile.
func quiet(ms []float64) float64 { return percentile(ms, quietQuantile) }

// ops is the number of operations the loop completed.
func (s *sample) ops() (n int) {
	for _, w := range s.windows {
		n += len(w.opMS)
	}
	return n
}

// perWindow returns each window's median operation time in milliseconds and
// its throughput in units per second.
func (s *sample) perWindow() (lat, thr []float64) {
	for _, w := range s.windows {
		if len(w.opMS) == 0 || w.wallMS <= 0 {
			continue
		}
		lat = append(lat, median(w.opMS))
		thr = append(thr, w.units/(w.wallMS/1e3))
	}
	return lat, thr
}

// report is the result of one run of one workload.
type report struct {
	workload  string
	attempted int
	// failed counts operations with a wrong output; mismatch counts
	// exact-class numbers that differed between iterations. Either makes
	// the run incorrect.
	failed   int
	mismatch int
	metrics  map[string]float64
	defs     []metricDef
	notes    []string
}

func (r *report) correct() bool { return r.failed == 0 && r.mismatch == 0 }

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 3

// runEndToEnd measures the end-to-end metrics of one workload, tracing off.
func runEndToEnd(def workloadDef, p params) (*report, error) {
	rounds := setupRounds
	if p.smoke {
		rounds = 1
	}
	var w workload
	var setups []float64
	for i := 0; i < rounds; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		w = def.make(p)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	s, err := w.loop(p.until(1))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)

	lat, thr := s.perWindow()
	r := &report{workload: def.name, attempted: s.ops(), failed: s.failed, mismatch: s.mismatches, defs: endToEnd}
	r.metrics = map[string]float64{
		"setup_s":         median(setups),
		"op_ms":           quiet(lat),
		"work_per_s":      percentile(thr, 100-quietQuantile),
		"alloc_mb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / float64(s.ops()) / 1e6,
		"exact_cost":      s.exactCost,
	}
	r.notes = append(r.notes, fmt.Sprintf("%d operations in %d windows over %.2f s; window medians of op time: best %.4f, median %.4f, worst %.4f ms; setup_s: median of %d",
		s.ops(), len(lat), wall, minOf(lat), median(lat), percentile(lat, 100), rounds))
	return r, nil
}

// calibrate times a fixed pure-Go loop, so that a slow or drifting box shows
// next to the numbers it distorts.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var calibSink uint64

// runTraced makes the per-layer pass of one workload: a short untraced loop
// for the tracing-overhead base, then the traced loop.
func runTraced(def workloadDef, p params, spansPath string) (*report, error) {
	lm := layers{}
	lm["harness.calib_ms"] = calibrate()
	w := def.make(p)
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", def.name, err)
	}
	defer w.close()

	base, err := w.loop(p.until(0.25))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	tr := newTracer()
	if err := w.traced(tr, p.until(0.75), lm); err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", def.name, err)
	}
	tracedOp := tr.perIter("op")
	var untraced []float64
	for _, w := range base.windows {
		untraced = append(untraced, w.opMS...)
	}
	if u := median(untraced); u > 0 && len(tracedOp) > 0 {
		lm["harness.trace_overhead_pct"] = (median(tracedOp) - u) / u * 100
	}
	lm["harness.op_best_ms"] = minOf(untraced)
	lm["harness.iterations"] = float64(len(tracedOp))
	lm["harness.failed"] += float64(base.failed)
	lm["harness.determinism_mismatches"] += float64(base.mismatches)
	lm["harness.calib_drift_pct"] = (calibrate() - lm["harness.calib_ms"]) / lm["harness.calib_ms"] * 100

	r := &report{workload: def.name, attempted: base.ops() + len(tracedOp), defs: perLayer, metrics: lm}
	r.failed = int(lm["harness.failed"])
	r.mismatch = int(lm["harness.determinism_mismatches"])
	r.notes = append(r.notes, fmt.Sprintf("%d traced operations, %d spans", len(tracedOp), len(tr.spans)))
	if spansPath != "" {
		if err := tr.writeJSONL(spansPath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func (r *report) output() output {
	o := output{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]outMetric{}}
	for _, d := range r.defs {
		o.Metrics[d.Name] = outMetric{Value: r.metrics[d.Name], Unit: d.Unit}
	}
	return o
}

// print writes the human-readable table and then the result line.
func (r *report) print() error {
	fmt.Printf("workload %s\n", r.workload)
	for _, d := range r.defs {
		if _, measured := r.metrics[d.Name]; !measured {
			continue // a layer this workload does not reach; 0 in the result line
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", d.Bound*100)
		}
		fmt.Printf("  %-36s %16.6g %-6s (%s is better)%s\n", d.Name, r.metrics[d.Name], d.Unit, d.Better, bound)
	}
	for _, n := range r.notes {
		fmt.Printf("  # %s\n", n)
	}
	if !r.correct() {
		fmt.Printf("  # INCORRECT: %d wrong outputs, %d determinism mismatches\n", r.failed, r.mismatch)
	}
	line, err := json.Marshal(r.output())
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// repeat runs every workload k times in a child process each, with seeds
// seed..seed+k-1, and prints the spread of every end-to-end metric against its
// bound, as the driver computes it.
func repeat(k int, p params) (ok bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok = true
	for _, def := range workloadDefs {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			cmd := exec.Command(self, "-workdir", p.workdir, "-workload", def.name,
				"-seed", fmt.Sprint(p.seed+int64(i)), "-seconds", fmt.Sprint(p.seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", def.name, p.seed+int64(i), err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var o output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
				return false, fmt.Errorf("%s: result line: %w", def.name, err)
			}
			if !o.Correct {
				ok = false
			}
			for name, m := range o.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("workload %s, %d runs\n", def.name, k)
		for _, d := range endToEnd {
			v := values[d.Name]
			spread := quartileSpread(v)
			verdict := "ok"
			if d.Name != "setup_s" && spread > d.Bound {
				verdict = "OVER BOUND"
				ok = false
			} else if spread > d.Bound/3 {
				verdict = "over a third of the bound"
			}
			fmt.Printf("  %-18s median %14.6g  min %14.6g  max %14.6g  spread %6.2f%%  bound %4.0f%%  %s\n",
				d.Name, median(v), minOf(v), percentile(v, 100), spread*100, d.Bound*100, verdict)
		}
	}
	return ok, nil
}

// benchGCPercent is the GOGC the benchmark runs under unless the environment
// sets one. campaign and explore_dpor keep a live heap of a few MB while
// allocating up to 1.2 GB an operation, so at the default 100 a collection
// starts every ~4 MB: 40 % of their time, and the part of it that wanders most
// with what else the box is doing (each cycle wakes workers on the other
// vCPU). At 400 they run 1.6x faster and repeat within 2 % where the default
// gives 4 %; the DBT workloads and serve_mix do not care. 1600 is slower again.
const benchGCPercent = 400

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets one
// run measure. It is long because the box's quiet stretches are seconds apart.
const runSeconds = 20

// describe prints BENCHMARK.json from the tables this program runs by.
func describe() error {
	type workloadRow struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricRow struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadRow `json:"workloads"`
		EndToEnd   []metricRow   `json:"end_to_end"`
		PerLayer   []metricRow   `json:"per_layer"`
	}{Command: []string{"bash", "perf/run.sh"}, Paths: []string{"perf"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, workloadRow{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, metricRow{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricRow{d.Name, d.Unit, d.Better, nil})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

func main() {
	var (
		p        params
		name     = flag.String("workload", "", "workload to run: hotloop, coldcode, serve_mix, campaign or explore_dpor")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		spans    = flag.String("spans", "", "with -trace 1, write the recorded spans to this file as JSONL")
		all      = flag.Bool("all", false, "run every workload, both passes")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json from the program's own tables")
		repeatK  = flag.Int("repeat", 0, "run every workload this many times and print each end-to-end metric's spread against its bound")
		exitCode = 0
	)
	flag.Int64Var(&p.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&p.seconds, "seconds", runSeconds, "how long one run measures, in seconds")
	flag.StringVar(&p.workdir, "workdir", ".bench_build", "directory for the files a run writes")
	flag.Parse()
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(benchGCPercent)
	}
	if err := os.MkdirAll(p.workdir, 0o755); err != nil {
		fatal(err)
	}

	run := func(def workloadDef, trace int) {
		var r *report
		var err error
		if trace == 0 {
			r, err = runEndToEnd(def, p)
		} else {
			r, err = runTraced(def, p, *spans)
		}
		if err != nil {
			fatal(err)
		}
		if err := r.print(); err != nil {
			fatal(err)
		}
		if !r.correct() {
			exitCode = 1
		}
	}

	switch {
	case *desc:
		if err := describe(); err != nil {
			fatal(err)
		}
	case *repeatK > 0:
		ok, err := repeat(*repeatK, p)
		if err != nil {
			fatal(err)
		}
		if !ok {
			exitCode = 1
		}
	case *all:
		for _, def := range workloadDefs {
			run(def, 0)
			run(def, 1)
		}
	default:
		def, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		if *trace != 0 && *trace != 1 {
			fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
			os.Exit(2)
		}
		run(def, *trace)
	}
	os.Exit(exitCode)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

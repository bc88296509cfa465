package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// perf_test.go checks that the file and these tables agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of the system waits for or pays. Every workload
// reports every one of them (the driver's contract), so each has one meaning
// per workload; README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"exact_cost", "count", "lower", 0.05},
}

// dbtGuests names the guests of the two DBT workloads; per-guest layer metrics
// carry the name as a suffix.
var dbtGuests = []string{"kmeans", "freqmine", "histogram", "casbench", "sha256", "coldgen"}

// perLayer lists the numbers of single layers (this repo's packages), taken
// in the traced pass. Counts are exact; times are informational.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	perGuest := func(unit, prefix string) {
		for _, g := range dbtGuests {
			add(unit, "lower", prefix+"."+g)
		}
	}

	add("ms", "lower", "frontend.decode_ms")
	add("ns", "lower", "frontend.ns_per_guest_byte")
	add("count", "lower", "frontend.blocks", "frontend.guest_bytes")
	add("ratio", "lower", "frontend.share")

	add("ms", "lower", "tcg.opt_ms")
	add("us", "lower", "tcg.opt_us_per_block")
	add("count", "lower", "tcg.ir_insts_in", "tcg.ir_insts_out", "tcg.fences_in", "tcg.fences_out")
	add("ratio", "lower", "tcg.share")

	add("ms", "lower", "backend.emit_ms")
	add("count", "lower", "backend.host_insts", "backend.dmb_full", "backend.dmb_ld", "backend.dmb_st")
	add("count", "higher", "backend.casal")
	add("ratio", "lower", "backend.share")

	add("ms", "lower", "core.new_ms", "core.run_ms", "core.run_ms_qemu", "core.self_ms", "core.remainder_ms")
	perGuest("ms", "core.run_ms")
	add("ratio", "lower", "core.self_share", "core.remainder_share")
	add("count", "lower", "core.blocks")
	add("count", "higher", "core.host_calls")
	add("ratio", "higher", "core.sim_speedup_vs_qemu")

	add("ns", "lower", "machine.ns_per_siminst")
	add("count", "lower", "machine.sim_insts")
	add("1/s", "higher", "machine.siminst_per_s")
	perGuest("cycles", "machine.sim_cycles")
	perGuest("cycles", "machine.sim_cycles_qemu")
	add("ms", "lower", "machine.new_ms")
	add("ratio", "lower", "machine.share")

	add("count", "higher", "hostlib.calls")

	add("count", "higher", "transcache.hits")
	add("count", "lower", "transcache.misses")
	add("ratio", "higher", "transcache.hit_rate")
	add("us", "lower", "transcache.load_us")
	add("ms", "lower", "transcache.cold_job_ms")

	add("ms", "lower", "serve.overhead_ms", "serve.job_p90_ms", "serve.job_p99_ms")
	add("count", "lower", "serve.shed", "serve.retries")

	add("ns", "lower", "rel.seq_ns", "rel.closure_ns", "rel.acyclic_ns")

	add("count", "higher", "litmusgen.tests")
	add("1/s", "higher", "litmusgen.tests_per_s")
	add("us", "lower", "litmus.enumerate_us")
	add("count", "lower", "litmus.outcomes")
	add("us", "lower", "mapping.theorem1_us")
	add("ms", "lower", "mapping.matrix_ms")
	add("us", "lower", "opcheck.sound_us")
	add("count", "lower", "opcheck.unsupported")
	add("us", "lower", "campaign.check_us_p50", "campaign.check_us_p99", "campaign.self_us")
	add("count", "lower", "campaign.skipped")

	add("count", "lower", "explore.states", "explore.runs")
	add("count", "higher", "explore.pruned")
	add("ratio", "higher", "explore.pruned_ratio")
	add("ns", "lower", "explore.ns_per_state")
	add("ms", "lower", "explore.reference_ms")
	add("%", "higher", "explore.coverage_pct")

	add("%", "lower", "harness.trace_overhead_pct", "harness.calib_drift_pct")
	add("ms", "lower", "harness.calib_ms", "harness.op_best_ms")
	add("count", "higher", "harness.iterations")
	add("count", "lower", "harness.failed", "harness.determinism_mismatches")
	return out
}

// median returns the middle value of v (mean of the two middle ones for an
// even count); 0 for an empty slice.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile of v by linear interpolation between
// closest ranks; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// quartileSpread is the distance between the first and third quartile of v as
// a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method) — the figure the
// driver holds against each metric's bound.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i*(n+1)) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

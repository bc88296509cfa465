// The benchmark is a module of its own so that it builds from its own
// build file; it reaches the packages under test through the replace
// directive (module path repro/perf sits inside repro's internal tree).
module repro/perf

go 1.22

require repro v0.0.0

replace repro => ../

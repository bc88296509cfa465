#!/usr/bin/env bash
# Tier-1 verification gate. Every PR must pass this script unchanged:
#
#   ./scripts/check.sh
#
# It runs gofmt, vet (once, over ./...), a full build, the full test suite,
# and the race detector over obs, litmus, mapping, memmodel, opcheck and
# explore — in internal/litmus only the outcome cache is concurrent (racing
# callers share one enumeration per key); the enumerator itself is serial,
# but memmodel's checker pools and opcheck's machine pool, which explore's
# runs borrow from too, are shared by every campaign worker — and over the
# two packages that
# start goroutines: campaign (its worker pipeline) and serve (admission
# queues, circuit breakers). The fault stages run every Fault test, among
# them core's fault sweep (each known-answer guest under every -fault name
# against testdata/fault_sweep.golden), plain and under the race detector.
# Every package under internal/ with non-test Go files must have a non-test
# importer in the module, perf/ or examples/: a package only its own tests
# use is code nothing runs. The weak machine keeps one driver: no Go file
# names SeededDrains, and apply's OpDrain is the one non-test m.drain( call.
# A joining CPU waits instead of retrying: no Go file names Yield(,
# errJoinBlocked or sched.yields, and Machine.Wait's only non-test callers
# are the two join handlers (machine/syscall.go, core/helpers.go). The
# machine has one interpreter loop: transition.go calls no m.step(, and
# every non-test m.step( call in internal/machine is inside advance. DPOR
# backtracks by rollback: dpor.go calls e.restart( once and Reset( never.
# The bench smoke runs each body of the rel, enumeration, Theorem-1,
# campaign, tier-up and explore benchmarks once, so they keep compiling and
# running; the perf smoke does the same for the benchmark module under
# perf/, which is the one place benchmark figures are recorded. The explore
# stages pin the operational exploration engine: DPOR must reach every
# allowed SB outcome, budget-exhausted DPOR and walk traces must replay
# byte-identically (IRIW's 20000-state DPOR budget runs out on a leaf, which
# must be recorded, not cut), and a 64-walk corpus run plus a ≥500-test
# generated campaign must find zero axiomatic-disallowed outcomes. The
# daemon smoke also submits a kernel too large for a job's memory, which
# must be refused with 422 before the daemon builds it. The litmusctl fault
# smoke requires an injected shard-panic to fail the enumeration with exit 3
# and one trap line (there is no fallback enumerator), and hands `litmusctl
# run` a test that reads a register nothing assigned and requires it to be
# refused by name. The risotto stage runs a scaled image, a 64-thread kernel
# and a saved 32-thread image, each larger than core's default machine, and
# requires qemu's checksum from each. The examples stage runs the five
# programs under examples/ and checks that weakhost and litmus still tell
# the broken mappings from the verified ones. The risobench smoke
# regenerates two figures and checks that their runs reach -metrics.
#
# The CLIs the smoke stages drive are built once into a scratch directory,
# and every stage reports its wall seconds, so the gate's own cost is in
# its output.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage NAME reports the previous stage's wall seconds and announces NAME.
stage() {
	[ -z "${STAGE:-}" ] || echo "    [$((SECONDS - STAGE_T0))s] $STAGE"
	STAGE=$1 STAGE_T0=$SECONDS
	[ -z "$1" ] || echo "==> $1"
}

stage "gofmt -l (no unformatted Go files; no build constraint but !race)"
unformatted=$(gofmt -l cmd internal examples perf ./*.go)
[ -z "$unformatted" ] || { echo "gofmt -l flags:" >&2; echo "$unformatted" >&2; exit 1; }
if grep -rn --include='*.go' '^//go:build' cmd internal examples | grep -v '//go:build !race$' >&2; then echo "build constraint other than !race: every package has one build" >&2; exit 1; fi

# install (internal/core/core.go) is the one way into the code cache:
# compiled blocks, interpreter stubs, promotions and post-flush re-emits
# share its placement loop, flush retry and bookkeeping. A second caller of
# flushCodeCache or a second insert into tbs is a second route.
stage "core install path: one rt.flushCodeCache() call, one rt.tbs[...] = insert (non-test internal/core)"
core_src=$(ls internal/core/*.go | grep -v '_test\.go$')
for pat in 'rt\.flushCodeCache()' 'rt\.tbs\[[^]]*\] *=[^=]'; do
	n=$(grep -ho "$pat" $core_src | wc -l)
	[ "$n" -eq 1 ] || { echo "internal/core has $n matches of $pat, want 1 (every translation goes through install):" >&2; grep -n "$pat" $core_src >&2; exit 1; }
done

# selfheal.TierUp is the one tier-up type: core.TierUpConfig aliases it,
# the -tierup flags bind into it, serve.Config and crash bundles hold it. A
# second struct declaring PromoteThreshold is a second copy that a command
# or a replay can fall out of step with.
stage "one tier-up type: one struct field declares PromoteThreshold (non-test Go)"
decl='^[[:space:]]+PromoteThreshold[[:space:]]+[a-z]'
n=$(grep -rhE --include='*.go' --exclude='*_test.go' "$decl" cmd internal examples | wc -l)
[ "$n" -eq 1 ] || { echo "$n struct fields declare PromoteThreshold, want 1 (selfheal.TierUp):" >&2; grep -rnE --include='*.go' --exclude='*_test.go' "$decl" cmd internal examples >&2; exit 1; }

# Only the machine writes guest memory. Image loads, code installs and
# patches, the interpreter tier and host functions go through
# (*machine.Machine).Write, and guest stores through WriteMem: the two keep
# exclusive monitors and the decode table coherent, so nothing else may
# assign into a Machine's Mem, copy into it or PutUint* into it, and nothing
# may invalidate decodes by hand. A package that does not depend on
# internal/machine cannot reach a Machine's Mem, so flat memories of its own
# (x86.Interp's, tcg.Flat) are not matched.
stage "only the machine writes guest memory: no write into .Mem outside internal/machine; nothing names InvalidateDecode"
mem_src=$( { go list -f '{{.Dir}} {{join .Deps " "}}' ./...; (cd perf && go list -f '{{.Dir}} {{join .Deps " "}}' .); } \
	| awk '$1 !~ /\/internal\/machine$/ && / repro\/internal\/machine( |$)/ {print $1}' \
	| while read -r d; do ls "$d"/*.go | grep -v '_test\.go$'; done)
memw='\.Mem\[[^]]*\] *([-+*/|&^]?=[^=]|\+\+|--)|copy\([^,]*\.Mem\b|PutUint(16|32|64)\([^,]*\.Mem\b'
if grep -nE "$memw" $mem_src >&2; then echo "a write into Mem outside internal/machine: use (*machine.Machine).Write" >&2; exit 1; fi
if grep -rn --include='*.go' 'InvalidateDecode' cmd internal examples perf >&2; then echo "decode invalidation by hand: the machine's writer does it" >&2; exit 1; fi

# The weak machine has one driver: its transition system (Enabled, Apply,
# Walk). Whole guests on the weak host are seeded walks, so no Go file names
# a drain policy beside it, and the one non-test code that retires a single
# buffered store is apply's OpDrain; barriers, atomics, halts and flushes
# retire a CPU's whole buffer through weakFlush.
stage "one driver for the weak machine: no Go file names SeededDrains; one non-test m.drain( call (apply's OpDrain)"
if grep -rn --include='*.go' 'SeededDrains' cmd internal examples perf ./*.go >&2; then echo "a drain policy beside the transition system: drive the weak machine through Walk or Apply" >&2; exit 1; fi
machine_src=$(ls internal/machine/*.go | grep -v '_test\.go$')
n=$(grep -ho 'm\.drain(' $machine_src | wc -l)
[ "$n" -eq 1 ] || { echo "internal/machine has $n non-test m.drain( calls, want 1 (apply's OpDrain):" >&2; grep -n 'm\.drain(' $machine_src >&2; exit 1; }

# A joining CPU waits; it does not retry. Machine.Wait parks it until the
# CPU it joins halts, Wait refuses a join cycle, and the machine undoes the
# SVC or BLR that waited, so nothing outside the machine rewinds a PC or
# refunds a cost. No Go file names the retry protocol (Yield, the core's
# errJoinBlocked sentinel, the sched.yields counter), and Machine.Wait —
# a .Wait call with arguments; sync.WaitGroup's Wait takes none — has two
# non-test callers, the join handlers: native SysJoin and the guest's.
stage "a join waits: no Go file names Yield(, errJoinBlocked or sched.yields; Machine.Wait's non-test callers are the two join handlers"
if grep -rnE --include='*.go' 'Yield\(|errJoinBlocked|sched\.yields' cmd internal examples perf ./*.go >&2; then echo "the join retry protocol is back: a blocked join parks through Machine.Wait" >&2; exit 1; fi
callers=$(grep -roE --include='*.go' --exclude='*_test.go' '\.Wait\([^)]' cmd internal examples perf ./*.go | cut -d: -f1 | sort | tr '\n' ' ')
[ "$callers" = "internal/core/helpers.go internal/machine/syscall.go " ] || { echo "Machine.Wait's non-test callers are '$callers', want one call each in internal/core/helpers.go and internal/machine/syscall.go (the join handlers):" >&2; grep -rnE --include='*.go' --exclude='*_test.go' '\.Wait\([^)]' cmd internal examples perf ./*.go >&2; exit 1; }

# The machine has one fetch/execute loop, advance, for both hosts: Run and
# RunAll execute through it, and so do the transition system's exec
# transitions, whose runs also stop after each instruction that may access
# memory. step, the per-instruction reference, is advance's alone to call
# (perInst, unaligned PCs): transition.go calls no m.step(, and every
# non-test m.step( call in internal/machine is inside advance.
stage "one interpreter loop: transition.go has no m.step(; every non-test m.step( call in internal/machine is inside advance"
if grep -n 'm\.step(' internal/machine/transition.go >&2; then echo "transition.go steps a CPU itself: exec transitions run through advance" >&2; exit 1; fi
outside=$(awk 'FNR == 1 { fn = "" } /^func / { fn = $0 } /m\.step\(/ && fn !~ /^func \(m \*Machine\) advance\(/ { print FILENAME ":" FNR ": " $0 }' $machine_src)
[ -z "$outside" ] || { echo "non-test m.step( calls outside advance (the one loop):" >&2; echo "$outside" >&2; exit 1; }

# A DPOR run resets its machine to the program's initial state once, and
# backtracks by rolling it back to the frame it resumes (machine.Save and
# Rollback): dpor.go calls restart, the explorer's one reset route, once
# (TestDPORResetsOnce requires one reset per Run) and calls no Reset(
# itself; nothing else in internal/explore calls restart.
stage "DPOR backtracks by rollback: dpor.go calls e.restart( once and no Reset(; no other explore file calls restart"
explore_src=$(ls internal/explore/*.go | grep -v '_test\.go$')
n=$(grep -o 'e\.restart(' internal/explore/dpor.go | wc -l)
[ "$n" -eq 1 ] || { echo "internal/explore/dpor.go has $n e.restart( calls, want 1 (one reset per Run):" >&2; grep -n 'e\.restart(' internal/explore/dpor.go >&2; exit 1; }
if grep -n 'Reset(' internal/explore/dpor.go >&2; then echo "dpor.go resets the machine itself: backtrack with machine.Rollback" >&2; exit 1; fi
if grep -n 'e\.restart(' $(echo "$explore_src" | grep -v 'dpor\.go$') >&2; then echo "a reset outside the DPOR search: restart is dpor.go's, once per Run" >&2; exit 1; fi

stage "every internal package has a non-test importer (module, perf/, examples/)"
imported=$( { go list -f '{{join .Imports "\n"}}' ./...; (cd perf && go list -f '{{join .Imports "\n"}}' ./...); } | sort -u)
unimported=$(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/... | grep -vxF "$imported" || true)
[ -z "$unimported" ] || { echo "internal packages no non-test code imports:" >&2; echo "$unimported" >&2; exit 1; }

stage "go vet ./..."
go vet ./...

stage "go build ./... and the smoke-stage binaries"
go build ./...
SH_TMP=$(mktemp -d)
trap 'rm -rf "$SH_TMP"' EXIT
for c in litmusctl risotto risottod risobench obsvalidate; do
	go build -o "$SH_TMP/$c" "./cmd/$c"
done
litmusctl=$SH_TMP/litmusctl risotto=$SH_TMP/risotto risottod=$SH_TMP/risottod
risobench=$SH_TMP/risobench obsvalidate=$SH_TMP/obsvalidate

stage "go test ./..."
go test ./...

# perf/ is a module of its own that imports internal/machine, core and
# portasm; tier-1 never compiles it, so an API slip would otherwise surface
# only when the benchmark runs.
stage "perf smoke: (cd perf && go vet . && go test .)"
(cd perf && go vet . && go test .)

stage "go test -race ./internal/obs/ ./internal/litmus/... ./internal/mapping/... ./internal/memmodel/ ./internal/opcheck/ ./internal/explore/"
go test -race ./internal/obs/ ./internal/litmus/... ./internal/mapping/... ./internal/memmodel/ ./internal/opcheck/ ./internal/explore/

stage "go test -race -count=1 ./internal/campaign/ ./internal/serve/"
go test -race -count=1 ./internal/campaign/ ./internal/serve/

stage "fault tests: go test ./... -run Fault -count=1"
go test ./... -run Fault -count=1

stage "fault tests (race): go test -race ./internal/core/ -run Fault -count=1"
go test -race ./internal/core/ -run Fault -count=1

stage "litmusctl fault smoke"
"$litmusctl" -workers 4 -fault cache-exhaust corpus >/dev/null
code=0
"$litmusctl" -fault shard-panic corpus >/dev/null 2>"$SH_TMP/shard-panic.err" || code=$?
[ "$code" -eq 3 ] || { echo "litmusctl -fault shard-panic corpus exited $code, want 3" >&2; exit 1; }
[ "$(grep -c '^litmusctl: trap\[worker-panic\]' "$SH_TMP/shard-panic.err")" -eq 1 ] \
	|| { echo "litmusctl -fault shard-panic corpus: want exactly one trap[worker-panic] line" >&2; cat "$SH_TMP/shard-panic.err" >&2; exit 1; }
# A read of a register nothing assigned (aa for a) leaves no execution to
# check the forbid line against; the test must be refused, not pass.
cat >"$SH_TMP/typo.lit" <<'LIT'
test MP+typo
model arm
thread 0
  store X 1
  store Y 1
thread 1
  load a Y
  if aa == 1
    load b X
  endif
forbid a@1=1 b@1=0
LIT
code=0
"$litmusctl" run "$SH_TMP/typo.lit" >/dev/null 2>"$SH_TMP/typo.err" || code=$?
[ "$code" -ne 0 ] || { echo "litmusctl run accepted a test that reads the unassigned register aa" >&2; exit 1; }
grep -q '"aa"' "$SH_TMP/typo.err" \
	|| { echo "litmusctl run did not name the unassigned register" >&2; cat "$SH_TMP/typo.err" >&2; exit 1; }

# risotto runs every guest on a 32 MiB machine (bench.MemSize), not core's
# 8 MiB default: a 16x image, 65 stacks and a saved 33-stack image need it.
# checksum fails the stage unless risotto exits 0 with a numeric checksum.
stage "risotto beyond the default machine: large runs exit 0 with qemu's checksum"
checksum() {
	local out sum
	out=$("$risotto" "$@") || { echo "risotto $*: exit $?" >&2; return 1; }
	sum=$(awk '/^checksum/{print $2}' <<<"$out")
	[[ $sum =~ ^[0-9]+$ ]] || { echo "risotto $*: no checksum" >&2; return 1; }
	echo "$sum"
}
for args in "-kernel vips -scale 16" "-kernel histogram -threads 64"; do
	got=$(checksum $args)
	want=$(checksum $args -variant qemu)
	[ "$got" = "$want" ] || { echo "risotto $args: checksum $got, qemu $want" >&2; exit 1; }
done
"$risotto" -kernel histogram -threads 32 -emit "$SH_TMP/h32.riso" >/dev/null
got=$(checksum -image "$SH_TMP/h32.riso")
want=$(checksum -kernel histogram -threads 32 -variant qemu)
[ "$got" = "$want" ] || { echo "risotto -image of histogram -threads 32: checksum $got, qemu $want" >&2; exit 1; }

stage "selfheal: workload suite under -selfcheck"
for k in histogram wordcount kmeans swaptions canneal; do
	"$risotto" -kernel "$k" -threads 2 -selfcheck >/dev/null
done

stage "selfheal: injected miscompile is detected and recovered"
"$risotto" -kernel histogram -threads 2 -fault miscompile -selfcheck \
	-metrics json | grep -Eq '"core\.selfheal\.quarantines": *[1-9]' \
	|| { echo "selfheal run recorded no quarantine" >&2; exit 1; }

stage "selfheal: crash bundle replays byte-identically"
code=0
"$risotto" -kernel histogram -threads 2 -fault decode@3 \
	-bundle "$SH_TMP/crash.json" 2>/dev/null || code=$?
[ "$code" -eq 3 ] || { echo "trapped run exited $code, want 3" >&2; exit 1; }
"$risotto" -replay "$SH_TMP/crash.json" -bundle "$SH_TMP/crash2.json" >/dev/null
cmp "$SH_TMP/crash.json" "$SH_TMP/crash2.json" \
	|| { echo "replay re-bundle differs from original" >&2; exit 1; }

stage "tierup smoke: hot-block promotion across the workload suite"
for k in histogram wordcount kmeans swaptions canneal; do
	"$risotto" -kernel "$k" -threads 2 -scale 2 -tierup -promote-threshold 4 \
		-metrics json | grep -Eq '"core\.selfheal\.promotions": *[1-9]' \
		|| { echo "tierup run of $k recorded no promotion" >&2; exit 1; }
done

stage "tierup smoke: superblocks recover cross-block fence merges on fencechain"
"$risotto" -kernel fencechain -threads 2 -scale 2 -tierup -promote-threshold 4 \
	-metrics json | grep -Eq '"tcg\.fence_merges_cross_block": *[1-9]' \
	|| { echo "fencechain superblocks merged no cross-block fences" >&2; exit 1; }

stage "tierup smoke: miscompile under promotion demotes and still computes the right result"
want=$("$risotto" -kernel kmeans -threads 2 -scale 2 | awk '/^checksum/{print $2}')
got=$("$risotto" -kernel kmeans -threads 2 -scale 2 -tierup -promote-threshold 4 \
	-fault miscompile -selfheal | awk '/^checksum/{print $2}')
[ "$got" = "$want" ] || { echo "faulted tierup checksum $got != $want" >&2; exit 1; }
"$risotto" -kernel kmeans -threads 2 -scale 2 -tierup -promote-threshold 4 \
	-fault miscompile -selfheal -metrics json >"$SH_TMP/tierup.json"
grep -Eq '"core\.selfheal\.promotions": *[1-9]' "$SH_TMP/tierup.json" \
	|| { echo "faulted tierup run recorded no promotion" >&2; exit 1; }
grep -Eq '"core\.selfheal\.quarantines": *[1-9]' "$SH_TMP/tierup.json" \
	|| { echo "faulted tierup run recorded no quarantine" >&2; exit 1; }

stage "tierup smoke: two runs count identically, and a faulted run's bundle replays byte-identically"
for i in 1 2; do
	"$risotto" -kernel kmeans -threads 2 -scale 2 -tierup -promote-threshold 4 -metrics json \
		| sed -n '/"counters": {/,/^  }/p' >"$SH_TMP/tierup-counters$i.json"
done
cmp "$SH_TMP/tierup-counters1.json" "$SH_TMP/tierup-counters2.json" \
	|| { echo "two tierup runs disagree on their counters" >&2; exit 1; }
code=0
"$risotto" -kernel kmeans -threads 2 -scale 2 -tierup -promote-threshold 4 -fault miscompile@14 \
	-bundle "$SH_TMP/tierup-crash.json" >/dev/null 2>&1 || code=$?
[ "$code" -eq 3 ] || { echo "faulted tierup run exited $code, want 3" >&2; exit 1; }
"$risotto" -replay "$SH_TMP/tierup-crash.json" -bundle "$SH_TMP/tierup-crash2.json" >/dev/null
cmp "$SH_TMP/tierup-crash.json" "$SH_TMP/tierup-crash2.json" \
	|| { echo "tierup replay re-bundle differs from original" >&2; exit 1; }

# core starts no goroutine and its block tables carry no locks (Runtime's
# single-owner rule). What is shared is the TransCache, between runtimes
# the tests drive from several goroutines; this stage is the check on that,
# and on nothing in core having grown a goroutine again. The machine's
# run-at-a-time interpreter runs here too, against the per-instruction one.
stage "core single-owner (race): go test -race ./internal/core/ ./internal/machine/ -run 'TierUp|Chain|TransCache|Selfheal|Install|GuestJoin|Reuse|RunsMatchInstructions' -count=1"
go test -race ./internal/core/ ./internal/machine/ -run 'TierUp|Chain|TransCache|Selfheal|Install|GuestJoin|Reuse|RunsMatchInstructions' -count=1

stage "metrics snapshot validates (risotto -metrics json | obsvalidate)"
"$risotto" -kernel histogram -threads 2 -metrics json | "$obsvalidate" >/dev/null

stage "campaign smoke: seeded generated-corpus campaign, all verdicts pass"
"$litmusctl" -workers 4 -metrics json campaign \
	-out "$SH_TMP/campaign.jsonl" -max-per-shape 6 -opcheck-seeds 2 \
	| "$obsvalidate" >/dev/null
grep -q '"format":"risotto-campaign/v1"' "$SH_TMP/campaign.jsonl" \
	|| { echo "campaign results file lacks the v1 header" >&2; exit 1; }

# An exploration runs on one machine reset in place before every re-execution;
# TestDPORAllocCeiling (internal/explore/alloc_test.go, in the go test ./...
# stage above) holds one DPOR run of SB under 64 MB, so a machine built per
# re-execution again (≈460 MB) fails the gate.
stage "explore smoke: DPOR reaches full SB coverage, DPOR and walk traces replay byte-identically"
"$litmusctl" explore -mode dpor SB >"$SH_TMP/explore-sb.txt"
grep -q "4/4 (100%)" "$SH_TMP/explore-sb.txt" \
	|| { echo "DPOR on SB missed allowed outcomes" >&2; cat "$SH_TMP/explore-sb.txt" >&2; exit 1; }
"$litmusctl" explore -mode dpor -max-states 64 -trace-out "$SH_TMP/sb.trace" SB >/dev/null
"$litmusctl" explore -mode replay -trace "$SH_TMP/sb.trace" | grep -q "byte-identical" \
	|| { echo "budget-exhausted trace did not replay byte-identically" >&2; exit 1; }
"$litmusctl" explore -mode dpor -max-states 20000 -trace-out "$SH_TMP/iriw.trace" IRIW >/dev/null
"$litmusctl" explore -mode replay -trace "$SH_TMP/iriw.trace" | grep -q "byte-identical" \
	|| { echo "IRIW's budget-exhausted DPOR trace did not replay byte-identically" >&2; exit 1; }
"$litmusctl" explore -seeds 1 -max-states 8 -trace-out "$SH_TMP/w.trace" MP >/dev/null 2>&1
"$litmusctl" explore -mode replay -trace "$SH_TMP/w.trace" | grep -q "byte-identical" \
	|| { echo "budget-cut walk trace did not replay byte-identically" >&2; exit 1; }

stage "explore soak: 64-walk corpus run + ≥500-test generated campaign, zero violations"
"$litmusctl" explore -seeds 64 >"$SH_TMP/soak.txt" \
	|| { echo "corpus walk failed" >&2; cat "$SH_TMP/soak.txt" >&2; exit 1; }
! grep -q FAIL "$SH_TMP/soak.txt" \
	|| { echo "corpus walk reported FAIL" >&2; cat "$SH_TMP/soak.txt" >&2; exit 1; }
"$litmusctl" -workers 4 campaign -out "$SH_TMP/explore-campaign.jsonl" \
	-max-per-shape 32 -opcheck-seeds 1 -explore-seeds 4 2>"$SH_TMP/explore-campaign.log" \
	|| { echo "explore campaign failed" >&2; cat "$SH_TMP/explore-campaign.log" >&2; exit 1; }
tests=$(grep -c '"explore":"pass"' "$SH_TMP/explore-campaign.jsonl" || true)
[ "${tests:-0}" -ge 500 ] || { echo "explore campaign passed the explore check on only ${tests:-0} tests, want ≥500" >&2; exit 1; }

stage "daemon smoke: risottod serve/submit/snapshot/drain cycle"
"$risottod" -listen 127.0.0.1:0 -addr-file "$SH_TMP/addr" \
	-cache "$SH_TMP/cache.jsonl" 2>"$SH_TMP/daemon.log" &
DAEMON=$!
for _ in $(seq 1 100); do [ -s "$SH_TMP/addr" ] && break; sleep 0.05; done
[ -s "$SH_TMP/addr" ] || { echo "risottod never wrote its address" >&2; exit 1; }
ADDR=$(cat "$SH_TMP/addr")
"$risottod" -submit -addr "$ADDR" -tenant smoke -kernel histogram -threads 2 >/dev/null \
	|| { echo "clean daemon job failed" >&2; exit 1; }
code=0
"$risottod" -submit -addr "$ADDR" -tenant smoke -kernel histogram \
	-step-budget 5000 >"$SH_TMP/trap.json" 2>/dev/null || code=$?
[ "$code" -eq 3 ] || { echo "step-budget daemon job exited $code, want 3" >&2; exit 1; }
grep -q '"bundle"' "$SH_TMP/trap.json" \
	|| { echo "trapped daemon job carries no crash bundle" >&2; exit 1; }
code=0 t0=$SECONDS
"$risottod" -submit -addr "$ADDR" -tenant smoke -kernel histogram -scale 100000 \
	>"$SH_TMP/big.json" 2>&1 || code=$?
[ "$code" -eq 1 ] && grep -q 'HTTP 422' "$SH_TMP/big.json" && grep -q 'does not fit' "$SH_TMP/big.json" \
	|| { echo "oversized daemon job was not refused with 422 (exit $code)" >&2; cat "$SH_TMP/big.json" >&2; exit 1; }
[ $((SECONDS - t0)) -le 5 ] || { echo "refusing the oversized daemon job took $((SECONDS - t0))s" >&2; exit 1; }
"$risottod" -snapshot -addr "$ADDR" | "$obsvalidate" >/dev/null \
	|| { echo "daemon metrics snapshot failed validation" >&2; exit 1; }
kill -TERM "$DAEMON"
code=0
wait "$DAEMON" || code=$?
[ "$code" -eq 0 ] || { echo "risottod drain exited $code (log follows)" >&2; cat "$SH_TMP/daemon.log" >&2; exit 1; }
grep -q "drained cleanly" "$SH_TMP/daemon.log" \
	|| { echo "risottod did not report a clean drain" >&2; exit 1; }

stage "matrix smoke: litmusctl matrix (verified routes pass, QEMU cells still fail)"
"$litmusctl" matrix >"$SH_TMP/matrix.txt" \
	|| { echo "litmusctl matrix exited non-zero (a verified route failed)" >&2; cat "$SH_TMP/matrix.txt" >&2; exit 1; }
grep -q "all verified routes pass" "$SH_TMP/matrix.txt" \
	|| { echo "matrix lost the verified-routes-pass line" >&2; exit 1; }
grep -q "x86→tcg/qemu + tcg→arm/qemu-casal *known-bad FAIL .*MPQ" "$SH_TMP/matrix.txt" \
	|| { echo "matrix no longer reproduces the §3.1 casal failure on MPQ" >&2; exit 1; }
grep -q "tcg→arm/qemu-lxsx *known-bad FAIL .*SBQ" "$SH_TMP/matrix.txt" \
	|| { echo "matrix no longer reproduces the §3.2 exclusive-pair failure on SBQ" >&2; exit 1; }

# The examples are the documented entry points and weakhost is the one
# place outside the tests where all four variants' emitted fences meet the
# weak machine; tier-1 only compiles them.
stage "examples: all five run; weakhost and litmus tell the broken mappings from the verified ones"
for e in quickstart fastcas hostlinker litmus weakhost; do
	go build -o "$SH_TMP/ex-$e" "./examples/$e"
	"$SH_TMP/ex-$e" >"$SH_TMP/ex-$e.txt" \
		|| { echo "examples/$e exited non-zero" >&2; cat "$SH_TMP/ex-$e.txt" >&2; exit 1; }
done
grep -Eq '^no-fences +[1-9][0-9]*/[0-9]+ +INCORRECT' "$SH_TMP/ex-weakhost.txt" \
	|| { echo "weakhost no longer catches the no-fences variant" >&2; cat "$SH_TMP/ex-weakhost.txt" >&2; exit 1; }
for v in qemu tcg-ver risotto; do
	grep -Eq "^$v +0/[0-9]+ +correct" "$SH_TMP/ex-weakhost.txt" \
		|| { echo "weakhost saw an x86-forbidden outcome under $v" >&2; cat "$SH_TMP/ex-weakhost.txt" >&2; exit 1; }
done
grep -q "QEMU-translated Arm allows a=1,X=1?  true" "$SH_TMP/ex-litmus.txt" \
	|| { echo "examples/litmus no longer reports the QEMU mapping erroneous on MPQ" >&2; exit 1; }
grep -q "Risotto-translated Arm allows a=1,X=1?  false" "$SH_TMP/ex-litmus.txt" \
	|| { echo "examples/litmus no longer reports the verified mapping correct on MPQ" >&2; exit 1; }
if grep -q "correct=false" "$SH_TMP/ex-litmus.txt"; then
	echo "examples/litmus: the verified mapping broke Theorem 1" >&2; cat "$SH_TMP/ex-litmus.txt" >&2; exit 1
fi

# risobench prints its tables to stdout ahead of the -metrics dump, so the
# dump is grepped rather than validated: a non-zero core.blocks shows the
# figure runs report into the command's root scope.
stage "risobench smoke: fig13 and fig15 tables; fig15's -metrics dump counts the figure runs"
"$risobench" fig13 -calls 64 | grep -q "^sqlite " \
	|| { echo "risobench fig13 printed no sqlite row" >&2; exit 1; }
"$risobench" fig15 -ops 50 -metrics json >"$SH_TMP/fig15.txt"
grep -q "^16-16 " "$SH_TMP/fig15.txt" \
	|| { echo "risobench fig15 printed no 16-16 row" >&2; cat "$SH_TMP/fig15.txt" >&2; exit 1; }
grep -Eq '"core\.blocks": [1-9]' "$SH_TMP/fig15.txt" \
	|| { echo "risobench fig15 -metrics json: core.blocks missing or zero" >&2; exit 1; }

stage "bench smoke: the rel, enumeration, Theorem-1, campaign, tier-up and explore benchmarks (-benchtime 1x)"
go test -run '^$' -bench 'BenchmarkRelOps' -benchtime 1x ./internal/rel/ >"$SH_TMP/bench.txt" \
	&& go test -run '^$' -bench '^BenchmarkEnumerate$|BenchmarkTheorem1|BenchmarkCampaignTest|BenchmarkTierUp|BenchmarkExplore' \
		-benchtime 1x . >>"$SH_TMP/bench.txt" \
	|| { echo "bench smoke failed" >&2; cat "$SH_TMP/bench.txt" >&2; exit 1; }

stage ""
echo "OK (${SECONDS}s)"

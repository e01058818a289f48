#!/bin/sh
# check.sh — the repo's verification gate, make-free by design.
#
# Runs, in order:
#   1. go vet ./...          static checks
#   2. go build ./...        everything compiles
#   3. go test -race ./internal/obs ./internal/serve
#                            the telemetry gate: the lock-free metric
#                            and trace paths plus the instrumented
#                            engine, raced first and uncached so a
#                            telemetry regression fails fast
#   4. observability gate    go test -race over the PR 5 stress suite
#                            (histogram exemplars, tail-sampled trace
#                            ring and event ring under concurrent
#                            scrapes) plus the jq-free schema gate: a Go
#                            test that drives a mixed workload through
#                            the engine and validates every emitted wide
#                            event against the documented closed schema
#   5. chaos gate            go test -race -tags faultinject over the
#                            serving stack, the failpoint registry and
#                            the partitioned cluster — the chaos suite
#                            arms every failpoint (slow evaluator,
#                            panicking measure, failing refresh, queue
#                            delay, partition down/slow/flap) and
#                            asserts the engine and the scatter-gather
#                            coordinator converge back to correct
#                            answers once faults clear
#   6. mitigation gate       go test -race over internal/mitigate (the
#                            Problem 3 golden tests, property tests and
#                            the FuzzMitigators seed corpus) plus the
#                            served-path goldens and the concurrent
#                            mitigate race stress in internal/serve
#   7. profiling gate        go test -race over the continuous profiler
#                            (a captured CPU profile must carry the
#                            request pprof labels), the runtime-metrics
#                            bridge and the open-loop load harness, plus
#                            a fairjob loadtest smoke: one short run must
#                            emit a JSON artifact joining CO-corrected
#                            latency with labeled CPU attribution, on the
#                            single engine and on a 4-partition cluster
#   8. go test -race ./...   full suite under the race detector — the
#                            evaluators' sharded worker pools and the
#                            serve engine's concurrent query paths must
#                            stay race-clean at any worker count
#   9. perfbench tests       the benchmark harness is its own module, so
#                            step 8 does not reach it
#  10. overhead gates        the telemetry, resilience, logging,
#                            profiling and scatter-gather on-vs-off
#                            benchmark pairs, each with the
#                            < 5% acceptance budget. Each measurement is
#                            5 ABBA rounds — four single-variant
#                            invocations per round in the order off, on,
#                            on, off — and the gate takes the MEDIAN of
#                            the per-round sum(on)-vs-sum(off) deltas.
#                            The estimator is chosen against measured
#                            host behaviour: run-to-run drift here
#                            reaches ±15%, which dwarfs the 5% budget, so
#                            (a) a single -count=N run (off×N then on×N)
#                            reads block-to-block drift as overhead,
#                            (b) per-variant aggregates (median or min
#                            across runs) are skewed by one lucky run of
#                            one variant, and (c) back-to-back off/on
#                            pairs bias against whichever variant always
#                            runs second. ABBA puts both variants at the
#                            same mean timeline position, cancelling any
#                            drift linear over a round; the median drops
#                            the occasional wild round. A gate that still
#                            breaches gets ONE independent re-measure a
#                            minute later (the sleep is the point: drift
#                            windows span whole measurements, so
#                            re-measuring immediately samples the same
#                            window): a real regression reproduces, a
#                            drift window does not. A breach in both
#                            measurements FAILS the build.
#
# Usage: scripts/check.sh [-short]
#
# With -short the test step runs `go test -race -short ./...`, trimming
# the iteration counts of the randomized equivalence and concurrency
# suites, and the overhead gates are skipped — a fast pre-commit signal;
# the full run stays the gate.
#
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

short=""
if [ "${1:-}" = "-short" ]; then
    short="-short"
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./internal/obs ./internal/serve (telemetry gate)"
go test -race -count=1 ./internal/obs/ ./internal/serve/

echo "== go test -race -run 'TestStress|TestWideEventSchemaGate' (observability gate)"
go test -race -count=1 -run 'TestStress' ./internal/obs/
go test -race -count=1 -run 'TestWideEventSchemaGate' ./internal/serve/
go test -race -count=1 -run 'TestWideEventSchemaGate' ./internal/cluster/

echo "== go test -race -run 'TestSpan|TestClusterTracing' (tracing gate)"
go test -race -count=1 -run 'TestSpan|TestWaterfall|TestTraceIDLookup' ./internal/obs/
go test -race -count=1 -run 'TestClusterTracing' ./internal/cluster/

echo "== go test -race -tags faultinject ./internal/serve/... ./internal/faultinject/... ./internal/cluster/... (chaos gate)"
go test -race -tags faultinject -count=1 ./internal/serve/... ./internal/faultinject/... ./internal/topk/... ./internal/cluster/...

echo "== go test -race ./internal/mitigate ./internal/serve (mitigation gate)"
go test -race -count=1 ./internal/mitigate/ ./internal/testutil/
go test -race -count=1 -run 'FuzzMitigators' ./internal/mitigate/
go test -race -count=1 -run 'TestServeMitigate' ./internal/serve/

echo "== profiling gate: labeled profiles, runtime bridge, load harness, loadtest smoke"
go test -race -count=1 -run 'TestProfiler|TestDebugProfilesEndpoint|TestRegisterRuntimeMetrics|TestStressAdminEndpointsUnderLoad' ./internal/obs/
go test -race -count=1 ./internal/loadgen/
lt_smoke="$(mktemp)"
lt_cluster="$(mktemp)"
trap 'rm -f "$lt_smoke" "$lt_cluster"' EXIT
go run ./cmd/fairjob loadtest -rate 150 -warmup 300ms -duration 1500ms -out "$lt_smoke" 2>/dev/null
for key in '"p99_ns"' '"p999_ns"' '"top_cpu_labels"' '"cpu_sample_total_ns"' '"by_label"'; do
    if ! grep -q "$key" "$lt_smoke"; then
        echo "check.sh: FAIL — loadtest smoke artifact lacks $key" >&2
        exit 1
    fi
done
# The captured CPU profile must decompose by the request labels the
# engine attaches: at 150 rps for 1.5s at least one of the label keys
# must have accumulated samples.
if ! grep -Eq '"key": "(problem|algo|dim|mitigator|cache)"' "$lt_smoke"; then
    echo "check.sh: FAIL — loadtest smoke captured no request-labeled CPU samples" >&2
    exit 1
fi
echo "check.sh: loadtest smoke artifact carries labeled CPU attribution"
# The cluster path runs under the same pprof labels: a 4-partition run
# must attribute CPU samples too (the top_cpu_labels list is non-empty).
go run ./cmd/fairjob loadtest -partitions 4 -rate 50 -warmup 300ms -duration 1500ms -out "$lt_cluster" 2>/dev/null
if ! grep -Eq '"key": "(problem|algo|dim|mitigator|cache)"' "$lt_cluster"; then
    echo "check.sh: FAIL — loadtest smoke at -partitions 4 captured no request-labeled CPU samples" >&2
    exit 1
fi
echo "check.sh: cluster loadtest smoke artifact carries labeled CPU attribution"

echo "== go test -race ${short:+$short }./..."
go test -race $short ./...

echo "== (cd perfbench && go test ./...) (benchmark harness module)"
(cd perfbench && go test -count=1 ./...)

if [ -z "$short" ]; then
    echo "== overhead gates: telemetry/resilience/logging/profiling/scatter-gather/span-tracing on-vs-off, < 5% budget (median of 5 ABBA round deltas)"
    bench_raw="$(mktemp)"
    trap 'rm -f "$bench_raw" "$lt_smoke" "$lt_cluster"' EXIT
    # Five ABBA rounds over benchmark group $1 (a name, or names joined
    # with |): off, on, on, off as four single-variant invocations.
    # benchtime matches bench.sh's 2s protocol: at 1s the ~10ms/op pairs
    # collect too few iterations on a 1-vCPU host and single rounds
    # swing ±20%, which false-positives the 5% budget.
    measure_abba() {
        : > "$bench_raw"
        for round in 1 2 3 4 5; do
            for v in off on on off; do
                go test -run '^$' -bench "($1)/$v\$" -benchtime=2s -count=1 ./internal/serve/
            done
        done | tee -a "$bench_raw"
    }
    # Prints the median per-round ABBA delta (%) for benchmark $1; exits
    # nonzero when the raw file holds no complete rounds for it.
    overhead_pct() {
        awk -v b="$1" '
            $1 ~ "^" b "/off" { off[++no] = $3 }
            $1 ~ "^" b "/on"  { on[++nn] = $3 }
            END {
                rounds = int((no < nn ? no : nn) / 2)
                if (rounds == 0) exit 1
                for (r = 1; r <= rounds; r++) {
                    o = off[2*r-1] + off[2*r]; n = on[2*r-1] + on[2*r]
                    d[r] = (n - o) / o * 100
                }
                for (i = 2; i <= rounds; i++)
                    for (j = i; j > 1 && d[j] < d[j-1]; j--) { t = d[j]; d[j] = d[j-1]; d[j-1] = t }
                printf "%.2f", d[int((rounds + 1) / 2)]
            }' "$bench_raw"
    }
    # Returns 0 when the budget is BREACHED, 1 when within budget.
    gate_breached() {
        bench="$1"; label="$2"
        pct="$(overhead_pct "$bench")" || {
            echo "check.sh: FAIL — $bench produced no off/on results" >&2
            exit 1
        }
        echo "check.sh: $label overhead (median of ABBA round deltas): $pct%"
        awk -v p="$pct" 'BEGIN { exit !(p >= 5) }'
    }
    measure_abba 'BenchmarkServeInstrumented|BenchmarkServeResilient|BenchmarkServeLogging|BenchmarkServeProfiled|BenchmarkScatterGather|BenchmarkSpanTracing'
    breached=""
    if gate_breached BenchmarkServeInstrumented telemetry; then breached="$breached BenchmarkServeInstrumented:telemetry"; fi
    if gate_breached BenchmarkServeResilient resilience; then breached="$breached BenchmarkServeResilient:resilience"; fi
    if gate_breached BenchmarkServeLogging logging; then breached="$breached BenchmarkServeLogging:logging"; fi
    if gate_breached BenchmarkServeProfiled profiling; then breached="$breached BenchmarkServeProfiled:profiling"; fi
    if gate_breached BenchmarkScatterGather scatter-gather; then breached="$breached BenchmarkScatterGather:scatter-gather"; fi
    if gate_breached BenchmarkSpanTracing span-tracing; then breached="$breached BenchmarkSpanTracing:span-tracing"; fi
    for entry in $breached; do
        bench="${entry%%:*}"; label="${entry#*:}"
        echo "check.sh: $label overhead breached the < 5% budget — re-measuring once after a cool-down to rule out machine drift"
        sleep 60
        measure_abba "$bench"
        if gate_breached "$bench" "$label"; then
            echo "check.sh: FAIL — $label overhead breached the < 5% acceptance budget in two independent measurements" >&2
            exit 1
        fi
        echo "check.sh: $label overhead cleared on re-measure (first breach attributed to machine drift)"
    done
else
    echo "== overhead gates skipped (-short)"
fi

echo "check.sh: all green"

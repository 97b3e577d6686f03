#!/usr/bin/env bash
# bench.sh measures the batch-distance engine's key kernels and writes
# BENCH_knn.json (or $1) with ns/op for each, alongside the frozen pre-engine
# baselines so the before/after comparison travels with the repo. The
# serving numbers all come from the one `drtool -bench` mode, run three
# times: `-bench store` on the quantized vector store (STORE_N points,
# default one million, at d=166), whose recall / peak-RSS / bytes-per-vector
# / throughput report is spliced into the same JSON under "store"; `-bench
# dense` read-only at the acceptance workload (10k reads, concurrency 32,
# musk-like n=6598 d=166), whose outcome accounting and latency percentiles
# become BENCH_serve.json (or $3); and `-bench dense` at 90/10 read/write
# (10k ops, concurrency 32), spliced into that JSON under "mutate". The
# serving record is gated on the mutation stress suite under the race
# detector.
#
# Usage: scripts/bench.sh [output.json] [benchtime] [serve-output.json]
# Env:   STORE_N     store run scale (default 1000000; 0 skips the store run)
#        STORE_FILE  reuse/build the store at this path instead of a temp file
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_knn.json}
benchtime=${2:-5x}
serveout=${3:-BENCH_serve.json}
storen=${STORE_N:-1000000}
storefile=${STORE_FILE:-}

# Never record numbers from a tree that violates the repo's own invariants:
# an unguarded kernel, a global-rand call site, or a lock held across a
# blocking call makes the measurement unreproducible or unrepresentative, so
# the JSON would be untrustworthy. Any finding fails; the run emits JSON so
# the verdict is machine-readable next to the benchmark output.
if ! go run ./cmd/drlint -format json ./...; then
  echo "bench.sh: drlint found violations; refusing to record benchmarks" >&2
  exit 1
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# The ns-scale Dot kernels need enough iterations to swamp timer overhead,
# so they get a time-based budget instead of the fixed iteration count.
go test -run=NONE -benchtime=200ms -bench='^(BenchmarkDot166|BenchmarkDotQ15U8_166|BenchmarkDotQ15U8x8_166)$' ./internal/linalg/ >>"$tmp"
go test -run=NONE -benchtime="$benchtime" \
  -bench='^(BenchmarkMulT512x166|BenchmarkMulNaiveT512x166|BenchmarkAtA6598x166)$' \
  ./internal/linalg/ >>"$tmp"
go test -run=NONE -benchtime="$benchtime" \
  -bench='^(BenchmarkPairwiseSq1024x166|BenchmarkSearchSetBatch6598x166)$' \
  ./internal/knn/ >>"$tmp"
go test -run=NONE -benchtime="$benchtime" -bench='^BenchmarkLSHQueryD166$' . >>"$tmp"
go test -run=NONE -benchtime="$benchtime" \
  -bench='^(BenchmarkStoreSearchInt8_6598x166|BenchmarkExactSearch6598x166)$' \
  ./internal/store/ >>"$tmp"
# One full drlint pass (parse + type-check + all seventeen rules, witness
# build included): the cost CI and `go test ./...` pay per run, recorded so
# regressions are visible.
go test -run=NONE -benchtime=1x -bench='^BenchmarkDrlintModule$' ./internal/analysis/ >>"$tmp"

# Regression guard on the scan rewrite: the integer-SIMD blocked scan must
# hold at least a 2x lead over the float64 scalar scan on the acceptance
# shape, or the measurement is refused — a recorded BENCH_knn.json always
# certifies the quantized path actually pays for itself.
awk '
/^BenchmarkStoreSearchInt8_6598x166/ { int8 = $3 }
/^BenchmarkExactSearch6598x166/      { exact = $3 }
END {
    if (int8 == 0 || exact == 0) {
        print "bench.sh: missing StoreSearchInt8/ExactSearch rows in benchmark output" > "/dev/stderr"
        exit 1
    }
    if (int8 * 2 > exact) {
        printf "bench.sh: StoreSearchInt8_6598x166 (%d ns/op) is not 2x faster than ExactSearch6598x166 (%d ns/op); refusing to record\n", int8, exact > "/dev/stderr"
        exit 1
    }
    printf "scan guard: StoreSearchInt8 %d ns/op vs ExactSearch %d ns/op (%.2fx)\n", int8, exact, exact / int8
}
' "$tmp"

# Quantized-store acceptance run: stream-build STORE_N x 166 points, verify
# the store-backed exact path bit-identical to SearchSetBatch, measure
# recall@10 of the budgeted approximate path, and record peak RSS and
# bytes-per-vector next to the kernel numbers. Its JSON is spliced into
# $out below as the "store" object.
storetmp=""
if [ "$storen" -gt 0 ]; then
  storetmp=$(mktemp)
  # Read-only on the approximate path, 100 requests, 4 verified queries:
  # the scale the million-point record has always been taken at.
  storeargs=(-bench store -store-n "$storen" -serve-out "$storetmp" -store-min-recall 0.99
    -serve-mode approx -serve-mutate-write 0 -serve-mutate-ops 100 -serve-verify 4)
  if [ -n "$storefile" ]; then
    storeargs+=(-store "$storefile")
  fi
  go run ./cmd/drtool "${storeargs[@]}"
fi

awk -v out="$out" -v storefile="$storetmp" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns[name] = $3
    order[n++] = name
}
END {
    printf "{\n" > out
    printf "  \"unit\": \"ns/op\",\n" >> out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"benchtime\": \"%s\",\n", "'"$benchtime"'" >> out
    printf "  \"current\": {\n" >> out
    for (i = 0; i < n; i++) {
        sep = (i < n - 1) ? "," : ""
        printf "    \"%s\": %s%s\n", order[i], ns[order[i]], sep >> out
    }
    printf "  },\n" >> out
    # Pre-engine baselines measured on the same machine at the seed commit:
    # scalar SearchSetParallel ground truth (removed in PR 15; the number is
    # history, the row is no longer measured), Mul(a, bT) via the naive ikj
    # kernel, CovarianceMatrix via T().Mul(), and the pre-rewrite LSH query.
    printf "  \"baseline_seed\": {\n" >> out
    printf "    \"SearchSetParallel6598x166\": 60404269,\n" >> out
    printf "    \"MulNaiveT512x166\": 25600000,\n" >> out
    printf "    \"CovarianceMatrix6598x166\": 208387405\n" >> out
    if (storefile == "") {
        printf "  }\n" >> out
    } else {
        # Splice the store report in as the "store" object.
        printf "  },\n" >> out
        printf "  \"store\": " >> out
        first = 1
        while ((getline line < storefile) > 0) {
            if (first) { printf "%s\n", line >> out; first = 0 }
            else       { printf "  %s\n", line >> out }
        }
        close(storefile)
    }
    printf "}\n" >> out
}
' "$tmp"
rm -f "$storetmp"

echo "wrote $out"
cat "$out"

# Never record serving numbers from an engine whose mutation path can lose
# or duplicate operations: the mutation stress suite must pass under the
# race detector with shuffled order before BENCH_serve.json is written.
echo "bench.sh: mutation stress gate (race detector, shuffled)"
go test ./internal/serve/ -race -shuffle=on \
  -run 'TestMutateStress|TestMutationMatchesRebuild|TestStoreMutationMatchesRebuild|TestCompactDeterministic'

# Serving-layer acceptance run: the load generator verifies a query sample
# bit-identical to SearchSetBatch and fails on any lost or duplicated
# response, so a recorded BENCH_serve.json doubles as a correctness receipt.
go run ./cmd/drtool -bench dense -serve-mutate-write 0 -serve-out "$serveout"

# Live-mutation acceptance run: 10k ops at concurrency 32 with the default
# 90/10 read/write mix. The tool itself fails on any lost or duplicated op,
# any deleted-ID hit, any stale ack, or a run with no mid-run compaction,
# and verifies the quiesced engine bit-identical to a from-scratch rebuild
# over the survivors — its JSON is spliced into $serveout as "mutate".
mutatetmp=$(mktemp)
go run ./cmd/drtool -bench dense -serve-out "$mutatetmp"
awk -v mutfile="$mutatetmp" '
{ lines[NR] = $0 }
END {
    # The serve report is an indented JSON object whose last line is the
    # closing brace; splice the mutate object in just before it.
    for (i = 1; i < NR; i++) print lines[i]
    printf "  ,\"mutate\": "
    first = 1
    while ((getline line < mutfile) > 0) {
        if (first) { print line; first = 0 }
        else       { print "  " line }
    }
    close(mutfile)
    print lines[NR]
}
' "$serveout" >"${serveout}.tmp"
mv "${serveout}.tmp" "$serveout"
rm -f "$mutatetmp"
echo "wrote $serveout"

#!/bin/sh
# Builds the Release bench drivers and records an updates/second trajectory
# point as BENCH_<label>.json in the repository root (schema documented in
# bench/README.md).
#
# Usage: scripts/bench.sh [--smoke] [--label NAME] [--build-dir DIR]
#                         [-- extra bench_updates flags...]
#   --smoke       tiny workload + short timings (CI keep-alive for the perf
#                 binaries; numbers are NOT comparable to full runs)
#   --label NAME  JSON label and file name (default: smoke | local)
#   --build-dir   CMake build tree to use (default: build-bench, configured
#                 Release with tests/examples/tools off for a fast build)
# Everything after `--` is passed through to bench_updates verbatim.
set -eu

cd "$(dirname "$0")/.."

smoke=""
label=""
build_dir="build-bench"
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke="--smoke"; shift ;;
    --label) label="$2"; shift 2 ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --) shift; break ;;
    *) echo "bench.sh: unknown option $1" >&2; exit 2 ;;
  esac
done
if [ -z "$label" ]; then
  if [ -n "$smoke" ]; then label="smoke"; else label="local"; fi
fi

git_rev=$(git describe --always --dirty 2>/dev/null || echo unknown)

cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
  -DASYRGS_BUILD_TESTS=OFF -DASYRGS_BUILD_EXAMPLES=OFF \
  -DASYRGS_BUILD_TOOLS=OFF >/dev/null
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 2)" \
  --target bench_updates

"$build_dir"/bench/bench_updates $smoke --label "$label" \
  --git "$git_rev" --out "BENCH_${label}.json" "$@"

echo "bench.sh: wrote BENCH_${label}.json"

# Side-by-side scan-mode, storage-policy, sampling-policy, kaczmarz,
# block-kernel, prepare-amortization, serving-throughput, and overload
# summaries (schema v11: docs/TUNING.md).  Best effort — the JSON is the
# artifact; these lines are for the terminal.
if command -v python3 >/dev/null 2>&1; then
  python3 - "BENCH_${label}.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
s = d.get("scan_headline")
if s:
    print("bench.sh: scan mode (%s, 1 worker): pinned=%.3g upd/s "
          "reassociated=%.3g upd/s speedup=%.2fx"
          % (s["workload"], s["pinned_updates_per_second"],
             s["reassociated_updates_per_second"], s["speedup"]))
for t in d.get("storage_headline", []):
    if t["scan"] != "reassociated":
        continue
    print("bench.sh: storage (%s, 1 worker, %s scan): int64=%.3g "
          "int32=%.3g (%.2fx) mixed=%.3g (%.2fx) upd/s"
          % (t["workload"], t["scan"],
             t["int64_double_updates_per_second"],
             t["int32_double_updates_per_second"], t["int32_speedup"],
             t["int32_mixed_updates_per_second"], t["mixed_speedup"]))
for t in d.get("sampling_headline", []):
    print("bench.sh: sampling (%s, 1 worker, barrier): uniform=%.3g "
          "weighted=%.3g (%.2fx) residual=%.3g (%.2fx) upd/s"
          % (t["workload"], t["uniform_updates_per_second"],
             t["weighted_updates_per_second"], t["weighted_ratio"],
             t["residual_updates_per_second"], t["residual_ratio"]))
z = d.get("kaczmarz_headline")
if z:
    print("bench.sh: kaczmarz (%dx%d factor, %d nnz, 1 worker): "
          "uniform=%.3g weighted=%.3g row-projections/s (%.2fx)"
          % (z["rows"], z["cols"], z["nnz"],
             z["uniform_updates_per_second"],
             z["weighted_updates_per_second"], z["weighted_ratio"]))
k = d.get("block_headline")
if k:
    print("bench.sh: block k=%d (%s, 1 worker, executed %s): pinned=%.3g "
          "reassociated=%.3g row-upd/s speedup=%.2fx"
          % (k["block_k"], k["workload"], k["scan_executed"],
             k["pinned_updates_per_second"],
             k["reassociated_updates_per_second"], k["speedup"]))
p = d.get("prepare_amortization")
if p:
    for fam in ("spd", "lsq"):
        f = p.get(fam)
        if f:
            line = ("bench.sh: prepared %s solve (%s, %d sweeps): "
                    "cold=%.3gs prepared=%.3gs speedup=%.2fx"
                    % (fam, p["workload"], p["sweeps"],
                       f["cold_seconds_per_solve"],
                       f["prepared_seconds_per_solve"], f["speedup"]))
            if "uncached_speedup" in f:
                line += (" (uncached cold=%.3gs, %.2fx)"
                         % (f["cold_uncached_seconds_per_solve"],
                            f["uncached_speedup"]))
            print(line)
c = d.get("locality_headline")
if c:
    print("bench.sh: locality (laplacian_2d %dx%d, %d workers): "
          "baseline=%.3g partitioned[%d, steal %.2f]=%.3g upd/s "
          "speedup=%.2fx (analysis %.3gs)"
          % (c["nx"], c["nx"], c["workers"],
             c["baseline_updates_per_second"], c["partitions"],
             c["steal_rate"], c["partitioned_updates_per_second"],
             c["speedup"], c["analysis_seconds"]))
v = d.get("serving_throughput")
if v:
    points = " ".join("%d-shard=%.3g solves/s" % (q["shards"],
                                                  q["solves_per_second"])
                      for q in v["points"])
    print("bench.sh: serving (%s, %d requests, mix %s): %s "
          "(best multi-shard %d, %.2fx vs single)"
          % (v["workload"], v["requests"], v["mix"], points,
             v["best_multi_shards"], v["speedup_vs_single"]))
    o = v.get("overload")
    if o:
        print("bench.sh: overload (1 shard, %.3g/s open loop, max_queue=%d): "
              "offered=%d rejected=%d (rate %.2f) served p99=%.3gs"
              % (o["arrival_rate"], o["max_queue"], o["offered"],
                 o["rejected"], o["reject_rate"], o["served_p99_seconds"]))
PYEOF
fi

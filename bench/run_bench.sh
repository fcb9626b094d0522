#!/usr/bin/env bash
# Runs the micro benchmarks and records the results as BENCH_micro.json at
# the repo root, so the performance trajectory is tracked across PRs. The
# file contains the pipeline micro benchmarks (bench_micro_pipeline)
# followed by the serving-layer benchmarks (bench_serve_bench), the
# execution-substrate comparison (bench_runtime_bench: simulation vs
# pool at 1/2/4/8 workers) and the telemetry overhead suite
# (bench_telemetry_bench: instrument hot paths plus BM_TracedPipeline at
# sampling 0/64/1 — the acceptance gate is every=64 within 5% of
# telemetry-off) and the socket-path suite (bench_net_bench: whole-stack
# request throughput and p50/p99 through loopback TCP, including the
# batching A/B whose measured depth:16 / depth:1 speedup at 8 connections
# is attested into context) and the checkpoint codec rows
# (bench_checkpoint_bench: BM_EncodeCheckpoint / BM_DecodeCheckpoint, the
# CPU cost of turning a pipeline capture into sections and back), merged
# into one Google-Benchmark JSON document: ingest throughput, read QPS,
# substrate scaling, observability overhead, network serving and
# durability codec cost live side by side.
#
# Usage: bench/run_bench.sh [build_dir]   (default: build)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
PIPELINE_BIN="${BUILD_DIR}/bench_micro_pipeline"
SERVE_BIN="${BUILD_DIR}/bench_serve_bench"
RUNTIME_BIN="${BUILD_DIR}/bench_runtime_bench"
TELEMETRY_BIN="${BUILD_DIR}/bench_telemetry_bench"
NET_BIN="${BUILD_DIR}/bench_net_bench"
CHECKPOINT_BIN="${BUILD_DIR}/bench_checkpoint_bench"

for bin in "${PIPELINE_BIN}" "${SERVE_BIN}" "${RUNTIME_BIN}" \
           "${TELEMETRY_BIN}" "${NET_BIN}" "${CHECKPOINT_BIN}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not found — build first:" >&2
    echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
    exit 1
  fi
done

# Benchmarks from a non-Release build undersell every optimization (the
# pre-PR-5 BENCH_micro.json was committed from a debug build and did
# exactly that). Refuse up front when the build tree isn't Release; the
# merge step below double-checks what the binaries themselves report
# (library_build_type) in case the cache lies.
CACHE="${BUILD_DIR}/CMakeCache.txt"
if [[ -f "${CACHE}" ]]; then
  BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${CACHE}")"
  if [[ "${BUILD_TYPE}" != "Release" ]]; then
    echo "error: ${BUILD_DIR} is configured as '${BUILD_TYPE:-<empty>}'," >&2
    echo "not Release; BENCH_micro.json numbers must come from a Release" >&2
    echo "build. Reconfigure:" >&2
    echo "  cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release" >&2
    echo "  cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

"${PIPELINE_BIN}" \
  --benchmark_format=json \
  --benchmark_out="${TMP_DIR}/pipeline.json" \
  --benchmark_out_format=json

"${SERVE_BIN}" \
  --benchmark_format=json \
  --benchmark_out="${TMP_DIR}/serve.json" \
  --benchmark_out_format=json

"${RUNTIME_BIN}" \
  --benchmark_format=json \
  --benchmark_out="${TMP_DIR}/runtime.json" \
  --benchmark_out_format=json

# Random interleaving shuffles the BM_TracedPipeline repetitions across
# the sample_every arms instead of running each arm's 5 reps
# back-to-back; machine drift between arms (frequency scaling, noisy
# neighbours) otherwise dwarfs the <5% overhead being measured.
"${TELEMETRY_BIN}" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json \
  --benchmark_out="${TMP_DIR}/telemetry.json" \
  --benchmark_out_format=json

"${NET_BIN}" \
  --benchmark_format=json \
  --benchmark_out="${TMP_DIR}/net.json" \
  --benchmark_out_format=json

# Only the codec rows: the write/restore rows time the storage backends
# (the posix ones fsync), which the codec attestation does not need.
"${CHECKPOINT_BIN}" \
  --benchmark_filter='BM_(Encode|Decode)Checkpoint' \
  --benchmark_format=json \
  --benchmark_out="${TMP_DIR}/checkpoint.json" \
  --benchmark_out_format=json

# Merging needs python3; bail out *before* touching BENCH_micro.json
# rather than silently committing a partial document.
if ! command -v python3 > /dev/null; then
  echo "error: python3 is required to merge the benchmark JSON documents;" >&2
  echo "BENCH_micro.json left untouched. Raw outputs:" >&2
  echo "  ${TMP_DIR}/pipeline.json ${TMP_DIR}/serve.json" \
       "${TMP_DIR}/runtime.json ${TMP_DIR}/telemetry.json" \
       "${TMP_DIR}/net.json ${TMP_DIR}/checkpoint.json" >&2
  trap - EXIT  # Keep the raw outputs around for manual merging.
  exit 1
fi

python3 - "${TMP_DIR}/pipeline.json" "${TMP_DIR}/serve.json" \
    "${TMP_DIR}/runtime.json" "${TMP_DIR}/telemetry.json" \
    "${TMP_DIR}/net.json" "${TMP_DIR}/checkpoint.json" \
    "${REPO_ROOT}/BENCH_micro.json" <<'PY'
import json
import os
import re
import sys

(pipeline_path, serve_path, runtime_path, telemetry_path, net_path,
 checkpoint_path, out_path) = sys.argv[1:8]
# Refuse to merge non-Release numbers into the committed document. Two
# signals, strongest wins:
#  * context.corrtrack_build_type — our own attestation (bench_main.h,
#    stamped from CMAKE_BUILD_TYPE): what optimization the MEASURED code
#    had. Must be "release". Binaries without it predate the guard and are
#    rejected outright (the old committed numbers came from exactly such
#    unattested debug-quality runs).
#  * context.library_build_type — how the Google-Benchmark *library* was
#    compiled. A debug harness library (common for distro packages) only
#    slows the measurement scaffolding, so with a Release attestation it
#    is annotated, not fatal; without one, "debug" here is fatal.
for path in (pipeline_path, serve_path, runtime_path, telemetry_path,
             net_path, checkpoint_path):
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    corrtrack_build = ctx.get("corrtrack_build_type", "")
    library_build = ctx.get("library_build_type", "unknown")
    if corrtrack_build.lower() != "release":
        sys.stderr.write(
            "error: %s attests corrtrack_build_type '%s' (want 'Release'"
            "; library_build_type: %s). BENCH_micro.json left untouched — "
            "rebuild with -DCMAKE_BUILD_TYPE=Release\n"
            % (path, corrtrack_build or "<missing>", library_build))
        sys.exit(1)
with open(pipeline_path) as f:
    merged = json.load(f)
worker_counts = set()
for path in (serve_path, runtime_path, telemetry_path, net_path,
             checkpoint_path):
    with open(path) as f:
        benchmarks = json.load(f)["benchmarks"]
    merged["benchmarks"].extend(benchmarks)
    for bench in benchmarks:
        m = re.search(r"/threads:(\d+)", bench.get("name", ""))
        if m:
            worker_counts.add(int(m.group(1)))
# Attest the telemetry overhead: items_per_second of the traced pipeline
# at the default 1-in-64 sampling vs telemetry detached, using the
# median across repetitions (single runs on a shared container jitter by
# more than the gate). The PR gate is < 5% regression; record the
# measured number so the claim is checkable from the committed document.
traced = {}
for bench in merged["benchmarks"]:
    m = re.match(
        r"BM_TracedPipeline/sample_every:(\d+)(?:/[^/]+)*/real_time_median$",
        bench.get("name", ""))
    if m and "items_per_second" in bench:
        traced[int(m.group(1))] = bench["items_per_second"]
if 0 in traced and 64 in traced and traced[0] > 0:
    overhead = (traced[0] - traced[64]) / traced[0] * 100.0
    merged.setdefault("context", {})["traced_pipeline_overhead_pct"] = round(
        overhead, 2)
# Attest the per-connection batching speedup: aggregate socket-path
# items/s of the pipelined TopCorrelated benchmark at depth:16 vs depth:1,
# both at 8 connections (the PR gate is >= 2x). Recorded so the claim is
# checkable from the committed document.
batched = {}
for bench in merged["benchmarks"]:
    m = re.match(
        r"BM_NetPipelinedTopCorrelated/depth:(\d+)(?:/[^/]+)*/threads:8$",
        bench.get("name", ""))
    if m and "items_per_second" in bench:
        batched[int(m.group(1))] = bench["items_per_second"]
if 1 in batched and 16 in batched and batched[1] > 0:
    speedup = batched[16] / batched[1]
    merged.setdefault("context", {})["net_batching_speedup_8conn"] = round(
        speedup, 2)
# Attest the overload containment: accepted-request p99 on the
# under-provisioned server at ~2x reader saturation vs uncontended (the
# PR gate is <= 3x), plus the shed count proving admission control
# actually engaged (a zero here would mean the "overloaded" arm never
# overloaded anything).
overload_p99 = {}
overload_shed = None
for bench in merged["benchmarks"]:
    name = bench.get("name", "")
    if re.match(r"BM_NetOverloadUncontended(?:/[^/]+)*$", name) \
            and "p99_us" in bench:
        overload_p99["uncontended"] = bench["p99_us"]
    if re.match(r"BM_NetOverloadSaturated(?:/[^/]+)*$", name) \
            and "p99_us" in bench:
        overload_p99["saturated"] = bench["p99_us"]
        overload_shed = bench.get("shed")
if "uncontended" in overload_p99 and "saturated" in overload_p99 \
        and overload_p99["uncontended"] > 0:
    context = merged.setdefault("context", {})
    context["net_overload_p99_ratio"] = round(
        overload_p99["saturated"] / overload_p99["uncontended"], 2)
    context["net_overload_uncontended_p99_us"] = round(
        overload_p99["uncontended"], 1)
    context["net_overload_accepted_p99_us"] = round(
        overload_p99["saturated"], 1)
    if overload_shed is not None:
        context["net_overload_shed_requests"] = int(overload_shed)
# Label the host so thread-scaling rows are interpretable: worker-count
# sweeps from a single-core container measure scheduling overhead, not
# scaling, and must be read as such.
host_cpus = os.cpu_count() or 1
context = merged.setdefault("context", {})
if context.get("library_build_type") != "release":
    context["benchmark_library_note"] = (
        "system Google-Benchmark library reports '%s'; the measured "
        "corrtrack code is attested Release (corrtrack_build_type) — a "
        "debug harness library only slows the measurement scaffolding"
        % context.get("library_build_type", "unknown"))
context["host_num_cpus"] = host_cpus
context["runtime_bench_worker_counts"] = sorted(worker_counts)
context["single_core_host"] = host_cpus == 1
if worker_counts and host_cpus < max(worker_counts):
    context["worker_scaling_note"] = (
        "worker counts exceed host cores (%d); treat multi-worker rows as "
        "overhead, not scaling" % host_cpus)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
PY
echo "wrote ${REPO_ROOT}/BENCH_micro.json (pipeline + serve + runtime +" \
     "telemetry + net + checkpoint codec; host cores, traced-pipeline overhead, net batching" \
     "speedup and overload p99 ratio in context)"

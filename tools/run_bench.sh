#!/usr/bin/env bash
# Builds and runs the perf trajectory harness (bench/perf_bench.cpp),
# emitting the JSON snapshot that BENCH_*.json files are taken from.
#
# Usage:
#   tools/run_bench.sh [--smoke] [output.json] [extra perf_bench flags...]
#
# --smoke runs tiny sizes (a CI harness check, not a measurement) and
# defaults the output into the build tree; otherwise the output defaults
# to BENCH_perf.json in the repo root. Benchmarks must be compiled with
# optimization: this script configures CMAKE_BUILD_TYPE=Release (the
# repo's default build type).
#
# Methodology for committed BENCH_*.json snapshots (the numbers cited
# in README "Performance" and in perf-PR claims):
#   * Interleaved min-of-N: run the harness several times (>= 3
#     invocations of --repeats=3, i.e. >= 9 timed runs per row) and take
#     the per-row minimum across invocations. Interleaving whole
#     invocations — rather than one long run per benchmark — spreads
#     thermal/frequency drift and background noise across every row
#     instead of biasing whichever row ran last. Merge with e.g.:
#       for i in 1 2 3; do tools/run_bench.sh /tmp/bench_$i.json; done
#       # then take the min wall_ms per (name, threads) across the three
#   * Min, not mean: wall-clock noise on a quiet machine is one-sided
#     (interference only adds time), so the minimum is the best
#     estimate of the true cost of the code.
#   * Same build type for every snapshot: Release, default flags — no
#     -march=native — so committed trajectories compare codegen the
#     repo actually ships. The SIMD kernels select AVX2 at runtime
#     regardless of flags; pass --no_simd to measure the scalar
#     baseline, and check the "simd_isa" field in the JSON meta to see
#     what actually dispatched.
#   * Compare like against like: the same row name and thread count
#     across snapshots (e.g. sinkhorn_log for kernel vectorization).
#     repair_throughput_soa keeps the name it had when a row-by-row
#     repair_throughput row sat beside it.
#   * serve_net_* rows run real TCP loadgen client threads against the
#     in-process epoll server, so they contend with the server for this
#     machine's cores. On a many-core host the 64/256-connection rows
#     show aggregate scaling over single-connection stdio serve; on a
#     1-2 core host they price the protocol + syscall overhead instead
#     — read them next to the "hardware_threads" field in the JSON meta.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build"

smoke=0
if [[ "${1:-}" == "--smoke" ]]; then
  smoke=1
  shift
fi

if [[ ${smoke} -eq 1 ]]; then
  out="${1:-${build_dir}/BENCH_smoke.json}"
else
  out="${1:-${repo_root}/BENCH_perf.json}"
fi
shift || true

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" -j --target perf_bench >/dev/null

args=("--out=${out}")
if [[ ${smoke} -eq 1 ]]; then
  args+=("--smoke" "--threads=1,2" "--repeats=1")
fi

"${build_dir}/bench/perf_bench" "${args[@]}" "$@"

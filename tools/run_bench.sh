#!/bin/sh
# Runs the pipeline benchmark (with the encoding-cache all-pairs sweep)
# and the micro-kernel benchmarks, leaving machine-readable output in the
# current directory:
#   BENCH_pipeline.json       - ablation arms + cached all-pairs sweep
#   BENCH_micro_kernels.json  - google-benchmark JSON for the hot kernels
#   BENCH_serve.json          - serving throughput + latency percentiles
#                               over the networked stack (loopback TCP,
#                               binary wire protocol) with the versioned
#                               result cache on: net + result_cache
#                               sections, cache-hit vs compute p99, both
#                               byte-identity gates
#   BENCH_serve_large.json    - the 100k-entry prescreen scenario: serve
#                               loop in prescreen mode plus the compare
#                               arms, reporting probed fraction and
#                               scan-vs-prescreen qps/p99. Populates both
#                               ways (bulk AND sequential) and records the
#                               per-phase breakdown, the bulk-vs-sequential
#                               speedup, and the state-identity verdict in
#                               the populate section.
#   BENCH_evolve.json         - long-horizon continuous evolution over a
#                               10k-community catalog: drift events
#                               applied, triggers fired, maintained vs
#                               fresh recompute wall time, max ranking
#                               staleness window, with the byte-identity
#                               and trigger-exactness verdicts
#   BENCH_persist.json        - the 100k scenario through the persistent
#                               store: populate, checkpoint to a sealed
#                               columnar segment, log the serve loop's
#                               churn, fold, cold-reopen. Reports save
#                               wall time, warm load (map + restore +
#                               replay) and its speedup over populate,
#                               page-fault deltas (minor/major) for the
#                               mapped load, and the deep state-identity
#                               verdict in the persist section.
#   BENCH_serve_1m.json       - opt-in (CSJ_BENCH_1M=1): the 1M-entry
#                               prescreen scenario with the same two-arm
#                               populate comparison. The sequential arm
#                               dominates the runtime (several minutes;
#                               the bulk arm loads the same catalog >= 2x
#                               faster), so it stays out of the default
#                               sweep.
#
# Numbers from non-Release builds are meaningless, so the script verifies
# the build tree's CMAKE_BUILD_TYPE and refuses to run otherwise. Every
# JSON gets the git SHA and build type stamped in, so a stray result file
# can always be traced back to the code that produced it.
#
# Usage: tools/run_bench.sh [build-dir]   (default: build)
set -eu

build_dir="${1:-build}"
[ $# -ge 1 ] && shift

if [ ! -f "${build_dir}/CMakeCache.txt" ]; then
  echo "error: ${build_dir}/CMakeCache.txt not found." >&2
  echo "Configure a Release tree first:" >&2
  echo "  cmake -B ${build_dir} -S . -DCMAKE_BUILD_TYPE=Release && cmake --build ${build_dir} -j" >&2
  exit 1
fi

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${build_dir}/CMakeCache.txt")"
if [ "${build_type}" != "Release" ]; then
  echo "error: ${build_dir} is configured as '${build_type:-<empty>}', not Release." >&2
  echo "Benchmark numbers from this tree would not be comparable; reconfigure with:" >&2
  echo "  cmake -B ${build_dir} -S . -DCMAKE_BUILD_TYPE=Release && cmake --build ${build_dir} -j" >&2
  exit 1
fi

if [ ! -x "${build_dir}/bench/bench_pipeline" ]; then
  echo "error: ${build_dir}/bench/bench_pipeline not found." >&2
  echo "Build first: cmake --build ${build_dir} -j" >&2
  exit 1
fi

git_sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

echo "== bench_pipeline (ablation + cached all-pairs sweep) =="
"${build_dir}/bench/bench_pipeline" --json=BENCH_pipeline.json \
  --git_sha="${git_sha}" --build_type="${build_type}" "$@"

echo
echo "== bench_micro_kernels (epsilon kernels, encoder, matchers) =="
"${build_dir}/bench/bench_micro_kernels" \
  --benchmark_out=BENCH_micro_kernels.json \
  --benchmark_out_format=json \
  --benchmark_context=git_sha="${git_sha}" \
  --benchmark_context=build_type="${build_type}"

echo
echo "== csj_serve (networked serving + result cache: throughput, latency, hit rate) =="
"${build_dir}/tools/csj_serve" \
  --catalog=24 --size=150 --requests=400 --clients=4 --workers=2 \
  --zipf=1.1 --upsert_fraction=0.05 --result_cache=true --net=true \
  --compare=8 \
  --json=BENCH_serve.json \
  --git_sha="${git_sha}" --build_type="${build_type}"

echo
echo "== csj_serve large (100k-entry catalog: prescreen candidate generation) =="
"${build_dir}/tools/csj_serve" \
  --catalog_size=100000 --size=40 --cluster=12 --plant_lo=0.5 \
  --plant_hi=0.8 --k=5 --requests=150 --clients=2 --workers=2 \
  --zipf=1.1 --upsert_fraction=0 --prescreen=true --compare=6 \
  --populate_compare=true \
  --json=BENCH_serve_large.json \
  --git_sha="${git_sha}" --build_type="${build_type}"

echo
echo "== csj_evolve (10k-community drift: maintained top-k vs recompute) =="
"${build_dir}/tools/csj_evolve" \
  --catalog_size=10000 --size=40 --cluster=12 --plant_lo=0.5 \
  --plant_hi=0.8 --k=5 --eps=1 --queries=8 --events=2000 \
  --quiesce_every=100 --prescreen=true \
  --json=BENCH_evolve.json \
  --git_sha="${git_sha}" --build_type="${build_type}"

echo
echo "== csj_serve persist (100k-entry catalog: checkpoint, log churn, warm reload) =="
rm -rf BENCH_persist_store
"${build_dir}/tools/csj_serve" \
  --catalog_size=100000 --size=40 --cluster=12 --plant_lo=0.5 \
  --plant_hi=0.8 --k=5 --requests=150 --clients=2 --workers=2 \
  --zipf=1.1 --upsert_fraction=0.05 --prescreen=true \
  --store_dir=BENCH_persist_store --persist_compare=true \
  --json=BENCH_persist.json \
  --git_sha="${git_sha}" --build_type="${build_type}"
rm -rf BENCH_persist_store

if [ "${CSJ_BENCH_1M:-0}" = "1" ]; then
  echo
  echo "== csj_serve 1M (1M-entry catalog: prescreen at scale + two-arm populate; ~10 min) =="
  "${build_dir}/tools/csj_serve" \
    --catalog_size=1000000 --size=40 --cluster=12 --plant_lo=0.5 \
    --plant_hi=0.8 --k=5 --requests=40 --clients=2 --workers=2 \
    --zipf=1.1 --upsert_fraction=0 --prescreen=true \
    --populate_compare=true \
    --json=BENCH_serve_1m.json \
    --git_sha="${git_sha}" --build_type="${build_type}"
fi

echo
echo "== perf smoke check (scaling + report identity) =="
script_dir="$(dirname "$0")"
sh "${script_dir}/ci_perf_smoke.sh" --check-json BENCH_pipeline.json

echo
echo "wrote BENCH_pipeline.json, BENCH_micro_kernels.json, BENCH_serve.json, BENCH_serve_large.json, BENCH_evolve.json and BENCH_persist.json (${git_sha}, ${build_type})"

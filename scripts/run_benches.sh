#!/usr/bin/env bash
# Regenerates every table/figure of the paper into results/.
# Knobs (see bench/common.hpp): REPRO_SCALE, REPRO_MACRO_SCALE,
# REPRO_EPISODES, REPRO_GAMMA, REPRO_CHANNELS, REPRO_BLOCKS, REPRO_LEAF.
# THREADS (or the MP_THREADS env var) sets the par:: worker-pool size for
# every bench; it is recorded in each JSONL run entry ("threads" field) so
# results stay attributable (see docs/PARALLELISM.md).
#
# Next to each text table a machine-readable JSONL telemetry report
# ($out/<bench>.jsonl, schema in docs/OBSERVABILITY.md) is written via
# MP_OBS_OUT; summarize with scripts/obs_summary.py.  Every bench also
# leaves a BENCH_<name>.json perf artifact in $out (bench/artifact.hpp
# schema, validated by scripts/validate_bench_json.py).
set -euo pipefail

build=${1:-build}
out=${2:-results}
threads=${THREADS:-${MP_THREADS:-}}
mkdir -p "$out"

# BENCH_*.json artifacts: bench::Table emits one per table bench when
# MP_BENCH_JSON is truthy; MP_BENCH_DIR routes all artifacts into $out.
export MP_BENCH_JSON=1
export MP_BENCH_DIR="$out"

thread_args=()
if [[ -n "$threads" ]]; then
  export MP_THREADS="$threads"
  thread_args=(--threads "$threads")
  echo "=== threads: $threads ==="
fi

for b in bench_fig4_reward bench_fig5_mcts_vs_rl bench_table2_industrial \
         bench_table3_iccad04 bench_table4_runtime bench_ablation \
         bench_eco; do
  echo "=== $b ==="
  rm -f "$out/$b.jsonl"
  MP_OBS_OUT="$out/$b.jsonl" "$build/bench/$b" ${thread_args[@]+"${thread_args[@]}"} \
    | tee "$out/$b.txt"
done
# Micro kernels, including the blocked/SIMD vs naive GEMM pair (acceptance:
# GemmBlocked >= 2x GemmNaive single-thread).
echo "=== bench_micro_kernels ==="
"$build/bench/bench_micro_kernels" --benchmark_min_time=0.1 \
  | tee "$out/bench_micro_kernels.txt"

echo "=== bench_service_load ==="
"$build/bench/bench_service_load" --workers "${SVC_WORKERS:-4}" \
  --clients "${SVC_CLIENTS:-16}" ${thread_args[@]+"${thread_args[@]}"} \
  | tee "$out/bench_service_load.txt"

# Fleet variant: same load through an in-process mp_route + TCP backends
# (docs/DISTRIBUTED.md); writes BENCH_service_fleet.json.
echo "=== bench_service_load --router ==="
"$build/bench/bench_service_load" --router \
  --backends "${FLEET_BACKENDS:-3}" --workers "${SVC_WORKERS:-2}" \
  --clients "${SVC_CLIENTS:-16}" ${thread_args[@]+"${thread_args[@]}"} \
  | tee "$out/bench_service_fleet.txt"

# Stray artifacts from benches run outside MP_BENCH_DIR (e.g. a cwd run of
# bench_micro_kernels) are collected too, then everything is schema-checked.
for f in BENCH_*.json; do
  if [[ -e "$f" ]]; then mv "$f" "$out/"; fi
done
python3 "$(dirname "$0")/validate_bench_json.py" "$out"/BENCH_*.json

#!/usr/bin/env bash
# Correctness gate for the placement flow (docs/CHECKING.md).
#
# Runs, in order:
#   1. mplint, the in-repo static analyzer (docs/CHECKING.md "Static
#      analysis: mplint"): determinism bans (raw rand / wall-clock /
#      unordered iteration in result-affecting dirs), lock discipline
#      (annotation coverage on every mutex, RAII-only locking), and header
#      hygiene.  Runs first because it is by far the cheapest gate — a
#      finding fails the run before any sanitizer tree configures.  Needs
#      only a C++17 compiler; works on the plain-gcc container.
#   2. The benchmark program: configures mpbench/ (its own CMake project,
#      which compiles the library sources under src/) into
#      build-check/mpbench, builds the mpbench and mpbench_tests targets and
#      runs mpbench_tests.  No other stage compiles mpbench/main.cpp, so
#      without it an API slip in src/place would first show up as a
#      benchmark run_failed.
#   3. A Debug build with AddressSanitizer + UndefinedBehaviorSanitizer and
#      -Werror, then the full ctest suite under it at MP_VALIDATE_LEVEL=2 so
#      the deep structural validators are exercised together with the
#      sanitizers.
#   4. A service smoke under the same ASan/UBSan build: boots mp_serve on a
#      throwaway socket, pushes a 4-job mixed-preset smoke through
#      mp_submit — including a schema-2 ECO (regulate) job submitted twice,
#      whose resubmission must hit the placement and prepared-artifact
#      caches — then SIGTERMs the daemon and verifies a clean drain (all
#      jobs done, exit 0, socket unlinked) — see docs/SERVICE.md.
#   5. A ThreadSanitizer build (its own tree — TSan cannot be combined with
#      ASan) running the `par`-, `svc`-, `obs`-, `net`- and `eco`-labelled
#      suites (ctest -L "par|svc|obs|net|eco") at MP_THREADS=4
#      MP_WORKERS=4: the thread pool, the golden placement table, the
#      lock-free obs metrics, every parallelized hot path
#      (docs/PARALLELISM.md), and the concurrent placement service — four
#      workers chewing through mixed-preset jobs with mid-run cancels,
#      thread-budget leases, and the in-flight-deduplicating artifact cache
#      (docs/SERVICE.md).  This leg is on by DEFAULT; pass --tsan to run the
#      FULL suite under TSan instead (slower), or --no-tsan to skip the
#      TSan leg entirely.
#   6. Schema validation of the committed perf artifacts
#      (results/BENCH_*.json) via scripts/validate_bench_json.py — stdlib
#      python only, skipped with a notice when none are present — and the
#      self-test of scripts/bench_diff.py, the mpbench parent/change report.
#   7. clang-tidy over the compile database, when clang-tidy is installed.
#      Skipped with a notice otherwise (the container ships gcc only).
#
# Build trees live under build-check/ and are reused across runs; use
# --fresh to reconfigure from scratch.  Also reachable as `cmake --build
# build --target check`.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${ROOT}"

JOBS="$(nproc 2>/dev/null || echo 4)"
TSAN_MODE=par   # par = `ctest -L "par|svc|obs|net|eco"` under TSan (default); full; off
FRESH=0
for arg in "$@"; do
  case "${arg}" in
    --tsan) TSAN_MODE=full ;;
    --no-tsan) TSAN_MODE=off ;;
    --fresh) FRESH=1 ;;
    -h|--help)
      echo "usage: scripts/check.sh [--tsan|--no-tsan] [--fresh]"
      echo
      echo "Stages, in order: mplint static analysis (fails fast; also"
      echo "reachable as 'cmake --build build --target lint'), mpbench build"
      echo "+ mpbench_tests, ASan/UBSan build + full ctest, mp_serve smoke,"
      echo "TSan leg, bench-artifact schema validation + bench_diff self-test,"
      echo "clang-tidy (when installed)."
      echo
      echo "  --tsan     run the FULL suite under TSan (default: par|svc|obs|net|eco)"
      echo "  --no-tsan  skip the TSan leg"
      echo "  --fresh    reconfigure the build-check/ trees from scratch"
      exit 0
      ;;
    *)
      echo "check.sh: unknown argument '${arg}'" >&2
      exit 2
      ;;
  esac
done

note() { printf '\n==== %s ====\n' "$*"; }

# Build one sanitized tree and run ctest in it; a third argument narrows the
# run to that ctest label (-L).
run_sanitized() {
  local name="$1" sanitizers="$2" label="${3:-}"
  local dir="build-check/${name}"
  local label_args=()
  [[ -n "${label}" ]] && label_args=(-L "${label}")
  [[ "${FRESH}" == 1 ]] && rm -rf "${dir}"
  note "${name}: configure (${sanitizers})"
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DMP_SANITIZE="${sanitizers}" \
    -DMP_WERROR=ON
  note "${name}: build"
  cmake --build "${dir}" -j "${JOBS}"
  note "${name}: ctest (MP_VALIDATE_LEVEL=2${label:+, -L ${label}})"
  # halt_on_error: the suite's death tests intentionally abort; only genuine
  # sanitizer reports should fail the run.
  MP_VALIDATE_LEVEL=2 \
  ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1" \
  UBSAN_OPTIONS="print_stacktrace=1" \
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
      ${label_args[@]+"${label_args[@]}"}
}

# Boots the sanitized mp_serve daemon, runs a 4-job smoke through mp_submit
# (one mcts whose placement seeds a schema-2 regulate job submitted twice —
# the warm resubmission must hit the placement + prepared caches — then one
# sa; all tiny synthetic designs), then SIGTERMs with the last job still in
# flight and verifies the graceful drain: all jobs done, exit status 0, no
# stale socket.  Every step fails the gate on a non-zero exit (set -euo
# pipefail above).
svc_smoke() {
  local dir="build-check/asan"
  local sock="${TMPDIR:-/tmp}/mp_check_svc_$$.sock"
  local log="build-check/svc_smoke.log"
  local base='"synthetic":{"movable_macros":8,"std_cells":300,"nets":400,"io_pads":16,"seed":5},"episodes":6,"gamma":4,"grid":8,"channels":8,"blocks":1'
  rm -f "${sock}"
  ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    "${dir}/examples/mp_serve" --socket "${sock}" --workers 2 >"${log}" 2>&1 &
  local pid=$!
  local up=0
  for _ in $(seq 1 300); do
    [[ -S "${sock}" ]] && { up=1; break; }
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.1
  done
  if [[ "${up}" != 1 ]]; then
    echo "svc: mp_serve did not come up; log follows" >&2
    cat "${log}" >&2
    kill "${pid}" 2>/dev/null || true
    return 1
  fi
  local out_prefix="${TMPDIR:-/tmp}/mp_check_eco_$$"
  "${dir}/examples/mp_submit" --socket "${sock}" \
    submit "{${base},\"preset\":\"mcts\",\"out\":\"${out_prefix}\"}" --wait
  # ECO leg: the mcts job's placement becomes a schema-2 regulate job's
  # incumbent.  Submitted twice — the resubmission must ride the warm
  # cache (design, placement, and prepared-regulate artifacts all hit).
  local eco="{${base},\"schema\":2,\"preset\":\"regulate\",\"initial_placement\":\"${out_prefix}.pl\"}"
  "${dir}/examples/mp_submit" --socket "${sock}" submit "${eco}" --wait
  "${dir}/examples/mp_submit" --socket "${sock}" submit "${eco}" --wait
  local stats
  stats="$("${dir}/examples/mp_submit" --socket "${sock}" stats)"
  for counter in placement_hits prepared_hits; do
    local n
    n="$(printf '%s' "${stats}" | grep -o "\"${counter}\":[0-9]*" \
      | head -1 | cut -d: -f2)"
    if [[ -z "${n}" || "${n}" -lt 1 ]]; then
      echo "svc: warm ECO resubmission did not hit the ${counter%_hits} cache" >&2
      echo "${stats}" >&2
      rm -f "${out_prefix}".*
      return 1
    fi
  done
  rm -f "${out_prefix}".*
  # Left in flight on purpose: the drain below must run it to completion.
  "${dir}/examples/mp_submit" --socket "${sock}" \
    submit "{${base},\"preset\":\"sa\"}"
  kill -TERM "${pid}"
  local status=0
  wait "${pid}" || status=$?
  if [[ "${status}" != 0 ]]; then
    echo "svc: mp_serve exited ${status} after SIGTERM; log follows" >&2
    cat "${log}" >&2
    return 1
  fi
  if ! grep -q "drained (4 done, 0 failed, 0 cancelled)" "${log}"; then
    echo "svc: unexpected drain summary; log follows" >&2
    cat "${log}" >&2
    return 1
  fi
  if [[ -e "${sock}" ]]; then
    echo "svc: stale socket ${sock} left behind after drain" >&2
    return 1
  fi
}

# Stage 1: mplint.  Cheapest gate by orders of magnitude (a static library +
# one small binary, no sanitizers), so a determinism or lock-discipline
# finding fails the run before any sanitizer tree even configures.
run_lint() {
  local dir="build-check/lint"
  [[ "${FRESH}" == 1 ]] && rm -rf "${dir}"
  note "lint: build mplint"
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "${dir}" --target mplint -j "${JOBS}"
  note "lint: mplint over src/ (determinism, locks, header hygiene)"
  "${dir}/tools/mplint/mplint" --root "${ROOT}"
}

# Stage 2: the benchmark program, built from its own CMake project exactly
# as mpbench/run.py builds it, plus the tests of its helpers.
run_mpbench_build() {
  local dir="build-check/mpbench"
  [[ "${FRESH}" == 1 ]] && rm -rf "${dir}"
  note "mpbench: configure + build (mpbench, mpbench_tests)"
  cmake -B "${dir}" -S mpbench >/dev/null
  cmake --build "${dir}" --target mpbench mpbench_tests -j "${JOBS}"
  note "mpbench: mpbench_tests"
  "${dir}/mpbench_tests"
}

# Fleet smoke under the same ASan/UBSan build (docs/DISTRIBUTED.md): two
# TCP backends behind an mp_route coordinator.  Submits one job through the
# router, kills the backend that ran it, then submits a second job and asks
# for the first one's result again — the router must fail over to the
# surviving backend (re-submitting in-flight work to the ring successor) and
# both jobs must come back done.
fleet_smoke() {
  local dir="build-check/asan"
  local log="build-check/fleet_smoke.log"
  local base='"synthetic":{"movable_macros":8,"std_cells":300,"nets":400,"io_pads":16,"seed":5},"episodes":6,"gamma":4,"grid":8,"channels":8,"blocks":1'
  local san_env=(env
    ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
    UBSAN_OPTIONS="print_stacktrace=1")
  : >"${log}"

  # Backends on ephemeral ports; their bound URIs are printed on stdout as
  # "mp_serve: listening on tcp:127.0.0.1:PORT ...".
  local b1_log="build-check/fleet_b1.log" b2_log="build-check/fleet_b2.log"
  "${san_env[@]}" "${dir}/examples/mp_serve" --listen tcp:127.0.0.1:0 \
    --workers 2 >"${b1_log}" 2>&1 &
  local b1_pid=$!
  "${san_env[@]}" "${dir}/examples/mp_serve" --listen tcp:127.0.0.1:0 \
    --workers 2 >"${b2_log}" 2>&1 &
  local b2_pid=$!
  local b1_uri="" b2_uri=""
  for _ in $(seq 1 300); do
    b1_uri="$(sed -n 's/.*listening on \(tcp:[^ ]*\).*/\1/p' "${b1_log}" | head -1)"
    b2_uri="$(sed -n 's/.*listening on \(tcp:[^ ]*\).*/\1/p' "${b2_log}" | head -1)"
    [[ -n "${b1_uri}" && -n "${b2_uri}" ]] && break
    sleep 0.1
  done
  if [[ -z "${b1_uri}" || -z "${b2_uri}" ]]; then
    echo "fleet: backends did not come up" >&2
    cat "${b1_log}" "${b2_log}" >&2
    kill "${b1_pid}" "${b2_pid}" 2>/dev/null || true
    return 1
  fi

  local router_log="build-check/fleet_route.log"
  "${san_env[@]}" "${dir}/examples/mp_route" --listen tcp:127.0.0.1:0 \
    --backends "${b1_uri},${b2_uri}" --health-period 0.1 \
    >"${router_log}" 2>&1 &
  local route_pid=$!
  local route_uri=""
  for _ in $(seq 1 300); do
    route_uri="$(sed -n 's/.*listening on \(tcp:[^ ]*\).*/\1/p' "${router_log}" | head -1)"
    [[ -n "${route_uri}" ]] && break
    sleep 0.1
  done
  if [[ -z "${route_uri}" ]]; then
    echo "fleet: mp_route did not come up" >&2
    cat "${router_log}" >&2
    kill "${b1_pid}" "${b2_pid}" "${route_pid}" 2>/dev/null || true
    return 1
  fi

  local cleanup_pids=("${b1_pid}" "${b2_pid}" "${route_pid}")
  local status=0
  (
    set -euo pipefail
    # Job 1 through the router; the submit reply (no --wait) names the
    # backend the ring chose.  Wait for completion via `result` so the kill
    # below hits a backend that holds a finished job's only result copy.
    reply="$("${dir}/examples/mp_submit" --endpoint "${route_uri}" \
      submit "{${base},\"preset\":\"mcts\"}")"
    echo "fleet: job1 ${reply}" >>"${log}"
    job1="$(printf '%s' "${reply}" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    victim="$(printf '%s' "${reply}" | sed -n 's/.*"backend":"\([^"]*\)".*/\1/p')"
    [[ -n "${job1}" && -n "${victim}" ]]
    "${dir}/examples/mp_submit" --endpoint "${route_uri}" \
      result "${job1}" --timeout 300 >>"${log}"

    # Kill the backend that owns job 1.
    if [[ "${victim}" == "${b1_uri}" ]]; then kill -KILL "${b1_pid}";
    else kill -KILL "${b2_pid}"; fi

    # The router must detect the loss, re-submit job 1 to the survivor, and
    # keep serving: both its result and a brand-new job succeed.
    "${dir}/examples/mp_submit" --endpoint "${route_uri}" \
      result "${job1}" --timeout 300 >>"${log}"
    "${dir}/examples/mp_submit" --endpoint "${route_uri}" \
      submit "{${base},\"preset\":\"sa\"}" --wait >>"${log}"
  ) || status=$?
  kill "${cleanup_pids[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
  if [[ "${status}" != 0 ]]; then
    echo "fleet: smoke failed; logs follow" >&2
    cat "${log}" "${router_log}" >&2
    return 1
  fi
}

run_lint
run_mpbench_build
run_sanitized asan "address;undefined"
note "svc: mp_serve smoke (2 jobs + SIGTERM drain, ASan/UBSan)"
svc_smoke
note "fleet: mp_route smoke (2 TCP backends, backend kill + failover)"
fleet_smoke
case "${TSAN_MODE}" in
  # Exercise the pool, shared-tree/self-play paths, AND the concurrent
  # service (4 scheduler workers — the svc-labelled stress submits 8
  # mixed-preset jobs and cancels two mid-run) with several threads even on
  # small CI machines.
  par)  MP_THREADS="${MP_THREADS:-4}" MP_WORKERS="${MP_WORKERS:-4}" \
          run_sanitized tsan "thread" "par|svc|obs|net|eco" ;;
  full) MP_THREADS="${MP_THREADS:-4}" MP_WORKERS="${MP_WORKERS:-4}" \
          run_sanitized tsan "thread" ;;
  off)  note "tsan: skipped (--no-tsan)" ;;
esac

note "bench artifacts: schema validation (results/BENCH_*.json), bench_diff self-test"
BENCH_ARTIFACTS=(results/BENCH_*.json)
if [[ -e "${BENCH_ARTIFACTS[0]}" ]]; then
  python3 scripts/validate_bench_json.py "${BENCH_ARTIFACTS[@]}"
else
  echo "no results/BENCH_*.json artifacts present; skipping" >&2
fi
python3 scripts/bench_diff.py --self-test

note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  TIDY_DIR="build-check/tidy"
  [[ "${FRESH}" == 1 ]] && rm -rf "${TIDY_DIR}"
  cmake -B "${TIDY_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  mapfile -t SOURCES < <(find src tests -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p "${TIDY_DIR}" "${SOURCES[@]}"
  else
    clang-tidy -quiet -p "${TIDY_DIR}" "${SOURCES[@]}"
  fi
else
  echo "clang-tidy not installed; skipping static analysis pass" >&2
fi

note "check.sh: all gates passed"

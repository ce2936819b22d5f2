#!/usr/bin/env python3
"""Build and run one workload of the placer's end-to-end benchmark.

    python3 mpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 mpbench/run.py --self-test

The first form configures and builds mpbench/ with CMake into
.bench_build/mpbench (the library sources under src/ included), runs the
benchmark program in a fresh scratch directory under the build tree,
removes that directory again and relays the program's output.  The last line of standard
output is the result JSON; build logs go to standard error.  A traced run
(--trace 1) also keeps the benchmark's own span log in
.bench_build/mpbench/spans/.  --self-test builds and runs the tests of the
benchmark's helpers.  Workloads and metrics: mpbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "mpbench"
RUN_TIMEOUT_S = 170


def clean_env():
    """The caller's environment without the library's MP_*/REPRO_* knobs.

    They change thread counts, telemetry and validation depth, so a stray one
    would change what the benchmark measures.
    """
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("MP_", "REPRO_"))}


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    makefile = BUILD / "Makefile"
    if (not makefile.exists()
            or makefile.stat().st_mtime < (HERE / "CMakeLists.txt").stat().st_mtime):
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=clean_env())
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", target],
                   stdout=sys.stderr, check=True, env=clean_env())


def run_child(cmd, cwd):
    """Runs cmd to completion (killing it past the timeout); returns
    (exit code, stdout text)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=clean_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: mpbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def valid_result(line, trace):
    """True when line is a result object whose metrics are exactly the
    BENCHMARK.json list for this mode, each with a value and a unit."""
    try:
        result = json.loads(line)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ValueError, OSError):
        return False
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and set(result["metrics"]) == names
            and all(set(m) == {"value", "unit"}
                    for m in result["metrics"].values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build("mpbench_tests")
        return subprocess.run([str(BUILD / "mpbench_tests")],
                              env=clean_env()).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build("mpbench")
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(BUILD / "mpbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace == 1:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        code, out = run_child(cmd, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not valid_result(lines[-1], args.trace):
        sys.stderr.write(out)
        print(f"run.py: mpbench failed (exit {code})", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Compare mpbench result lines of a parent and a change, metric by metric.

    python3 scripts/bench_diff.py PARENT CHANGE
    python3 scripts/bench_diff.py --self-test

PARENT and CHANGE each hold one or more mpbench result lines of one
workload (the last line of every `mpbench/run.py` run).  Other lines are
skipped, so raw run.py output can be concatenated into the files as it is.
The n-th result line of PARENT and the n-th of CHANGE form one pair, so runs
that alternated between the two trees line up.

For every end-to-end metric of BENCHMARK.json it prints both sides' medians
and quartiles, the change's delta in percent ("identical" when every run on
both sides read the same value, bit for bit), the metric's bound (marked
WORSE when the change is worse than the parent's median by more than the
bound) and how many pairs the change won, ties counting for neither.
Per-layer metrics, from traced (--trace 1) lines, get medians and deltas
only.  It also prints each side's fail_frac (failed / attempted over all its
lines).

It never gates: the exit status is 0 whatever the deltas are, and 2 when an
input is unreadable or holds no result line.  Stdlib only.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class InputError(Exception):
    pass


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary(values):
    s = sorted(values)
    return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)


def result_lines(text, label):
    """The mpbench result objects in text, in order."""
    results = []
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line.startswith('{"attempted"'):
            continue
        try:
            obj = json.loads(line)
            metrics = {name: float(m["value"])
                       for name, m in obj["metrics"].items()}
            attempted = int(obj["attempted"])
            failed = int(obj["failed"])
        except (ValueError, KeyError, TypeError) as e:
            raise InputError(f"{label}:{n}: malformed result line ({e})")
        results.append({"metrics": metrics, "attempted": attempted,
                        "failed": failed})
    if not results:
        raise InputError(f"{label}: no mpbench result line")
    return results


def series(results, name):
    return [r["metrics"][name] for r in results if name in r["metrics"]]


def delta(p, c):
    """The change's median against the parent's, in percent."""
    if len(set(p) | set(c)) == 1:
        return "identical"
    return pct(summary(p)[1], summary(c)[1])


def pct(parent, change):
    if parent == 0.0:
        return "n/a" if change != 0.0 else "+0.0%"
    return f"{100.0 * (change - parent) / abs(parent):+.1f}%"


def fmt(v):
    return f"{v:.6g}"


def fail_frac(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def diff(parent, change, declared):
    """The report comparing two lists of result objects, as lines."""
    out = [f"lines: parent {len(parent)}, change {len(change)}; "
           f"fail_frac: parent {fail_frac(parent):.3g}, "
           f"change {fail_frac(change):.3g}"]
    rows = []
    for m in declared["end_to_end"]:
        p, c = series(parent, m["name"]), series(change, m["name"])
        if not p or not c:
            continue
        pq, cq = summary(p), summary(c)
        lower = m["better"] == "lower"
        worse = (cq[1] - pq[1]) if lower else (pq[1] - cq[1])
        mark = ("WORSE" if pq[1] != 0.0 and worse / abs(pq[1]) > m["bound"]
                else "")
        pairs = list(zip(p, c))
        won = sum(1 for a, b in pairs if (b < a if lower else b > a))
        rows.append([m["name"], m["unit"],
                     f"{fmt(pq[1])} [{fmt(pq[0])}, {fmt(pq[2])}]",
                     f"{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]",
                     delta(p, c), f"{m['bound']:g} {mark}".rstrip(),
                     f"{won}/{len(pairs)}"])
    if rows:
        out.append("")
        out += table(["metric", "unit", "parent median [q1, q3]",
                      "change median [q1, q3]", "delta", "bound", "won"],
                     rows)
    rows = []
    for m in declared["per_layer"]:
        p, c = series(parent, m["name"]), series(change, m["name"])
        if not p or not c:
            continue
        rows.append([m["name"], m["unit"], fmt(summary(p)[1]),
                     fmt(summary(c)[1]), delta(p, c)])
    if rows:
        out.append("")
        out += table(["per-layer metric", "unit", "parent median",
                      "change median", "delta"], rows)
    return out


def table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    line = lambda r: "  ".join(str(v).ljust(w) for v, w in zip(r, widths))
    return [line(header).rstrip(), line(["-" * w for w in widths]).rstrip()] + \
        [line(r).rstrip() for r in rows]


def result_line(metrics, failed=0):
    body = ",".join(f'"{k}":{{"unit":"s","value":{v}}}'
                    for k, v in metrics.items())
    return (f'{{"attempted":4,"correct":{"true" if failed == 0 else "false"},'
            f'"failed":{failed},"metrics":{{{body}}}}}')


# The self-test's own declaration, so that it does not follow the bounds
# BENCHMARK.json may change.
SELF_TEST_DECLARED = {
    "end_to_end": [
        {"name": "place_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "hpwl", "unit": "HPWL", "better": "lower", "bound": 0.02},
        {"name": "capacity_jobs_per_s", "unit": "jobs/s", "better": "higher",
         "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "gp.global_place_s", "unit": "s", "better": "lower"},
    ],
}


def self_test():
    """Checks the parser, the statistics and the marks on built-in lines."""
    assert summary([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert summary([7.0]) == (7.0, 7.0, 7.0)
    parent_text = "\n".join([
        "build log line",
        result_line({"place_s": 10.0, "hpwl": 100.0,
                     "capacity_jobs_per_s": 2.0, "setup_s": 0.5}),
        "placement 1: 10.0 s",
        result_line({"place_s": 11.0, "hpwl": 100.0,
                     "capacity_jobs_per_s": 2.0}),
        result_line({"place_s": 12.0, "hpwl": 100.0,
                     "capacity_jobs_per_s": 2.0}),
        result_line({"gp.global_place_s": 4.0}),
    ])
    change_text = "\n".join([
        result_line({"place_s": 6.0, "hpwl": 103.0,
                     "capacity_jobs_per_s": 1.0, "setup_s": 0.5}),
        result_line({"place_s": 12.5, "hpwl": 103.0,
                     "capacity_jobs_per_s": 1.0}, failed=1),
        result_line({"place_s": 7.0, "hpwl": 103.0,
                     "capacity_jobs_per_s": 1.0}),
        result_line({"gp.global_place_s": 1.0}),
    ])
    parent = result_lines(parent_text, "parent")
    change = result_lines(change_text, "change")
    assert len(parent) == 4 and len(change) == 4
    report = diff(parent, change, SELF_TEST_DECLARED)
    text = "\n".join(report)
    row = {r.split()[0]: r for r in report if r and not r.startswith("-")}
    assert "fail_frac: parent 0, change 0.0625" in report[0], report[0]
    assert "-36.4%" in row["place_s"] and "2/3" in row["place_s"], text
    assert "WORSE" not in row["place_s"], text
    assert "+3.0%" in row["hpwl"] and "WORSE" in row["hpwl"], text
    assert "-50.0%" in row["capacity_jobs_per_s"], text
    assert "WORSE" in row["capacity_jobs_per_s"], text
    assert "0/3" in row["capacity_jobs_per_s"], text
    assert "identical" in row["setup_s"] and "0/1" in row["setup_s"], text
    assert "-75.0%" in row["gp.global_place_s"], text
    assert "WORSE" not in row["gp.global_place_s"], text
    for bad in ["no result here", '{"attempted":1,"metrics":'
                '{"place_s":{"value":"x"}}}']:
        try:
            result_lines(bad, "bad")
        except InputError:
            continue
        raise AssertionError(f"accepted malformed input: {bad!r}")
    print("bench_diff self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    benchmark = ROOT / "BENCHMARK.json"
    try:
        declared = json.loads(benchmark.read_text())
    except (OSError, ValueError) as e:
        print(f"bench_diff: {benchmark}: {e}", file=sys.stderr)
        return 2
    try:
        parent = result_lines(Path(args.parent).read_text(), args.parent)
        change = result_lines(Path(args.change).read_text(), args.change)
    except (OSError, InputError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    print("\n".join(diff(parent, change, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

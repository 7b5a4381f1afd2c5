#!/usr/bin/env python3
"""Compares two sets of bench_partdb results, parent against change.

    python3 bench_partdb/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
    python3 bench_partdb/compare.py --self-test

Each directory holds the result files run.py writes (<build>/results/*.json;
span files, *.trace.json, are skipped). Runs pair up by workload, trace level
and seed. For every workload and metric it prints each side's median and
quartiles and the share of pairs the change wins (ties count for neither).

End-to-end metrics get a verdict from their bound in BENCHMARK.json. The
parent's spread is its quartile distance over its median.
  regressed   the change's median is worse than the parent's by more than
              the bound and by more than the parent's spread;
  improved    at least 10 pairs, the change wins at least 9 in 10 of them,
              and the medians differ by more than the parent's quartile
              distance;
  unresolved  otherwise, when the median is worse by more than the bound
              (but within the parent's spread), or the parent's spread is
              wider than the bound so a regression could hide in it; unless
              every change run beats every parent run, which makes it
              unchanged;
  unchanged   otherwise.
Per-layer metrics are printed without a verdict.

Exit status: 0 when nothing regressed, 1 on a regression, a missing metric or
a failed run on the change side, 2 on a malformed or unreadable input.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")
RESULT_KEYS = ("workload", "seed", "trace", "correct", "metrics")
MIN_PAIRS = 10  # seed pairs needed before a change can count as an improvement


class Malformed(Exception):
    pass


def parse_result(text, name):
    """One result file's contents -> dict; raises Malformed naming the file."""
    try:
        r = json.loads(text)
    except json.JSONDecodeError as e:
        raise Malformed(f"{name}: not JSON ({e})")
    if not isinstance(r, dict) or any(k not in r for k in RESULT_KEYS):
        raise Malformed(f"{name}: missing one of {', '.join(RESULT_KEYS)}")
    if not isinstance(r["metrics"], dict):
        raise Malformed(f"{name}: metrics is not an object")
    for metric, m in r["metrics"].items():
        if not isinstance(m, dict) or not isinstance(m.get("value"), (int, float)):
            raise Malformed(f"{name}: metric {metric} has no numeric value")
    return r


def load_dir(path):
    results = []
    for f in sorted(os.listdir(path)):
        if not f.endswith(".json") or f.endswith(".trace.json"):
            continue
        full = os.path.join(path, f)
        with open(full, encoding="utf-8") as fh:
            results.append(parse_result(fh.read(), full))
    if not results:
        raise Malformed(f"{path}: no result files")
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    """The rule of the module docstring; returns (verdict, detail)."""
    sign = 1 if better == "higher" else -1
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, _, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    detail = f"worse by {worse:+.1%} (bound {bound:.0%}), parent spread {spread:.1%}"
    if worse > bound and worse > spread:
        return "regressed", detail
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and worse < 0
            and abs(c_med - p_med) > q3 - q1):
        return "improved", detail
    if worse > bound or spread > bound:
        if all(sign * (c - p) > 0 for p in parent for c in change):
            return "unchanged", detail
        return "unresolved", detail
    return "unchanged", detail


def compare(parent, change, benchmark, out=print):
    """Returns the exit status; prints one line per workload and metric."""
    e2e = {m["name"]: m for m in benchmark["end_to_end"]}
    layer = {m["name"]: m for m in benchmark["per_layer"]}
    status = 0
    groups = sorted({(r["workload"], r["trace"]) for r in parent + change})
    for workload, trace in groups:
        p_runs = {r["seed"]: r for r in parent if (r["workload"], r["trace"]) == (workload, trace)}
        c_runs = {r["seed"]: r for r in change if (r["workload"], r["trace"]) == (workload, trace)}
        label = f"{workload} (trace {trace})"
        if not p_runs or not c_runs:
            out(f"{label}: only one side has runs; skipped")
            continue
        failed = [s for s, r in c_runs.items() if not r["correct"]]
        if failed:
            out(f"{label}: FAILED change runs (seeds {failed})")
            status = 1
        expected = e2e if trace == 0 else layer
        out(f"{label}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        for name, spec in expected.items():
            p_vals = [r["metrics"][name]["value"] for r in p_runs.values() if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs.values() if name in r["metrics"]]
            if len(p_vals) < len(p_runs) or len(c_vals) < len(c_runs):
                out(f"  {name}: MISSING from some runs")
                status = 1
                continue
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in sorted(set(p_runs) & set(c_runs))]
            sign = 1 if spec["better"] == "higher" else -1
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            line = (f"  {name:32s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                    f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {spec['unit']}  "
                    f"wins {wins}/{len(pairs)}")
            if trace == 0:
                v, detail = verdict(p_vals, c_vals, pairs, spec["better"], spec["bound"])
                line += f"  {v.upper()}: {detail}"
                if v == "regressed":
                    status = 1
            out(line)
    return status


def self_test():
    bench = {
        "end_to_end": [
            {"name": "txn_per_s", "unit": "txn/s", "better": "higher", "bound": 0.1},
            {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
        ],
        "per_layer": [{"name": "engine.exec_p50_ns", "unit": "ns", "better": "lower"}],
    }

    def runs(tps, p50, workload="kv_mem", correct=True):
        return [{"workload": workload, "seed": i, "trace": 0, "correct": correct,
                 "metrics": {"txn_per_s": {"value": t, "unit": "txn/s"},
                             "p50_us": {"value": p, "unit": "us"}}}
                for i, (t, p) in enumerate(zip(tps, p50))]

    def run(parent, change):
        lines = []
        return compare(parent, change, bench, out=lines.append), "\n".join(lines)

    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    p50 = [50, 51, 49, 50, 50, 52, 48, 50, 51, 49]
    cases = []

    status, text = run(runs(steady, p50), runs([v * 1.02 for v in steady], p50))
    cases.append(("pass", status == 0 and "REGRESSED" not in text))

    status, text = run(runs(steady, p50), runs([v * 0.8 for v in steady], p50))
    cases.append(("regression", status == 1 and "txn_per_s" in text and "REGRESSED" in text))

    wide = [100, 140, 70, 120, 60, 130, 80, 100, 150, 65]
    status, text = run(runs(wide, p50), runs([v * 0.85 for v in wide], p50))
    cases.append(("unresolved spread", status == 0 and "UNRESOLVED" in text))

    change = runs(steady, p50)
    del change[3]["metrics"]["p50_us"]
    status, text = run(runs(steady, p50), change)
    cases.append(("missing metric", status == 1 and "p50_us: MISSING" in text))

    status, text = run(runs(wide, p50), runs([v * 0.25 for v in wide], p50))
    cases.append(("regression beyond the spread", status == 1 and "REGRESSED" in text))

    status, text = run(runs(steady, p50), runs([v * 1.5 for v in steady], p50))
    cases.append(("improvement", status == 0 and "IMPROVED" in text))

    status, text = run(runs(steady[:3], p50[:3]), runs([v * 1.5 for v in steady[:3]], p50[:3]))
    cases.append(("too few pairs to improve",
                  status == 0 and "IMPROVED" not in text and "UNCHANGED" in text))

    status, text = run(runs(steady, p50), runs(steady, p50, correct=False))
    cases.append(("failed change run", status == 1 and "FAILED" in text))

    malformed = []
    for text in ("{not json", '{"workload": "kv_mem"}',
                 '{"workload": "kv_mem", "seed": 1, "trace": 0, "correct": true, '
                 '"metrics": {"p50_us": {"unit": "us"}}}'):
        try:
            parse_result(text, "fixture.json")
            malformed.append(False)
        except Malformed as e:
            malformed.append("fixture.json" in str(e))
    cases.append(("malformed file", all(malformed)))

    ok = True
    for name, passed in cases:
        print(f"self-test {name}: {'ok' if passed else 'FAILED'}")
        ok = ok and passed
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", nargs="?")
    p.add_argument("change", nargs="?")
    p.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        p.error("PARENT_DIR and CHANGE_DIR are required")
    try:
        with open(args.benchmark, encoding="utf-8") as fh:
            benchmark = json.load(fh)
        parent, change = load_dir(args.parent), load_dir(args.change)
    except (OSError, ValueError, Malformed) as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 2
    return compare(parent, change, benchmark)


if __name__ == "__main__":
    sys.exit(main())

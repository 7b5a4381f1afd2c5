#!/usr/bin/env python3
"""Perf-regression gate for the self-verifying benches.

Compares a freshly produced BENCH_*.json (bench/parallel_throughput.cc,
bench/tpcc_parallel.cc via WriteSchemeJson) against the committed baseline
under bench/baselines/ and fails when any scheme's throughput regressed by
more than the threshold (default 30%). Only txn_per_sec is gated; a row's
other fields (latency percentiles, the report-only wakes_per_kmsg,
wakes_per_kframe, cpu_us_per_txn and msgs_per_push) are carried for the
reader and never compared.

Baselines are conservative: they are refreshed whenever a PR deliberately
changes performance, and a baseline captured on slower hardware than the CI
runner only ever weakens the gate (the gate fires on regressions, never on
improvements), so cross-machine refreshes are safe in that direction.

Usage:
  tools/check_bench.py --baseline bench/baselines/BENCH_parallel_throughput.json \
      --fresh BENCH_parallel_throughput.json [--max-regression 0.30] [--warn-only]
  tools/check_bench.py --self-test

Exit status: 0 when every scheme is within the threshold (or --warn-only),
1 on a regression, 2 on malformed input. Every failure message names the
file, scheme, and metric responsible.
"""

import argparse
import json
import os
import sys


class MalformedInput(Exception):
    """Input a gate run cannot proceed on; the message names the culprit."""


def load_schemes(path):
    """Returns (doc, {scheme name: row}) or raises MalformedInput naming the
    file, row, and metric that broke the parse."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise MalformedInput(f"cannot read {path}: {e}")
    if not isinstance(doc, dict):
        raise MalformedInput(f"{path}: top level is {type(doc).__name__}, not an object")
    rows = doc.get("schemes")
    if not isinstance(rows, list) or not rows:
        raise MalformedInput(f"{path}: no 'schemes' array")
    schemes = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not isinstance(row.get("scheme"), str):
            raise MalformedInput(f"{path}: schemes[{i}] has no 'scheme' name")
        name = row["scheme"]
        try:
            row["txn_per_sec"] = float(row["txn_per_sec"])
        except KeyError:
            raise MalformedInput(
                f"{path}: scheme '{name}' is missing metric 'txn_per_sec'")
        except (TypeError, ValueError):
            raise MalformedInput(
                f"{path}: scheme '{name}' metric 'txn_per_sec' is not a number "
                f"({row['txn_per_sec']!r})")
        if name in schemes:
            raise MalformedInput(f"{path}: duplicate scheme '{name}'")
        schemes[name] = row
    return doc, schemes


def run_gate(baseline, fresh, max_regression, warn_only, out=sys.stdout,
             err=sys.stderr):
    """The whole gate as a function of two paths; returns the exit status."""
    if not os.path.exists(baseline):
        # A brand-new bench has fresh results but no committed baseline yet:
        # that is the expected state of the PR that introduces it, not a
        # failure. Still validate the fresh file so a malformed new bench is
        # caught, then warn so the baseline gets committed.
        try:
            load_schemes(fresh)
        except MalformedInput as e:
            print(f"check_bench: {e}", file=err)
            return 2
        print(f"check_bench: warning: no committed baseline {baseline} for "
              f"fresh results {fresh}; commit one to start gating this bench",
              file=err)
        return 0
    try:
        base_doc, base = load_schemes(baseline)
        fresh_doc, fresh_schemes = load_schemes(fresh)
    except MalformedInput as e:
        print(f"check_bench: {e}", file=err)
        return 2
    if base_doc.get("bench") != fresh_doc.get("bench"):
        print(f"check_bench: bench mismatch: baseline={base_doc.get('bench')} "
              f"fresh={fresh_doc.get('bench')}", file=err)
        return 2

    failed = []
    missing = []
    for name, b in sorted(base.items()):
        f = fresh_schemes.get(name)
        if f is None:
            print(f"check_bench: scheme '{name}' missing from fresh results "
                  f"({fresh})", file=err)
            missing.append(name)
            continue
        b_tps, f_tps = b["txn_per_sec"], f["txn_per_sec"]
        if b_tps <= 0:
            print(f"check_bench: baseline txn_per_sec for '{name}' is {b_tps}; "
                  f"skipping", file=out)
            continue
        delta = (f_tps - b_tps) / b_tps
        status = "ok"
        if delta < -max_regression:
            status = "REGRESSION"
            failed.append(name)
        print(f"{base_doc['bench']:>22} {name:<12} baseline={b_tps:>10.0f} "
              f"fresh={f_tps:>10.0f} delta={delta:+7.1%}  {status}", file=out)

    # A scheme present in the fresh results but absent from the baseline is a
    # newly added scheme, not a regression: warn (so the baseline gets
    # refreshed to start gating it) but never fail the build over it.
    new_schemes = sorted(set(fresh_schemes) - set(base))
    if new_schemes:
        print(f"check_bench: warning: new scheme(s) in fresh results, not in "
              f"baseline ({baseline}): {', '.join(new_schemes)} — refresh the "
              f"baseline to gate them", file=err)

    if failed or missing:
        kind = "warning" if warn_only else "FAIL"
        reasons = []
        if failed:
            reasons.append(f"txn_per_sec regressed >{max_regression:.0%} "
                           f"for scheme(s): {', '.join(failed)}")
        if missing:
            reasons.append(
                f"scheme(s) missing from fresh results: {', '.join(missing)}")
        print(f"check_bench: {kind}: {'; '.join(reasons)}", file=err)
        return 0 if warn_only else 1
    print(f"check_bench: all schemes within {max_regression:.0%} of baseline",
          file=out)
    return 0


def self_test():
    """Tiny fixture suite over run_gate; exercised by CI so a refactor that
    breaks the gate (or its exit codes) fails the build, not the next
    regression hunt."""
    import io
    import os
    import tempfile

    def doc(bench="kv", **tps):
        return {"bench": bench,
                "schemes": [{"scheme": k, "txn_per_sec": v} for k, v in tps.items()]}

    cases = [
        ("within threshold", doc(a=100, b=200), doc(a=95, b=190), False, 0, ""),
        ("regression fails", doc(a=100, b=200), doc(a=100, b=100), False, 1,
         "scheme(s): b"),
        ("warn-only passes", doc(a=100), doc(a=10), True, 0, "warning"),
        ("missing scheme", doc(a=100, b=200), doc(a=100), False, 1,
         "scheme(s) missing from fresh results: b"),
        ("missing is not a regression", doc(a=100, b=200), doc(a=100), False, 1,
         "FAIL: scheme(s) missing"),
        ("new scheme in fresh warns, not fails", doc(a=100),
         doc(a=100, mvcc=150), False, 0,
         "new scheme(s) in fresh results"),
        ("new scheme named in warning", doc(a=100),
         doc(a=100, mvcc=150), False, 0, "mvcc"),
        ("bad metric", doc(a=100), {"bench": "kv", "schemes": [{"scheme": "a"}]},
         False, 2, "missing metric 'txn_per_sec'"),
        ("non-numeric metric", doc(a=100),
         {"bench": "kv", "schemes": [{"scheme": "a", "txn_per_sec": "fast"}]},
         False, 2, "not a number"),
        ("bench mismatch", doc(a=100), doc("tpcc", a=100), False, 2, "bench mismatch"),
        ("empty schemes", doc(a=100), {"bench": "kv", "schemes": []}, False, 2,
         "no 'schemes' array"),
        ("report-only fields are not gated", doc(a=100),
         {"bench": "kv", "schemes": [{"scheme": "a", "txn_per_sec": 95,
                                      "wakes_per_kmsg": 900.0,
                                      "cpu_us_per_txn": "n/a",
                                      "msgs_per_push": 3.5}]},
         False, 0, "all schemes within"),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, base, fresh, warn_only, want_rc, want_msg in cases:
            bp = os.path.join(tmp, "base.json")
            fp = os.path.join(tmp, "fresh.json")
            with open(bp, "w", encoding="utf-8") as f:
                json.dump(base, f)
            with open(fp, "w", encoding="utf-8") as f:
                json.dump(fresh, f)
            out, err = io.StringIO(), io.StringIO()
            rc = run_gate(bp, fp, 0.30, warn_only, out=out, err=err)
            text = out.getvalue() + err.getvalue()
            if rc != want_rc:
                print(f"self-test FAIL [{label}]: exit {rc}, want {want_rc}")
                failures += 1
            elif want_msg and want_msg not in text:
                print(f"self-test FAIL [{label}]: output lacks {want_msg!r}:\n{text}")
                failures += 1

        out, err = io.StringIO(), io.StringIO()
        rc = run_gate(os.path.join(tmp, "nope.json"), os.path.join(tmp, "nope.json"),
                      0.30, False, out=out, err=err)
        if rc != 2 or "cannot read" not in err.getvalue():
            print(f"self-test FAIL [unreadable file]: exit {rc}, want 2")
            failures += 1

        # A missing baseline with valid fresh results is the new-bench case:
        # warn (naming the baseline path) and pass.
        fp = os.path.join(tmp, "fresh.json")
        with open(fp, "w", encoding="utf-8") as f:
            json.dump(doc(a=100), f)
        out, err = io.StringIO(), io.StringIO()
        rc = run_gate(os.path.join(tmp, "no_baseline.json"), fp, 0.30, False,
                      out=out, err=err)
        if rc != 0 or "no committed baseline" not in err.getvalue() \
                or "no_baseline.json" not in err.getvalue():
            print(f"self-test FAIL [missing baseline warns]: exit {rc}, want 0 "
                  f"with a warning naming the baseline:\n{err.getvalue()}")
            failures += 1

    total = len(cases) + 2
    if failures:
        print(f"check_bench --self-test: {failures}/{total} cases failed")
        return 1
    print(f"check_bench --self-test: all {total} cases passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="committed BENCH_*.json")
    ap.add_argument("--fresh", help="just-produced BENCH_*.json")
    ap.add_argument("--max-regression", type=float, default=0.30,
                    help="fail when throughput drops by more than this fraction")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 (sanitizer builds)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixture suite and exit")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if not args.baseline or not args.fresh:
        ap.error("--baseline and --fresh are required (or use --self-test)")
    sys.exit(run_gate(args.baseline, args.fresh, args.max_regression,
                      args.warn_only))


if __name__ == "__main__":
    main()

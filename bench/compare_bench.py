#!/usr/bin/env python3
"""Compare a BENCH_*.json perf report against a committed baseline.

Usage:
    compare_bench.py CURRENT BASELINE [--rate-tolerance 0.25]
                     [--counter-tolerance 0.0] [--update]

Rates (sessions/sec, pages/sec.*) may regress by at most
--rate-tolerance relative to the baseline (improvements always pass).
Telemetry counters are deterministic functions of the workload, so
they must match the baseline within --counter-tolerance (default:
exactly); a counter drift means the simulator does different *work*
than it did at the baseline commit, which is a behavioural change
that deserves a baseline refresh in the same PR.

Every run prints a per-metric delta table — pass or fail — so a CI
log always shows how far each rate and counter moved, not just which
one crossed the line. --update copies CURRENT over BASELINE after the
comparison (ignoring failures), which is how baselines are re-recorded
after an intentional perf or behaviour change.

Metrics the current run emits that the baseline lacks cannot gate —
they print as WARN so a new rate or counter is never silently
untracked; refreshing the baseline (--update) starts gating them.

Wall time, RSS, and duration accumulators are machine-dependent and
reported for information only. Exit status: 0 pass, 1 fail, 2 usage
(--update always exits 0 once the baseline is written).
"""

import argparse
import json
import shutil
import sys


def fail_usage(msg):
    """Input problems (missing/corrupt/mismatched files) are usage
    errors: one line on stderr, exit 2, never a traceback."""
    print(f"compare_bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        fail_usage(f"cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        fail_usage(f"{path} is not valid JSON (truncated or corrupt "
                   f"benchmark output?): {e}")
    if not isinstance(doc, dict) or doc.get("ariadneBench") != 1:
        fail_usage(f"{path}: not an ariadneBench v1 document")
    if "bench" not in doc:
        fail_usage(f"{path}: missing the 'bench' name field")
    return doc


def fmt_delta(cur, base):
    if base == 0:
        return "n/a" if cur == 0 else "new"
    return f"{(cur - base) / base:+.1%}"


def print_table(rows):
    """rows: (kind, name, current, baseline, delta, status)."""
    if not rows:
        return
    widths = [max(len(str(r[i])) for r in rows) for i in range(6)]
    for kind, name, cur, base, delta, status in rows:
        print(f"  {kind:<{widths[0]}}  {name:<{widths[1]}}  "
              f"{cur:>{widths[2]}}  {base:>{widths[3]}}  "
              f"{delta:>{widths[4]}}  {status}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--rate-tolerance", type=float, default=0.25,
                    help="max fractional rate regression (default 0.25)")
    ap.add_argument("--counter-tolerance", type=float, default=0.0,
                    help="max fractional counter drift (default exact)")
    ap.add_argument("--update", action="store_true",
                    help="re-record: copy CURRENT over BASELINE after "
                         "comparing (always exits 0)")
    args = ap.parse_args()

    cur = load(args.current)
    base = load(args.baseline)
    if cur["bench"] != base["bench"]:
        fail_usage(f"bench mismatch: {cur['bench']} vs "
                   f"{base['bench']}")

    failures = []
    rows = [("kind", "metric", "current", "baseline", "delta",
             "status")]

    cur_rates = cur.get("rates", {})
    for name, base_rate in base.get("rates", {}).items():
        cur_rate = cur_rates.get(name)
        if cur_rate is None:
            failures.append(f"rate '{name}' missing from current run")
            rows.append(("rate", name, "missing", f"{base_rate:.1f}",
                         "n/a", "FAIL"))
            continue
        floor = base_rate * (1.0 - args.rate_tolerance)
        ok = cur_rate >= floor
        rows.append(("rate", name, f"{cur_rate:.1f}",
                     f"{base_rate:.1f}", fmt_delta(cur_rate, base_rate),
                     "ok" if ok else "FAIL"))
        if not ok:
            failures.append(
                f"rate '{name}' regressed: {cur_rate:.1f} < "
                f"{floor:.1f} ({args.rate_tolerance:.0%} band below "
                f"baseline {base_rate:.1f})")
    warnings = []
    for name, cur_rate in cur_rates.items():
        if name not in base.get("rates", {}):
            rows.append(("rate", name, f"{cur_rate:.1f}", "absent",
                         "new", "WARN"))
            warnings.append(
                f"rate '{name}' absent from baseline — it is not "
                f"gated; refresh the baseline to start tracking it")

    cur_counters = cur.get("counters", {})
    for name, base_val in base.get("counters", {}).items():
        cur_val = cur_counters.get(name)
        if cur_val is None:
            failures.append(f"counter '{name}' missing from current run")
            rows.append(("counter", name, "missing", str(base_val),
                         "n/a", "FAIL"))
            continue
        limit = abs(base_val) * args.counter_tolerance
        ok = abs(cur_val - base_val) <= limit
        rows.append(("counter", name, str(cur_val), str(base_val),
                     fmt_delta(cur_val, base_val),
                     "ok" if ok else "FAIL"))
        if not ok:
            failures.append(
                f"counter '{name}' drifted: {cur_val} vs baseline "
                f"{base_val} (tolerance {args.counter_tolerance:.0%})")

    for name in cur_counters:
        if name not in base.get("counters", {}):
            rows.append(("counter", name, str(cur_counters[name]),
                         "absent", "new", "WARN"))
            warnings.append(
                f"counter '{name}' absent from baseline — new "
                f"instrumentation is not gated; refresh the "
                f"baseline to start tracking it")

    print(f"{cur['bench']}: current vs baseline")
    print_table(rows)
    for w in warnings:
        print(f"WARN: {w}")
    print(f"info: wall {cur.get('wallSeconds', 0):.2f}s vs baseline "
          f"{base.get('wallSeconds', 0):.2f}s, peak RSS "
          f"{cur.get('peakRssBytes', 0) // (1 << 20)} MiB "
          f"(informational)")

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"UPDATED: {args.baseline} re-recorded from "
              f"{args.current}"
              + (f" (overriding {len(failures)} failure(s))"
                 if failures else ""))
        return 0

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"PASS: {cur['bench']} within tolerance "
          f"(rates {args.rate_tolerance:.0%}, counters "
          f"{args.counter_tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Generic bench-artifact regression gate.

Compares one headline gauge (higher is better) between freshly produced
metrics artifacts and a committed baseline, and fails (exit 1) if the
current number regresses by more than --tolerance.

Raw wall-clock ratios across different machines (dev box vs shared CI
runner) are meaningless, so the gate normalizes by a second gauge measured
in the SAME run — a companion implementation riding the identical hot path,
so machine speed and runner noise cancel and what remains is the shape
difference the gate actually protects:

    expected = baseline_headline * (current_norm / baseline_norm)
    fail if current_headline < (1 - tolerance) * expected

Multiple current artifacts may be passed; the gate takes the BEST ratio.
Scheduler noise on a shared runner is one-sided (it only slows a cell
down), while a real regression depresses every run — so best-of-N rejects
noise without loosening the tolerance.

Optionally the gate also checks a latency histogram (lower is better) in
two halves, each against its own baseline percentile:

    shape: fail if (current_p99 / current_p50) >
                   (1 + p99_tolerance) * (baseline_p99 / baseline_p50)
    level: fail if current_p50 > (1 + p99_tolerance) * baseline_p50

The shape half scales the tail by the same histogram's median, a latency
from the same run, so machine speed cancels and a tail-only regression
shows. It cannot see a uniform slowdown (p99 and p50 move together); the
level half does. By default it compares the median unnormalized, which
suits an uncontended op: raw latency across machines is coarse, and the
tolerance absorbs that. The throughput scale would not do there: the
paper construction's ops/s in bench_e6 grows with the core count (2-2.8x
the 1-core baseline on 4 cores) while the u2 fast path's latency does not.
A contended op's median does grow with the core count (bench_q1's polylog
p50 is 1.3 us on the 1-core baseline and 1.6-7.4 us on 4 cores), and
there the normalizer's ops/s tracks it, so
--p50-throughput-scale compares against the baseline median divided by
the throughput scale:

    level: fail if current_p50 >
                   (1 + p99_tolerance) * baseline_p50 / machine_scale

Tail latency is far noisier than throughput, so --p99-tolerance defaults
to 1.0 (the current ratios may be up to 2x the baseline's).

Usage:
    tools/check_bench_regression.py build/run1.json build/run2.json \
        --baseline bench/results/BENCH_e6.json \
        --headline e6.rt.u2.n8.uncontended.ops_per_sec \
        --normalize e6.rt.paper.n8.uncontended.ops_per_sec \
        [--tolerance 0.10] \
        [--p99 e6.rt.u2.n8.uncontended.op_ns] [--p99-tolerance 1.0] \
        [--p50-throughput-scale]
"""

import argparse
import json
import sys


def _load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read metrics from {path}: {e}")


def gauge(doc, path, name):
    gauges = doc.get("gauges", {})
    if name not in gauges:
        sys.exit(f"error: gauge {name!r} missing from {path}")
    value = float(gauges[name])
    if value <= 0:
        sys.exit(f"error: gauge {name!r} in {path} is non-positive ({value})")
    return value


def hist_pct(doc, path, name, pct):
    hists = doc.get("histograms", {})
    if name not in hists:
        sys.exit(f"error: histogram {name!r} missing from {path}")
    value = float(hists[name].get(pct, 0.0))
    if value <= 0:
        sys.exit(f"error: histogram {name!r} in {path} has no {pct} "
                 f"({value})")
    return value


def check_required_gauges(doc, path, prefixes):
    """Every prefix must match at least one exported gauge — a bench run
    that silently stopped exporting its telemetry (contention counters,
    reclaim accounting) must fail the gate, not pass with less evidence."""
    gauges = doc.get("gauges", {})
    missing = [p for p in prefixes
               if not any(name.startswith(p) for name in gauges)]
    if missing:
        sys.exit(f"error: {path} exports no gauge matching required "
                 f"prefix(es): {', '.join(missing)}")


def run_gate(current_paths, baseline_path, headline, normalize,
             tolerance=0.10, p99=None, p99_tolerance=1.0,
             require_gauges=None, p50_throughput_scale=False):
    """Returns a process exit code (0 pass, 1 fail)."""
    base = _load(baseline_path)
    base_head = gauge(base, baseline_path, headline)
    base_norm = gauge(base, baseline_path, normalize)
    print(f"baseline : {headline}={base_head:.0f} "
          f"{normalize}={base_norm:.0f}")
    if p99:
        base_p50 = hist_pct(base, baseline_path, p99, "p50")
        base_shape = hist_pct(base, baseline_path, p99, "p99") / base_p50

    best_ratio = 0.0
    best_shape_ratio = float("inf")
    best_level_ratio = float("inf")
    for path in current_paths:
        cur = _load(path)
        if require_gauges:
            check_required_gauges(cur, path, require_gauges)
        cur_head = gauge(cur, path, headline)
        cur_norm = gauge(cur, path, normalize)
        machine_scale = cur_norm / base_norm
        ratio = cur_head / (base_head * machine_scale)
        best_ratio = max(best_ratio, ratio)
        line = (f"{path}: headline={cur_head:.0f} norm={cur_norm:.0f} "
                f"scale={machine_scale:.3f} ratio={ratio:.3f}")
        if p99:
            cur_p50 = hist_pct(cur, path, p99, "p50")
            cur_p99 = hist_pct(cur, path, p99, "p99")
            shape_ratio = (cur_p99 / cur_p50) / base_shape
            level_ratio = cur_p50 / base_p50
            if p50_throughput_scale:
                level_ratio *= machine_scale
            best_shape_ratio = min(best_shape_ratio, shape_ratio)
            best_level_ratio = min(best_level_ratio, level_ratio)
            line += (f" p50={cur_p50:.0f}ns p99={cur_p99:.0f}ns "
                     f"shape_ratio={shape_ratio:.3f} "
                     f"level_ratio={level_ratio:.3f}")
        print(line)

    print(f"best throughput ratio (current / normalized expected): "
          f"{best_ratio:.3f} (gate: >= {1.0 - tolerance:.3f})")

    failed = False
    if best_ratio < 1.0 - tolerance:
        print(f"FAIL: {headline} is {(1.0 - best_ratio) * 100.0:.1f}% below "
              f"the normalized baseline in every run (tolerance "
              f"{tolerance * 100.0:.0f}%).")
        failed = True
    if p99:
        limit = 1.0 + p99_tolerance
        for half, best, what in (
                ("shape", best_shape_ratio, "p99/p50"),
                ("level", best_level_ratio, "p50")):
            print(f"best {half} ratio ({what}, current / baseline): "
                  f"{best:.3f} (gate: <= {limit:.3f})")
            if best > limit:
                print(f"FAIL: {p99} {what} is {best:.2f}x the baseline's "
                      f"in every run (tolerance allows {limit:.2f}x).")
                failed = True
    if failed:
        return 1
    print("OK: within tolerance of the baseline.")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "current",
        nargs="+",
        help="metrics artifact(s) from the run(s) under test; the gate "
        "passes if ANY run is within tolerance",
    )
    ap.add_argument("--baseline", required=True,
                    help="committed baseline metrics artifact")
    ap.add_argument("--headline", required=True,
                    help="gauge under test (higher is better)")
    ap.add_argument(
        "--normalize", required=True,
        help="same-run gauge used to cancel machine speed (e.g. a companion "
        "implementation on the identical hot path)",
    )
    ap.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional regression of the normalized headline "
        "(default: %(default)s)",
    )
    ap.add_argument(
        "--p99", default=None,
        help="optional latency histogram whose p99/p50 shape and p50 level "
        "(lower is better) are also gated",
    )
    ap.add_argument(
        "--p99-tolerance", type=float, default=1.0,
        help="allowed fractional increase of the p99/p50 shape and of the "
        "p50 (default: %(default)s, i.e. up to 2x)",
    )
    ap.add_argument(
        "--p50-throughput-scale", action="store_true",
        help="divide the baseline p50 by the --normalize throughput scale "
        "before the level check (for contended ops; default: raw p50)",
    )
    ap.add_argument(
        "--require-gauges", action="append", default=[],
        help="gauge-name prefix that must match at least one gauge in every "
        "current artifact (repeatable); guards against telemetry silently "
        "disappearing from a bench",
    )
    args = ap.parse_args()
    return run_gate(args.current, args.baseline, args.headline,
                    args.normalize, args.tolerance, args.p99,
                    args.p99_tolerance, args.require_gauges,
                    args.p50_throughput_scale)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gate the kernel-telemetry overhead recorded by scripts/run-bench.sh.

The record is google-benchmark JSON holding repetitions of the paper-model
pair BM_SimulatedSecond (no sink) and BM_SimulatedSecondKernelStats (an
obs::KernelStats sink attached, where real event work amortizes the sink's
counters). Each benchmark's repetitions collapse to their minimum:
scheduler noise is strictly additive, so best-of-N is the estimator closest
to the true cost, and a couple of preempted repetitions cannot flip the
ratio. Being a same-process ratio, the check is far less clock-sensitive
than comparing runs across machines or days.

Exit codes: 0 = within budget, 1 = attached overhead above the budget,
2 = unusable record (missing file, malformed JSON, or the pair absent) —
a typo'd artifact path must fail the build, not silently pass.

  scripts/compare-bench.py --current BENCH_engine.json [--attached-overhead 0.05]
"""

import argparse
import json
import sys

DETACHED = "BM_SimulatedSecond"
ATTACHED = "BM_SimulatedSecondKernelStats"


def best_times(record):
    """name -> minimum real_time over the repetitions (aggregates skipped)."""
    samples = {}
    benches = record.get("benchmarks")
    if not isinstance(benches, list):
        raise ValueError("record has no benchmarks list")
    for bench in benches:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        samples.setdefault(bench["name"], []).append(float(bench["real_time"]))
    return {name: min(values) for name, values in samples.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--current", required=True,
                        help="record written by scripts/run-bench.sh")
    parser.add_argument("--attached-overhead", type=float, default=0.05, metavar="RATIO",
                        help="budget for the attached benchmark's extra cost "
                             "(default 0.05 = 5%%)")
    args = parser.parse_args()
    if args.attached_overhead < 0:
        parser.error("--attached-overhead must be non-negative")

    try:
        with open(args.current) as f:
            times = best_times(json.load(f))
        detached = times[DETACHED]
        attached = times[ATTACHED]
        if detached <= 0:
            raise ValueError(f"{DETACHED} has non-positive time {detached}")
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"ERROR: unusable benchmark record {args.current}: {error!r}", file=sys.stderr)
        return 2

    overhead = (attached - detached) / detached
    print(f"kernel telemetry attached overhead: {detached:.3f} -> {attached:.3f} "
          f"({overhead:+.1%}, budget {args.attached_overhead:.0%})")
    if overhead > args.attached_overhead:
        print(f"FAIL: attached kernel telemetry costs {overhead:.1%} "
              f"(budget {args.attached_overhead:.0%})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

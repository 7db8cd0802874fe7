#!/usr/bin/env python3
"""Dynamic determinism regression: run dacsim twice at one seed, byte-compare.

The determinism contract (DESIGN.md §12) is enforced statically by
tools/detlint; this test enforces it dynamically: two runs of the same
configuration must produce byte-identical artifacts — the event trace CSV
and the windowed timeline JSONL. A rule-4 violation (hash-order reaching an
artifact) or any hidden global/RNG/wall-clock leak shows up here as a byte
diff even if the static pass missed it.

Usage: determinism_double_run.py <path-to-dacsim> [workdir]
Registered via ctest (see examples/CMakeLists.txt).
"""

import filecmp
import os
import re
import shutil
import subprocess
import sys
import tempfile

BASE_ARGS = [
    "--lambda=25", "--warmup=100", "--measure=600", "--seed=11",
    "--fault-rate=0.0003", "--churn-rate=0.002",
    "--timeline-interval=50",
]

FAULT_ARGS = BASE_ARGS + [
    "--node-mtbf=2000", "--node-mttr=120",
    "--reconverge-delay=0.5", "--path-repair",
]

# The overload governor with all three mechanisms engaged: AIMD with a floor
# of 1, member breakers, and a signaling budget tight enough to shed.
GOVERNOR_ARGS = BASE_ARGS + [
    "--adaptive", "--breaker", "--min-retries=1", "--shed-budget=40",
]

# GDI runs through Simulation's admission-policy seam. Churn is DAC-only,
# so this scenario keeps the link faults and drops it.
GDI_ARGS = [
    "--gdi", "--lambda=25", "--warmup=100", "--measure=600", "--seed=11",
    "--fault-rate=0.0003", "--timeline-interval=50",
]

# Each scenario is double-run independently. "node-faults" layers the
# failure-domain plane (router crashes, delayed reconvergence, path repair)
# on top of the link-fault + churn mix: repairs re-signal through the same
# seeded streams, so they must be just as replayable. "kernel-stats" is the
# same run with the kernel introspection sink attached: the kernel-stats
# artifact itself must double-run byte-identical, and — the attach-gating
# contract — attaching the sink must not move a single byte of the trace
# relative to the unattached "node-faults" run. "governor" double-runs the
# feedback control plane on the link-fault + churn mix, and must show that
# the governor acted. "gdi" double-runs the one non-DAC admission procedure
# a CLI reaches.
SCENARIOS = [
    ("base", BASE_ARGS, False),
    ("node-faults", FAULT_ARGS, False),
    ("kernel-stats", FAULT_ARGS, True),
    ("governor", GOVERNOR_ARGS, False),
    ("gdi", GDI_ARGS, False),
]

# dacsim summary lines that prove the governor acted: (label, pattern whose
# first group must be a positive count).
GOVERNOR_ACTIONS = [
    ("tightened the retrial bound", r"overload governor .*\((\d+) tightened"),
    ("tripped a breaker", r"member breakers\s+(\d+) trips"),
    ("shed a request", r"load shedding\s+(\d+) requests fast-rejected"),
]


def run_once(dacsim, workdir, tag, args, kernel):
    trace = os.path.join(workdir, f"trace-{tag}.csv")
    timeline = os.path.join(workdir, f"timeline-{tag}.jsonl")
    cmd = [dacsim, *args, f"--trace={trace}", f"--timeline-out={timeline}"]
    artifacts = [trace, timeline]
    if kernel:
        kernel_out = os.path.join(workdir, f"kernel-{tag}.jsonl")
        cmd.append(f"--kernel-stats-out={kernel_out}")
        artifacts.append(kernel_out)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"dacsim run {tag} failed with {proc.returncode}")
    for artifact in artifacts:
        if not os.path.exists(artifact) or os.path.getsize(artifact) == 0:
            raise SystemExit(f"dacsim run {tag} left no artifact {artifact}")
    return artifacts, proc.stdout


def governor_idle(stdout):
    """The governor actions the run's summary does not show."""
    idle = []
    for label, pattern in GOVERNOR_ACTIONS:
        match = re.search(pattern, stdout)
        if match is None or int(match.group(1)) == 0:
            idle.append(label)
    return idle


def first_diff(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        for lineno, (line_a, line_b) in enumerate(zip(fa, fb), start=1):
            if line_a != line_b:
                return (lineno, line_a.decode(errors="replace").rstrip(),
                        line_b.decode(errors="replace").rstrip())
    return None


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    dacsim = sys.argv[1]
    if not os.path.exists(dacsim):
        print(f"determinism_double_run: no such binary {dacsim}", file=sys.stderr)
        return 2
    if len(sys.argv) > 2:
        os.makedirs(sys.argv[2], exist_ok=True)
        return double_run(dacsim, sys.argv[2])
    # A work directory of our own goes away on success; a failure keeps it
    # for inspection.
    workdir = tempfile.mkdtemp(prefix="anyqos-determinism-")
    status = 1
    try:
        status = double_run(dacsim, workdir)
    finally:
        if status == 0:
            shutil.rmtree(workdir)
        else:
            print(f"determinism_double_run: artifacts kept in {workdir}", file=sys.stderr)
    return status


def double_run(dacsim, workdir):
    failures = []
    traces = {}
    labels = ("trace", "timeline", "kernel")
    for scenario, args, kernel in SCENARIOS:
        run_a, stdout = run_once(dacsim, workdir, f"{scenario}-a", args, kernel)
        run_b, _ = run_once(dacsim, workdir, f"{scenario}-b", args, kernel)
        traces[scenario] = run_a[0]
        if scenario == "governor":
            for label in governor_idle(stdout):
                failures.append(f"[governor] the governor never {label}")
        for label, a, b in zip(labels, run_a, run_b):
            if filecmp.cmp(a, b, shallow=False):
                print(f"determinism[{scenario}]: {label} byte-identical "
                      f"({os.path.getsize(a)} bytes)")
                continue
            diff = first_diff(a, b)
            where = (f"line {diff[0]}:\n  run a: {diff[1]}\n  run b: {diff[2]}"
                     if diff else "file sizes differ")
            failures.append(f"[{scenario}] {label} artifacts diverge at {where}")

    # Attach-gating: the kernel sink observes, it must not steer. The traced
    # flow history with the sink attached must byte-match the unattached run
    # of the identical configuration.
    if filecmp.cmp(traces["node-faults"], traces["kernel-stats"], shallow=False):
        print("determinism[attach-gating]: kernel sink left the trace untouched")
    else:
        diff = first_diff(traces["node-faults"], traces["kernel-stats"])
        where = (f"line {diff[0]}:\n  unattached: {diff[1]}\n  attached: {diff[2]}"
                 if diff else "file sizes differ")
        failures.append(f"[attach-gating] kernel sink perturbed the trace at {where}")

    if failures:
        for failure in failures:
            print(f"DETERMINISM VIOLATION: {failure}", file=sys.stderr)
        return 1
    print("determinism: double run OK (same seed => same bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Ops-replay determinism regression: replay one ops log twice, byte-compare.

The live ops plane applies operator directives at DES poll boundaries and
logs each application with the simulated clock (DESIGN.md §13). Replaying
that log with --ops-replay must steer the run identically every time: two
replays of the same log at the same seed must produce byte-identical trace
and timeline artifacts, and each replay's re-recorded ops log must be a
byte-identical fixpoint of its input. A directive applied off its recorded
boundary — or any wall-clock leak from the HTTP layer into the model —
shows up here as a byte diff.

Usage: ops_replay_double_run.py <path-to-dacsim> [workdir]
Registered via ctest (see examples/CMakeLists.txt).
"""

import filecmp
import os
import shutil
import subprocess
import sys
import tempfile

ARGS = [
    "--lambda=25", "--warmup=100", "--measure=600", "--seed=11",
    "--timeline-interval=50",
]

# A handwritten steering script: throttle the retrial bound mid-run, then
# engage a tight shedding budget. Both land at ops-poll boundaries (the
# default poll interval divides 150 and 250) and both visibly change the
# run, so an off-boundary application cannot hide.
OPS_LOG = (
    '{"ops":"directive","t":150,"knob":"retrial-ceiling","value":1,"applied":1}\n'
    '{"ops":"directive","t":250,"knob":"shed-budget","value":2,"applied":2}\n'
)


def replay_once(dacsim, replay, workdir, tag):
    trace = os.path.join(workdir, f"trace-{tag}.csv")
    timeline = os.path.join(workdir, f"timeline-{tag}.jsonl")
    ops_log = os.path.join(workdir, f"ops-{tag}.jsonl")
    cmd = [dacsim, *ARGS, f"--ops-replay={replay}", f"--ops-log={ops_log}",
           f"--trace={trace}", f"--timeline-out={timeline}"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"dacsim replay {tag} failed with {proc.returncode}")
    if "2/2 directives re-applied" not in proc.stdout:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"replay {tag} did not re-apply both directives")
    for artifact in (trace, timeline, ops_log):
        if not os.path.exists(artifact) or os.path.getsize(artifact) == 0:
            raise SystemExit(f"replay {tag} left no artifact {artifact}")
    return trace, timeline, ops_log


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
        print(f"ops_replay_double_run: no such binary {dacsim}", file=sys.stderr)
        return 2
    if len(sys.argv) > 2:
        os.makedirs(sys.argv[2], exist_ok=True)
        return double_replay(dacsim, sys.argv[2])
    # A work directory of our own goes away on success; a failure keeps it
    # for inspection.
    workdir = tempfile.mkdtemp(prefix="anyqos-ops-replay-")
    status = 1
    try:
        status = double_replay(dacsim, workdir)
    finally:
        if status == 0:
            shutil.rmtree(workdir)
        else:
            print(f"ops_replay_double_run: artifacts kept in {workdir}", file=sys.stderr)
    return status


def double_replay(dacsim, workdir):
    replay = os.path.join(workdir, "steering.jsonl")
    with open(replay, "w", encoding="utf-8") as out:
        out.write(OPS_LOG)

    trace_a, timeline_a, log_a = replay_once(dacsim, replay, workdir, "a")
    trace_b, timeline_b, log_b = replay_once(dacsim, replay, workdir, "b")

    failures = []
    for label, a, b in (("trace", trace_a, trace_b),
                        ("timeline", timeline_a, timeline_b),
                        ("ops log", log_a, log_b)):
        if filecmp.cmp(a, b, shallow=False):
            print(f"ops replay: {label} byte-identical "
                  f"({os.path.getsize(a)} bytes)")
            continue
        diff = first_diff(a, b)
        where = (f"line {diff[0]}:\n  run a: {diff[1]}\n  run b: {diff[2]}"
                 if diff else "file sizes differ")
        failures.append(f"{label} artifacts diverge at {where}")

    # Fixpoint: re-applying the log reproduces it byte for byte.
    with open(log_a, encoding="utf-8") as recorded:
        if recorded.read() != OPS_LOG:
            failures.append("re-recorded ops log is not a fixpoint of its input")

    if failures:
        for failure in failures:
            print(f"OPS REPLAY VIOLATION: {failure}", file=sys.stderr)
        return 1
    print("ops replay: double run OK (same log => same bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

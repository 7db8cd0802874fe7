#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (which compiles the anyqos
library from src/) into .bench_build/perfbench with CMake in Release mode;
later calls only re-check the build. The program's output is passed through;
its last stdout line is the JSON result. Exits non-zero without a result when
the sources are missing, the build fails, or the program fails or overruns.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
# The program measures for --seconds, then may finish a pass it started just
# before that and, on paper_sweep's traced run, the plane-overhead matrix.
RUN_MARGIN_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr, so stdout stays clean."""
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if completed.returncode != 0:
        fail(f"failed ({completed.returncode}): {' '.join(command)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no anyqos sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    started = time.monotonic()
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_logged(configure, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    run_logged(["cmake", "--build", str(BUILD_DIR), "--parallel", jobs], max(remaining, 1))
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--record-reference", action="store_true",
                        help="write this seed's digests into perfbench/reference.json")
    args = parser.parse_args()

    executable = build()
    command = [str(executable), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.record_reference:
        command.append("--record-reference")
    deadline_s = 2 * args.seconds + RUN_MARGIN_S
    # The program reads perfbench/reference.json relative to the root.
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as program:
        try:
            output, _ = program.communicate(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            program.kill()
            program.wait()
            fail(f"perfbench overran {deadline_s:g} s")
    if program.returncode != 0:
        fail(f"perfbench exited with {program.returncode}")
    sys.stdout.write(output)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

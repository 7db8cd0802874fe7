#!/usr/bin/env python3
"""chaossim writes no file it was not asked for.

Runs the smoke fault matrix (whose link faults and churn trigger the chaos
oracle's flight recorder) in a fresh temporary directory without any output
flag, and fails if anything appears there: flight dumps need an explicit
--flight-prefix.

Usage: chaossim_writes_nothing_unasked.py <path-to-chaossim>
Registered via ctest (see examples/CMakeLists.txt).
"""

import os
import re
import subprocess
import sys
import tempfile

SMOKE_ARGS = ["--measure=200", "--losses=0,0.1", "--churn-rates=0,0.005"]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    chaossim = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory(prefix="anyqos-chaossim-cwd-") as workdir:
        run = subprocess.run([chaossim, *SMOKE_ARGS], cwd=workdir, capture_output=True,
                             text=True, timeout=300)
        if run.returncode != 0:
            sys.stderr.write(run.stdout + run.stderr)
            print(f"FAIL chaossim exited {run.returncode}", file=sys.stderr)
            return 1
        triggers = re.search(r"flight recorder\s+(\d+) triggers", run.stdout)
        if triggers is None or int(triggers.group(1)) == 0:
            print("FAIL the smoke matrix no longer triggers the flight recorder",
                  file=sys.stderr)
            return 1
        left = sorted(os.listdir(workdir))
        if left:
            print(f"FAIL chaossim wrote {left} into its working directory", file=sys.stderr)
            return 1
    print("ok   chaossim left its working directory empty")
    return 0


if __name__ == "__main__":
    sys.exit(main())

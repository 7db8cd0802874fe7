#!/usr/bin/env python3
"""A rejected flag or configuration ends a CLI with one line and exit 2.

Each program must print exactly one `<program>: <reason>` line on stderr and
exit with status 2 (not die in std::terminate with SIGABRT) when given a
value its model rejects.

Usage: cli_rejects_bad_config.py <dacsim> <chaossim> <multi_service>
Registered via ctest (see examples/CMakeLists.txt).
"""

import os
import subprocess
import sys

CASES = [
    # (binary argv index, arguments that must be rejected)
    (1, ["--retries=0"]),
    (2, ["--losses=2"]),
    (3, ["--lambda=0"]),
]


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    failures = 0
    for index, args in CASES:
        binary = sys.argv[index]
        program = os.path.basename(binary)
        run = subprocess.run([binary, *args], capture_output=True, text=True, timeout=120)
        lines = run.stderr.splitlines()
        ok = (run.returncode == 2 and len(lines) == 1 and
              lines[0].startswith(program + ": "))
        print(f"{'ok  ' if ok else 'FAIL'} {program} {' '.join(args)} -> exit "
              f"{run.returncode}, stderr {run.stderr.strip()!r}")
        failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the gridsec benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <login_storm|ws_messages|vo_messages> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml) in release mode,
offline, into $CARGO_TARGET_DIR (default perfbench/target), then runs it
with the given arguments. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The exit
code is the benchmark's, or 1 if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "gridsec-perfbench"


def main() -> int:
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with code {build.returncode}", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", BINARY)
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

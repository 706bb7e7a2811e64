#!/usr/bin/env python3
"""Builds the node benchmark from this source tree and runs one workload.

Usage (from the root of the source tree):

    python3 nodebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/nodebench under the current directory and
is reused by later runs. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's
(1 when an output check failed), or 1 when the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "nodebench")
BINARY = os.path.join(BUILD_DIR, "nodebench")
BUILD_TIMEOUT_S = 840  # The first run in a fresh checkout compiles the library.
RUN_TIMEOUT_S = 170


def build():
    """Configures (a no-op once done) and brings the binary up to date."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "nodebench", "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    # A terminated run.py must not leave the build or the benchmark
    # running: SystemExit unwinds subprocess.run, which kills and reaps
    # its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        if not build():
            return 1
        return subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as expired:
        sys.stderr.write("run.py: timed out: %s\n" % expired.cmd)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Entry point of the wire-level benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload warm_read|cold_extract|edit_requery \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the library
from src/) as a Release build under .bench_build/perfbench, then runs one
workload and relays its output; the last stdout line is the JSON result.
Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def describe():
    """`git describe --always --dirty` of the checkout, when it is one."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["warm_read", "cold_extract", "edit_requery"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        print("perfbench: run from the repository root (src/ not found)", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    # One thread per server worker: the server's cores hold exactly its
    # two request workers (README.md, "Deployment settings").
    env = dict(os.environ, SPANNERS_THREADS="1")
    command = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git", describe()]
    try:
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

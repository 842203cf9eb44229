#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library with the repository's own
CMake files plus the benchmark program into .bench_build/ (the first run
configures and compiles; later runs only check that the build is current),
then runs one workload. The program's last stdout line is the JSON result.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests (each output check rejects a
corrupted answer).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD],
            check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(BUILD, target)


def main(argv):
    try:
        if argv == ["--selftest"]:
            return subprocess.run([build("perfbench_tests")]).returncode
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

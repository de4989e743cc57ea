#!/usr/bin/env python3
"""Builds the compile benchmark from source (Release) and runs one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <primary-sweep|fallback-heavy|portfolio>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--seed <n>]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the checkout). Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits non-zero, without a result, when the
library sources are missing or the build fails; otherwise exits with the
benchmark's own code (non-zero when any output check failed).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run(cmd):
    # Build chatter goes to stderr; stdout carries only the benchmark.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode


def build():
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    if run(configure) != 0:
        return None
    jobs = str(max(1, os.cpu_count() or 1))
    if run(["cmake", "--build", str(out), "-j", jobs]) != 0:
        return None
    return out / "compile_bench"


def main():
    if not (ROOT / "src" / "hca" / "driver.hpp").is_file():
        print("perfbench: library sources (src/) not found under %s" % ROOT,
              file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

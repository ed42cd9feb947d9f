#!/usr/bin/env python3
"""Build and run the fabric benchmark.

    python3 fabricbench/run.py --workload full_save|sparse_delta|recover \
        --seed N --seconds S --trace 0|1 [--size tiny]
        [--fault corrupt-restored]

Configures and builds fabricbench/ (which compiles the repo's libraries from
src/) into .bench_build/fabricbench, then runs the benchmark binary from the
repository root with its outputs under .bench_out/. Build output goes to
stderr; the binary's last stdout line is the JSON result. The exit status is
the binary's, or 1 when the build fails. See fabricbench/NOTES.md.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "fabricbench"


def build():
    """Configure (once) and build the benchmark; return the binary path
    relative to ROOT, or None when the sources are missing or do not build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("fabricbench: src/ not found next to the benchmark; "
              "run from a full checkout", file=sys.stderr)
        return None
    steps = []
    if not (ROOT / BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "fabricbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("fabricbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return BUILD / "fabricbench"


def main(argv):
    binary = build()
    if binary is None:
        return 1
    return subprocess.run([str(binary), "--out", ".bench_out"] + argv,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

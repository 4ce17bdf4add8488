#!/usr/bin/env python3
"""Build the fdbist benchmark from source, then run it.

    python3 fdbench/run.py --workload <name> --seed N --seconds S --trace 0|1

The benchmark binary and the library it links are configured and built
under .bench_build/ at the root of the checkout (an up-to-date build is
a no-op); build output goes to stderr so the benchmark's JSON result stays
the last line of stdout. The binary then replaces this process, so its
exit code is the benchmark's. Scratch files of the sliced workload and
the traced run's span files go to .bench_build/work/, and TMPDIR points
at .bench_build/tmp/ so neither the compiler nor the benchmark writes
outside the checkout.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fdbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TMP = os.path.join(ROOT, ".bench_build", "tmp")


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release", *gen],
                             stdout=sys.stderr)
        if cfg.returncode != 0:
            return False
    jobs = str(min(len(os.sched_getaffinity(0)), 8))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("fdbench: library sources (src/) not found beside fdbench/",
              file=sys.stderr)
        return 1
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    if not build():
        print("fdbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD, "fdbench")
    sys.stdout.flush()
    os.execv(exe, [exe, *sys.argv[1:], "--work-dir", WORK])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The first call configures and
builds the simulator and the benchmark (Release) into the directory
named by CARGO_TARGET_DIR, or `.bench_build`; later calls only bring
the build up to date. The benchmark's last stdout line is its JSON
result (see perfbench/README.md). `--self-test` builds and runs the
unit tests of the benchmark's own helpers instead.

The benchmark runs with address-space layout randomization off. With
it on, an occasional process places its heap so that glibc serves the
large allocations differently, and peak RSS jumps by about 16 MB.
"""

import ctypes
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "4"
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def no_aslr():
    """Child-side hook: keep the exec'd benchmark's layout fixed."""
    libc = ctypes.CDLL(None)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "driver",
                                       "fleet_runner.hh")):
        sys.exit("perfbench: no simulator sources in " + ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", JOBS], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main(argv):
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    self_test = argv == ["--self-test"]
    try:
        binary = build(build_dir,
                       "perfbench_tests" if self_test else "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if self_test:
        return subprocess.run([binary]).returncode
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=no_aslr)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the PolyPart benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a PolyPart checkout.  The first call configures and
builds the benchmark (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench under the checkout; later calls reuse that build.
The benchmark's last line of standard output is its JSON result (see
perfbench/README.md).  Exits non-zero without a result when the program
cannot be built.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    # Concurrent runs in one checkout serialize on the build.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: PolyPart sources (src/) not found next to "
                         "perfbench/; run from a full checkout\n")
        return 2
    if argv == ["--selftest"]:
        if not build(["perfbench_test"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode
    if not build(["perfbench"]):
        return 1
    # The benchmark's own argument checks reject anything malformed.
    return subprocess.run([os.path.join(BUILD, "perfbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

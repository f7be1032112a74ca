#!/usr/bin/env python3
"""Build and run one workload of the Buffalo training benchmark.

    python3 perfbench/run.py --workload arxiv-lstm --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the Buffalo libraries from src/ plus the
benchmark driver) into .bench_build/perfbench; later calls only run an
incremental build. The driver's output is passed through, so the last
line of stdout is the JSON result. Every argument is passed to the
driver, which checks them. See perfbench/README.md.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the driver; False on failure."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no Buffalo sources at {os.path.join(root, 'src')}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "buffalo_perfbench"])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        return 1

    # The arguments go to the driver unchanged: it owns the workload
    # table, the default seed and the flag checks.
    command = [os.path.join(build_dir, "buffalo_perfbench")] + sys.argv[1:]
    try:
        result = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        log(f"the run did not finish in {RUN_TIMEOUT_S} s")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

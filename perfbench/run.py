#!/usr/bin/env python3
"""Builds the csm_perfbench driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload daemon-fleet --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds the
library layers and the driver in Release mode under .bench_build (or
$CARGO_TARGET_DIR when set); later runs only re-check the build. Build output
goes to stderr. The driver runs in its own directory under the build tree,
where it keeps its model pack, its unix socket and, for --trace 1, the span
file. Its stdout is passed through: the last line is the JSON result. The
exit code is the driver's, or 2 when the build fails.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build_root, "perfbench")
    try:
        if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(
            ["cmake", "--build", build, "--target", "csm_perfbench", "-j",
             str(min(4, os.cpu_count() or 1))],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    workload = os.path.basename(args[at]) if at < len(args) else "none"
    run_dir = os.path.join(build, "runs", workload or "none")
    os.makedirs(run_dir, exist_ok=True)
    sys.stdout.flush()
    try:
        proc = subprocess.run([os.path.join(build, "csm_perfbench")] + args,
                              cwd=run_dir, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

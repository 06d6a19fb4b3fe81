#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold-1k|serve-hits|serve-edits \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
confmask libraries, the shipped confmaskd daemon and the perfbench binary
from source (Release) under $CARGO_TARGET_DIR (default .bench_build); later
runs only re-check the build. The binary's report goes to stdout, ending
with one JSON line; build output goes to stderr. Traced runs keep their
span NDJSON under <build dir>/perfbench-spans/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold-1k", "serve-hits", "serve-edits")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(source_dir, build_dir):
    """Configures once, then builds the two targets the runs need."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "confmaskd",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(source_dir)
    for needed in ("src/CMakeLists.txt", "examples/confmaskd.cpp",
                   "CMakeLists.txt"):
        if not os.path.isfile(os.path.join(repo_root, needed)):
            fail(f"repository source {needed} not found next to perfbench/")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench-cmake")
    try:
        build(source_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    # Unix socket paths are short-limited, so the run directory stays
    # relative to the working directory when that is shorter.
    run_dir = os.path.join(build_root, "perfbench-runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    if len(os.path.relpath(run_dir)) < len(os.path.abspath(run_dir)):
        run_dir = os.path.relpath(run_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    spans_dir = os.path.join(build_root, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--daemon", os.path.join(build_dir, "confmaskd"),
        "--work-dir", run_dir,
        "--spans", os.path.join(spans_dir,
                                f"{args.workload}-seed{args.seed}.ndjson"),
    ]
    # A terminated runner takes the binary (and through it the daemon)
    # down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(command)
    try:
        code = child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise
    shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

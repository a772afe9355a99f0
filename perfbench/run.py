#!/usr/bin/env python3
"""Builds the dssj benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to .bench_build/perfbench
and scratch files (the generated text, spill store dirs, span dumps) to
.bench_out/; both stay inside the checkout. The program's last stdout line is
one JSON object with the metrics; the exit code is non-zero if the build
fails or a correctness check fails. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "RelWithDebInfo"


def source_id():
    """The git commit if this is a git checkout, else a hash of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, timeout=10)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    exe = os.path.join(BUILD_DIR, "dssj_perfbench")
    return exe if os.path.exists(exe) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("no dssj sources next to the benchmark (expected src/)", file=sys.stderr)
        return 1
    exe = build()
    if exe is None:
        print("build failed", file=sys.stderr)
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--workdir=" + WORK_DIR, "--commit=" + source_id()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

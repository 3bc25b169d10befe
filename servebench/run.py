#!/usr/bin/env python3
"""Serving benchmark for `tpp serve`: build, run one workload, print JSON.

Usage (from the repository root):

    python3 servebench/run.py --workload arenas-solve --seed 1 --seconds 24 \
        --trace 0

Builds servebench/ (which compiles the repository's src/ tree) into
.bench_build/servebench, runs serve_bench in a fresh directory under
.bench_build/, and passes its output through. The last
stdout line is the result object {correct, attempted, failed, metrics}.
Any build failure, wrong response or invalid run exits non-zero without a
result line. See servebench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "servebench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def source_id():
    """The commit when run inside a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "service" / "server" / "server.h").is_file():
        log(f"no sources under {ROOT / 'src'}; nothing to build")
        return None
    commands = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        commands.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                     "--target", "serve_bench"])
    for command in commands:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode:
            log("build failed: " + " ".join(command))
            return None
    binary = BUILD_DIR / "serve_bench"
    return binary if binary.is_file() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2

    workdir = pathlib.Path(".bench_build") / f"run-{os.getpid()}"
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    command = [
        str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--workdir={workdir}", f"--source={source_id()}",
    ]
    started = time.monotonic()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
    if process.returncode < 0:
        log(f"serve_bench killed by signal {-process.returncode}")
        return 1
    if process.returncode != 0:
        log(f"serve_bench exited {process.returncode}")
        return process.returncode
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("serve_bench printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["correct"] is not True:
        log("malformed or incorrect result")
        return 1
    sys.stdout.write(output)
    sys.stdout.flush()
    log(f"{args.workload} seed {args.seed}: "
        f"{time.monotonic() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

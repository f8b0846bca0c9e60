#!/usr/bin/env python3
"""Builds otfair and its benchmark binary from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload design|archive_repair|serve_tcp \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/, fixtures to .bench_work/ (removed after
the run) and traced runs' spans to .bench_out/, all inside the checkout.
The binary's output is passed through; its last line is the result object.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("design", "archive_repair", "serve_tcp")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds; False when the sources cannot be built."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log("otfair sources not found next to perfbench/; nothing to build")
        return False
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def run_bench(argv):
    """Runs the binary in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    finally:
        # Children (fixture generator, servers) never outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def is_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == {"correct", "attempted", "failed",
                                                        "metrics"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build"
    if not build(root, build_dir):
        return 1
    bench_bin = build_dir / "otfair_perfbench"
    otfair = build_dir / "otfair" / "tools" / "otfair"
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = root / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    argv = [str(bench_bin), "run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", str(work),
            "--otfair", str(otfair),
            "--trace-out", str(out_dir / f"trace-{args.workload}-{args.seed}.json")]
    try:
        code, out = run_bench(argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.rstrip("\n").split("\n") if out else []
    if not lines or not is_result(lines[-1]):
        log(f"otfair_perfbench exited {code} without a result")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())

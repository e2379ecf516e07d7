#!/usr/bin/env python3
"""End-to-end benchmark of parcm: builds the harness, then runs one workload.

    python3 e2e_bench/run.py --workload corpus|large|validate --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
library (as the repository builds it by default) and the harness into
e2e_bench/build; later runs reuse that tree. The last line of standard
output is the run's result object. The result is also kept in
e2e_bench/out/, next to the Chrome trace of a --trace 1 run. When the
build or the run cannot complete, the script names the error on standard
error and exits with a non-zero code, without printing a result.
"""
import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
HARNESS = os.path.join(BUILD, "e2e_harness")
WORKLOADS = ("corpus", "large", "validate")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170


# personality(2) flag that turns off address-space layout randomization.
ADDR_NO_RANDOMIZE = 0x0040000


class BenchError(Exception):
    pass


def log(msg):
    print(f"e2e_bench: {msg}", file=sys.stderr, flush=True)


def fixed_layout():
    """Runs in the harness child before exec: with randomized layouts the
    corpus throughput of identical runs fell into two clusters 12% apart
    (README.md, "Noise"). Where the call is refused, runs are just noisier."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def call(cmd, timeout=None, **kwargs):
    """Runs cmd in its own process group; on a timeout or any exception
    (SIGTERM included) the whole group is killed and waited for."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"library sources not found: {needed} is missing "
                             f"next to e2e_bench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(("configure", ["cmake", "-S", HERE, "-B", BUILD,
                                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]))
    steps.append(("build", ["cmake", "--build", BUILD, "--target",
                            "e2e_harness", "-j", jobs]))
    for name, cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        try:
            code, _ = call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError(f"{name} failed to start: {e}") from e
        if code != 0:
            raise BenchError(f"{name} failed with exit code {code}")


def run_harness(args):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    try:
        code, out = call(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                         text=True, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s and was stopped") from e
    except OSError as e:
        raise BenchError(f"harness failed to start: {e}") from e
    if code != 0:
        raise BenchError(f"harness failed with exit code {code}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError("harness printed no result line") from e
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        raise BenchError(f"malformed result: {lines[-1]}")
    with open(stem + ".result.json", "w") as f:
        f.write(lines[-1] + "\n")
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # A terminated run stops its children too (see call()).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        print(run_harness(args), flush=True)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the mtprefetch benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload stride_prefetch --seed 0 \\
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (the simulator library
straight from src/) into .bench_build/perfbench; later calls rebuild
incrementally. The C++ harness prints a provenance header, a
human-readable metric table and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. This
wrapper refuses output whose header lacks the host thread count and
output whose metrics do not match BENCHMARK.json exactly.

Exit status: 0 when every simulation was correct, 1 when any run
failed its checks, 2 on bad arguments or a failed build, 3 when the
harness output is malformed.

    python3 perfbench/run.py --record-golden

re-records perfbench/golden.txt (the per-run statistics digests checked
at the default seed) after an intended change to simulated behaviour.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "mtp-perfbench")
GOLDEN = os.path.join(HERE, "golden.txt")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the harness; exit 2 on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode:
                break
        else:
            return
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    fail(2, "build failed (full log: %s)" % log_path)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read %s: %s" % (SPEC, e))


def check_output(out, trace, spec):
    """Validate the provenance header and the result line."""
    try:
        header, _ = json.JSONDecoder().raw_decode(out)
    except ValueError:
        fail(3, "output does not start with the provenance header")
    threads = header.get("host_threads")
    if not isinstance(threads, int) or threads < 1:
        fail(3, "provenance header lacks the host thread count; refusing")
    if "gitSha" not in header.get("provenance", {}) or \
            "build_type" not in header:
        fail(3, "provenance header is incomplete; refusing")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(3, "last line of output is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(3, "result keys are %s" % sorted(result))
    wanted = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(3, "metrics differ from BENCHMARK.json: missing %s, extra "
             "or mis-unitted %s" % (sorted(set(want) - set(got)),
                                    sorted(k for k in got
                                           if want.get(k) != got[k])))


def run_harness(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, "harness exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1):
        fail(3, "harness exited with status %d" % proc.returncode)
    check_output(proc.stdout, args.trace == 1, load_spec())
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def record_golden():
    if os.path.exists(GOLDEN):
        os.remove(GOLDEN)
    for w in load_spec()["workloads"]:
        cmd = [BINARY, "--workload", w["name"], "--seed", "0",
               "--seconds", "1", "--trace", "0", "--golden", GOLDEN,
               "--record-golden"]
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
            fail(1, "recording %s failed" % w["name"])
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args()
    if not args.record_golden and None in (args.workload, args.seed,
                                           args.seconds, args.trace):
        fail(2, "--workload, --seed, --seconds and --trace are required")
    if not args.record_golden and (args.seed < 0 or args.seconds < 1):
        fail(2, "--seed must be >= 0 and --seconds >= 1")
    build()
    return record_golden() if args.record_golden else run_harness(args)


if __name__ == "__main__":
    sys.exit(main())

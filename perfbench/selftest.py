#!/usr/bin/env python3
"""Self-test of the perfbench benchmark, at its smallest run length.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * every workload prints every end-to-end (--trace 0) and per-layer
    (--trace 1) metric named in BENCHMARK.json, with its unit, and is
    correct at the default seed (run.py refuses any other metric set);
  * every per-layer metric names a layer in perfbench/layers.json;
  * a corrupted golden digest makes the run fail (nonzero exit,
    failed > 0), at the default seed and, for kernels the seed does
    not change, at another seed too;
  * a non-default seed changes the uncoal_irregular kernels (bfs, the
    only one with scattered loads) and leaves every other kernel
    byte-identical, while permuting the run order.

Takes about two minutes on a 4-thread host. Exit status 0 on success.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (sibling module; builds the harness)

SCRATCH = os.path.join(run.BUILD_DIR, "selftest")
OTHER_SEED = 12345
failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def result_of(stdout):
    return json.loads(stdout.rstrip("\n").split("\n")[-1])


def check_metric_sets(spec):
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w["name"], "--seed", "0", "--seconds", "1",
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            what = "%s --trace %d" % (w["name"], trace)
            expect(proc.returncode == 0, what + " exits 0 with the exact "
                   "metric set of BENCHMARK.json")
            if proc.returncode != 0:
                continue
            res = result_of(proc.stdout)
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1, what + " is correct")
            values = [m["value"] for m in res["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in values), what + " values are finite")
            if trace == 0:
                expect(all(v > 0 for v in values),
                       what + " end-to-end values are nonzero")


def check_layer_targets(spec):
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    names = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        layer = m["name"].split(".")[0]
        expect(layer in layers, "%s has a layer entry" % m["name"])
    for layer, t in layers.items():
        expect(set(t["moves"]) <= e2e and
               set(t["where"] + t["not_where"]) <= names,
               "layer %s names known metrics and workloads" % layer)


def harness(workload, seed, golden, extra=()):
    return subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--golden", golden] + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)


def corrupt(golden_lines, prefix):
    """Flip the first digest of the lines starting with @p prefix."""
    out, done = [], False
    for line in golden_lines:
        if not done and line.startswith(prefix):
            head, digest = line.rsplit(" ", 1)
            flipped = "%016x" % (int(digest, 16) ^ 1)
            line, done = head + " " + flipped, True
        out.append(line)
    return out


def check_golden_corruption():
    os.makedirs(SCRATCH, exist_ok=True)
    with open(run.GOLDEN) as f:
        lines = f.read().splitlines()
    bad = os.path.join(SCRATCH, "golden.txt")
    with open(bad, "w") as f:
        f.write("\n".join(corrupt(corrupt(lines, "compute_bound "),
                                  "uncoal_irregular ")) + "\n")
    # The uncoal corruption must hit bfs for the seed-variant case.
    with open(bad) as f:
        flipped = set(f.read().splitlines()) - set(lines)
    expect(any(" bfs/" in l for l in flipped),
           "corrupted digest set includes a bfs run")

    for seed in (0, OTHER_SEED):
        proc = harness("compute_bound", seed, bad)
        res = result_of(proc.stdout)
        expect(proc.returncode == 1 and res["failed"] >= 1 and
               not res["correct"],
               "corrupted compute_bound digest fails the run at seed %d"
               % seed)
    proc = harness("uncoal_irregular", OTHER_SEED, bad)
    res = result_of(proc.stdout)
    expect(proc.returncode == 0 and res["failed"] == 0,
           "seed-changed bfs kernels skip the golden digest")
    proc = harness("uncoal_irregular", 0, bad)
    expect(proc.returncode == 1 and result_of(proc.stdout)["failed"] >= 1,
           "corrupted bfs digest fails the run at the default seed")


def inputs(workload, seed):
    proc = harness(workload, seed, run.GOLDEN, ["--print-inputs"])
    kernels, order = {}, []
    for line in proc.stdout.splitlines():
        kind, rest = line.split(" ", 1)
        if kind == "kernel":
            name, digest = rest.split()
            kernels[name] = digest
        else:
            order.append(rest)
    return kernels, order


def check_seed(spec):
    for w in spec["workloads"]:
        k0, o0 = inputs(w["name"], 0)
        k1, o1 = inputs(w["name"], OTHER_SEED)
        changed = sorted(n for n in k0 if k0[n] != k1[n])
        want = ["bfs"] if w["name"] == "uncoal_irregular" else []
        expect(changed == want, "seed %d changes kernels %s of %s"
               % (OTHER_SEED, want, w["name"]))
        expect(sorted(o0) == sorted(o1) and o0 != o1,
               "seed permutes the run order of %s" % w["name"])


def main():
    run.build()
    spec = run.load_spec()
    check_layer_targets(spec)
    check_seed(spec)
    check_golden_corruption()
    check_metric_sets(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

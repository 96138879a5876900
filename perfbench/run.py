#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
benchmark and the ipim libraries it links into .bench_build/ (about a
minute on 4 cores); later runs only confirm the build is current.  The
perfbench binary prints metric values by name; this script gives each
the unit BENCHMARK.json declares for it, and fails when the names the
binary printed are not exactly the names declared there (end_to_end
with --trace 0, per_layer with --trace 1).  The last line of standard
output is the result object; the line before it holds host facts and
the values that must repeat exactly for a seed.  Build output goes to
stderr.

Beyond the in-process check across passes, the exact values of every
run are kept under .bench_build/exact/ keyed by binary digest, workload
and seed; a later run of the same binary and seed that disagrees is
reported as incorrect.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build the perfbench binary; exit on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no ipim sources next to %s; run from a "
                 "checkout of the repository" % BENCH_DIR)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target",
                  "perfbench"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def revision():
    """The git revision, or a digest of src/ outside a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    files = []
    for d, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(d, n) for n in names]
    return "src-sha256:" + digest(sorted(files))[:16]


def attach_units(values, trace):
    """Map {name: value} to {name: {"value", "unit"}} in BENCHMARK.json's
    order; raise ValueError unless the names are exactly those declared
    for the run's kind of metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise ValueError(
            "metrics printed but not declared: %s; declared but not "
            "printed: %s" % (sorted(set(values) - set(names)),
                             sorted(set(names) - set(values))))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def check_repeat(info, result):
    """Compare this run's exact values with an earlier run of the same
    binary, workload and seed; a difference is a program bug."""
    key = "%s-%s-%s" % (digest([BINARY])[:16], info["workload"],
                        info["seed"])
    path = os.path.join(BUILD_DIR, "exact", key + ".json")
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != info["exact"]:
            print("perfbench: exact values differ from an earlier run "
                  "with this binary and seed", file=sys.stderr)
            result["correct"] = False
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(info["exact"], f, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--rev", revision()]
    if args.trace == "1":
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode:
        sys.exit("perfbench: exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    try:
        result["metrics"] = attach_units(result["metrics"],
                                         args.trace == "1")
    except ValueError as e:
        sys.exit("perfbench: %s" % e)
    check_repeat(info, result)
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the process-manager benchmark from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of the checkout.  It builds perfbench/main.exe with
dune, runs one workload and passes its output through; the last line is
the result object {correct, attempted, failed, metrics}.  With --trace 0
the metrics are the end-to-end set of BENCHMARK.json, with --trace 1 the
per-layer set; a run whose metric names differ from BENCHMARK.json fails.
--workload all runs every workload untraced and traced and ends with one
combined result line whose metric names are prefixed with the workload.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["batch_contended", "durable_short", "serve_longlived"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace == 1 else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(workload, seed, seconds, trace, commit):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("%s printed no result" % workload)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(trace):
        sys.stdout.write(proc.stdout)
        fail("%s: metrics differ from BENCHMARK.json" % workload)
    return proc.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the checkout root")
    build()
    commit = source_id()
    if args.workload != "all":
        code, lines, _ = run_one(args.workload, args.seed, args.seconds, args.trace, commit)
        print("\n".join(lines), flush=True)
        sys.exit(code)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_one(workload, args.seed, args.seconds, trace, commit)
            print("\n".join(lines[:-1]), flush=True)
            combined["correct"] &= result["correct"] and code == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][workload + "." + name] = m
    print(json.dumps(combined), flush=True)
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two result files.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload kv-a1 --seed 1 --seconds 10 --trace 0 \
        [--out results.jsonl]

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
host block. With --out the run is also appended, with its host block, as
one JSON line to the given file.

Compare two such files (per workload and metric: both medians and their
ratio, new over base):

    python3 perfbench/run.py compare base.jsonl new.jsonl

The benchmark is built from source with dune into .bench_build/ of the
checkout; its scratch files (KV write-ahead logs) go to
.bench_build/perfbench-work/ and are removed when the run ends.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["kv-a1", "sim-a1-saturate", "sim-a2-faults", "mc-a1"]
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a checkout of the repository "
            "(no dune-project or lib/ here)")
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", os.path.abspath(BUILD_DIR), "-j", "2",
         "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def source_digest():
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() or None


def run(args):
    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    # The run is pinned to one CPU. The KV workload's threads share one
    # OCaml runtime lock; spread over two CPUs they pay cross-CPU wake-ups
    # whose cost follows where the scheduler happens to put them, and its
    # throughput jumped twofold between runs of the same code.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    lines = out.splitlines()
    host = None
    result = None
    for line in lines:
        if line.startswith('{"host"'):
            host = json.loads(line)["host"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
        else:
            print(line)
    if host is None or result is None or not lines[-1].startswith('{"correct"'):
        die("benchmark exited %d without a result" % proc.returncode)
    host.update(nproc=os.cpu_count(), git_rev=git_rev(),
                source_digest=source_digest())
    print(json.dumps({"host": host}))
    print(lines[-1], flush=True)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"host": host, "result": result}) + "\n")
    sys.exit(proc.returncode)


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["host"]["workload"], rec["host"]["trace"])
            for name, m in rec["result"]["metrics"].items():
                groups.setdefault(key, {}).setdefault(
                    name, (m["unit"], []))[1].append(m["value"])
    return groups


def compare(base_path, new_path):
    base, new = load(base_path), load(new_path)
    better = {}
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        for m in spec["end_to_end"] + spec["per_layer"]:
            better[m["name"]] = m["better"]
    print("%-16s %-30s %7s %14s %14s %8s  %s" % (
        "workload", "metric", "unit", "base median", "new median",
        "new/base", "better"))
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        names = sorted(set(base.get(key, {})) | set(new.get(key, {})))
        for name in names:
            unit, bv = base.get(key, {}).get(name, ("", []))
            unit, nv = new.get(key, {}).get(name, (unit, []))
            bm = statistics.median(bv) if bv else None
            nm = statistics.median(nv) if nv else None
            ratio = "-" if not bm or nm is None else "%.4f" % (nm / bm)
            fmt = lambda x: "-" if x is None else "%.6g" % x
            print("%-16s %-30s %7s %14s %14s %8s  %s" % (
                workload + ("" if trace == 0 else "/t"), name, unit, fmt(bm),
                fmt(nm), ratio, better.get(name, "")))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            die("usage: run.py compare BASE.jsonl NEW.jsonl")
        compare(sys.argv[2], sys.argv[3])
        return
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--out", help="append the result as a JSON line here")
    args = p.parse_args()
    if not 1 <= args.seconds <= 120:
        die("--seconds must be within 1..120")
    run(args)


if __name__ == "__main__":
    main()

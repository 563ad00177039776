#!/usr/bin/env python3
"""The libapram benchmark.

Builds perfbench/ (which compiles the library from src/) into .bench_build/,
runs one workload in its own process and prints, as the last line of its
output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. The line before it stamps the run with its
metadata (nproc, CPU model, compiler, build type, contention telemetry state,
commit, seed, thread count) and flags runs that are oversubscribed or built
without optimisation or with a sanitizer.

    python3 perfbench/run.py --workload snapshot_update --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7      # every workload, a table
    python3 perfbench/run.py --self-test                  # planted-defect check test

Run it from the repository root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def run_binary(args):
    try:
        proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    return lines[0]["build"], lines[-1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_workload(name, seed, seconds, trace, spec):
    """Runs one workload in its own process; returns (meta, result)."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, f"{name}-seed{seed}.json")]
    build_info, raw = run_binary(args)
    missing = [m["name"] for m in metrics if m["name"] not in raw["values"]]
    if missing:
        fail(f"{name}: the binary did not measure {', '.join(missing)}")
    threads = int(raw["samples"]["threads"])
    nproc = len(os.sched_getaffinity(0))
    flags = []
    if threads > nproc:
        flags.append("threads_exceed_nproc")
    if build_info["sanitizer"]:
        flags.append("sanitizer_build")
    if not build_info["optimized"]:
        flags.append("unoptimised_build")
    for flag in flags:
        print(f"perfbench: warning: {name}: {flag}", file=sys.stderr)
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "threads": threads, "nproc": nproc, "cpu_model": cpu_model(),
            "commit": commit(), "flags": flags,
            "ops": int(raw["samples"]["ops"]),
            "rounds": int(raw["samples"]["rounds"]),
            "baseline_rss_mb": raw["samples"]["baseline_rss_mb"], **build_info}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {m["name"]: {"value": raw["values"][m["name"]],
                                      "unit": m["unit"]} for m in metrics}}
    return meta, result


def run_all(seed, seconds, spec):
    """Every workload, each in its own process, as a table on stdout."""
    results = {}
    for w in spec["workloads"]:
        meta, result = run_workload(w["name"], seed, seconds, 0, spec)
        print(json.dumps({"meta": meta}))
        results[w["name"]] = result
        print(f"\n{w['name']}  ({meta['threads']} threads, {meta['ops']} ops "
              f"in {meta['rounds']} rounds = latency samples, "
              f"correct={result['correct']})")
        for name, m in result["metrics"].items():
            print(f"  {name:20s} {m['value']:16.6g} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"  {'failed_op_ratio':20s} {ratio:16.6g} ratio")
    total = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values()),
             "metrics": {f"{w}.{k}": v for w, r in results.items()
                         for k, v in r["metrics"].items()}}
    print(json.dumps(total))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.self_test:
        proc = subprocess.run([BINARY, "--self-test"], timeout=RUN_TIMEOUT_S)
        sys.exit(proc.returncode)
    if not args.workload:
        fail("--workload is required")
    seconds = args.seconds or spec["run_seconds"]
    if args.workload == "all":
        run_all(args.seed, seconds, spec)
        return
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    meta, result = run_workload(args.workload, args.seed, seconds, args.trace,
                                spec)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

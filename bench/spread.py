"""Run the benchmark over several seeds, report spreads, and record a baseline.

    python3 bench/spread.py [--workloads A,B] [--seeds 10] [--trace-runs 3] [--out FILE]

Runs bench/run.py once per seed and workload, one run at a time, with
BENCHMARK.json's run_seconds. For every end-to-end metric it prints the
median and the quartile spread, (Q3 - Q1) / median from
statistics.quantiles(values, n=4), next to the metric's bound, and flags a
spread at or above a third of the bound. Traced runs add the per-layer
medians. --out writes the medians with a record of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, cap_blas_threads


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} reported a failure:\n{proc.stdout}")
    info = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["info"] and len(parts) == 4:
            info[parts[1]] = float(parts[2])
    info["process_s"] = elapsed
    return {name: m["value"] for name, m in result["metrics"].items()}, info


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine_record(blas_threads):
    import numpy as np

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_core_or_shared": caches,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        record = {}
        print(f"{workload}: {args.seeds} seeds from {args.first_seed}, {seconds} s runs", flush=True)
        for name in runs[0][0]:
            values = [r[0][name] for r in runs]
            s = spread(values)
            flag = "" if name == "setup_s" or s < bounds[name] / 3 else "  <-- spread >= bound/3"
            steady &= not flag
            print(f"  {name:14s} median {statistics.median(values):12.5f}  spread {s:7.4f}  "
                  f"bound {bounds[name]}{flag}")
            print("    " + " ".join(f"{v:.5g}" for v in values), flush=True)
            record[name] = statistics.median(values)
        for name in runs[0][1]:
            values = [r[1][name] for r in runs if name in r[1]]
            record[name] = statistics.median(values)
        if args.trace_runs:
            traced = [run_once(workload, seed, seconds, 1)[0]
                      for seed in range(args.first_seed, args.first_seed + args.trace_runs)]
            for name in traced[0]:
                record[name] = statistics.median(t[name] for t in traced)
        baseline[workload] = record
    if args.out:
        doc = {
            "machine": machine_record(cap_blas_threads()),
            "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
            "run_seconds": seconds,
            "medians": baseline,
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

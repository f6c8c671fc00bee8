"""hiekge benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. An untimed canary first trains and ranks
the 100-entity synthetic graph and must reach filtered Hits@10 >= 0.9.
The workload's graph is generated from the seed, written as
train/valid/test.txt under .bench_work/, and loaded with
`kg_data.load_kg` as part of set-up. The workload's job is then repeated
for about S seconds, at least twice; every repeat must give
byte-identical outputs. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (untraced) or, with --trace 1, the per-layer
metrics from spans around the package's module functions. The lines
before it repeat every metric by name and unit, plus the other figures
(throughputs, ranking time, step-time tail, final loss, MRR). Exit status 2 means
the benchmark could not run at all, e.g. because src/hiekge is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
# set up at least 3 times and for at least 0.5 s before the warm-up, then
# again for at least 0.1 s after every measured job, so that the median
# samples the machine over the whole run; at most 100 times per round
SETUP_FIRST_ROUND = (3, 0.5)
SETUP_LATER_ROUNDS = (1, 0.1)
SETUP_MAX_PER_ROUND = 100
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_step_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("wn18rr-hie", "wn18rr-transe-roundtrip")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def cap_blas_threads() -> int:
    """Run BLAS/OpenMP single-threaded; must happen before numpy loads.

    A second BLAS thread spins on another CPU between calls, so on a small
    shared host the timings would follow whatever else runs on that CPU.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def import_package() -> bool:
    """Import hiekge from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hiekge
    except ImportError as exc:
        print(f"bench: cannot import hiekge from {src}: {exc}", file=sys.stderr)
        return False
    if Path(hiekge.__file__).resolve().parent != src / "hiekge":
        print(f"bench: hiekge resolved to {hiekge.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def measure(spec, data_dir, seed, seconds, work_dir, tracer):
    """Set up, run a warm-up job, then repeat the job for about `seconds` (at least twice per mode).

    Returns the set-up times, the warm-up job and the measured jobs. Every
    job runs on the state of the latest set-up. The warm-up job grows the
    heap and fills the caches; its outputs are checked like every other
    job's, its times are not reported. Untraced runs then run only plain
    jobs. Traced runs alternate plain and traced jobs, in alternating order,
    so the traced outputs can be compared with plain ones and the tracing
    overhead read from their wall times. No job starts that would, with its
    set-up round, end after `seconds`, once every mode has run twice.
    """
    import layers
    import workloads

    setup_s = []
    state = None

    def set_up(min_repeats, min_seconds):
        nonlocal state
        start = len(setup_s)
        while len(setup_s) - start < SETUP_MAX_PER_ROUND and (
            len(setup_s) - start < min_repeats or sum(setup_s[start:]) < min_seconds
        ):
            state = None  # release the previous graph before loading the next
            t0 = time.perf_counter()
            with layers.instrument(tracer) if tracer is not None else nullcontext():
                state = workloads.setup(spec, data_dir, seed)
            setup_s.append(time.perf_counter() - t0)

    set_up(*SETUP_FIRST_ROUND)
    warmup = workloads.run_job(spec, state, seed, work_dir)
    modes = (False, True) if tracer is not None else (False,)
    jobs = {mode: [] for mode in modes}
    if warmup.problems:
        return setup_s, warmup, jobs
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        for traced in modes:
            with layers.instrument(tracer) if traced else nullcontext():
                jobs[traced].append(workloads.run_job(spec, state, seed, work_dir))
        if any(v[-1].problems for v in jobs.values()):
            return setup_s, warmup, jobs
        set_up(*SETUP_LATER_ROUNDS)
        now = time.perf_counter()
        if all(len(v) >= 2 for v in jobs.values()) and now + (now - cycle_start) > deadline:
            return setup_s, warmup, jobs
        modes = modes[::-1]  # neither mode always runs first after a set-up


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = cap_blas_threads()
    if not import_package():
        return 2
    import layers
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    tracer = spans.Tracer() if args.trace else None
    try:
        canary = workloads.run_canary(args.seed, work_dir)
        spec.graph(args.seed).write(work_dir / "data")
        setup_s, warmup, jobs = measure(spec, work_dir / "data", args.seed, args.seconds,
                                        work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = [warmup] + [job for runs in jobs.values() for job in runs]
    reference = every[0].fingerprint()
    attempted = sum(job.attempted for job in every + [canary])
    failed = sum(job.failed for job in every + [canary])
    problems = [f"canary: {p}" for p in canary.problems] + [p for job in every for p in job.problems]
    differing = sum(job.fingerprint() != reference for job in every[1:])
    if differing:
        failed += differing
        problems.append(f"{differing} job(s) gave outputs different from the first job")
    for problem in problems:
        print(f"FAIL {problem}")

    plain = jobs[False] or [warmup]  # a failed warm-up leaves nothing else to report
    if tracer is not None:
        traced = jobs[True]
        overhead = (statistics.median(j.wall_s for j in traced)
                    / statistics.median(j.wall_s for j in plain) - 1.0) if traced else 0.0
        metrics = layers.layer_metrics(tracer.spans, max(len(traced), 1), overhead)
        units = layers.PER_LAYER
        trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        # a job that failed before its first step is timed as a whole
        steps = [t for job in plain for t in job.step_s] or [job.wall_s for job in plain]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(j.wall_s for j in plain),
            "train_step_ms_p50": 1e3 * statistics.median(steps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"info workload {args.workload} seed {args.seed} blas_threads {threads}")
        print(f"info jobs {len(plain)} count")
        print(f"info setups {len(setup_s)} count")
        _print_workload_figures(plain, steps, canary, attempted, failed)

    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _print_workload_figures(plain, steps, canary, attempted, failed):
    """Throughputs, the step-time tail, the canaries and the error rate, by name and unit."""
    first = plain[0]
    figures = {
        "train_triples_per_s": (sum(j.train_triples for j in plain) / sum(j.train_s for j in plain), "1/s"),
        "train_steps": (len(steps), "count"),
    }
    tail = spans.tail_percentile(steps)
    if tail is not None:
        figures["train_step_ms_tail"] = (1e3 * tail[1], "ms")
        figures["train_step_tail_percentile"] = (tail[0], "%")
    per_triple = [j.eval_s / j.eval_triples for j in plain if j.eval_triples]
    if per_triple:
        figures["eval_ms_per_triple"] = (1e3 * statistics.median(per_triple), "ms")
        figures["eval_triples_per_s"] = (sum(j.eval_triples for j in plain) / sum(j.eval_s for j in plain), "1/s")
    if first.loss_log:
        figures["final_loss"] = (first.loss_log[-1][1], "loss")
    if len(first.ranks):
        ranks = first.ranks.ravel().astype(float)
        figures["mrr"] = (float((1.0 / ranks).mean()), "ratio")
    if len(canary.ranks):
        figures["canary_hits10"] = (float((canary.ranks <= 10).mean()), "ratio")
    figures["error_rate"] = (failed / attempted, "ratio")
    for name, (value, unit) in figures.items():
        print(f"info {name} {value!r} {unit}")


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Seeded benchmark of ``xlalign``: one workload per invocation.

    python3 perfbench/run.py --workload sweep_ragged --seed 1 --seconds 40 --trace 0

Run from the repository root (the program is imported from ``./src``). The
benchmark generates the workload's inputs from ``--seed`` in a scratch
directory under ``.bench_work/``, then:

* ``--trace 0``: runs the workload's job in fresh child processes one after
  another (a closed loop with one client) until about ``--seconds`` of job
  time are measured and at least three jobs ran, with a fresh set-up process
  (import + public loaders) timed before each of the first five jobs. Prints
  the end-to-end metrics as medians over the jobs and set-ups.
* ``--trace 1``: the same untraced loop, then one traced replay of the job
  through the public functions of every layer in a fresh child, and prints
  the per-layer metrics.

Every run checks the outputs outside the timed region: schemas, row counts,
identical bytes across repeated jobs, and an independent oracle on a seeded
sample of pairs (see ``oracle.py``). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Any
failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from workloads import METRIC_NAMES, WORKLOADS, child_env, generate  # noqa: E402

CHILD = HERE / "child.py"
SETUP_REPEATS = 5  # set-up children per untraced run; setup_s is their median
MIN_JOBS = 3  # at least three jobs per median, even when they outlast --seconds
ORACLE_PAIRS = 1  # embedding pairs recomputed per run (both documents)
OVERLAP_PAIRS = 4
STAT_SAMPLES = 4  # Pearson cells and ANOVA cells each
DEADLINE_S = 165.0  # whole invocation, leaving margin under the 180 s limit
CHECK_RESERVE_S = 15.0
SEARCH_MODELS = 2**13 - 1

END_TO_END = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int


def run_child(args: list[str], env: dict, log: Path, timeout: float) -> Sample:
    """Run ``child.py`` in a fresh interpreter; wall from spawn to reap, CPU
    and peak RSS from that child's own rusage."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], env=env, stdout=fh, stderr=fh)
        reaped = []
        waiter = threading.Thread(target=lambda: reaped.append((os.wait4(proc.pid, 0), time.perf_counter())))
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    (_, status, usage), end = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def layer_metrics(spans: list, sweep: dict | None, replay_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the replay's spans; 0 where a layer did not run."""
    ms = defaultdict(list)
    extra = defaultdict(lambda: defaultdict(float))
    children = defaultdict(list)
    for name, start, end, parent, _pair, info in spans:
        ms[name].append((end - start) * 1e3)
        for key, value in info.items():
            extra[name][key] += value
        if parent >= 0:
            children[parent].append((start, end))

    def self_seconds(index):
        # span length minus the part of it that child spans cover (children
        # on pool threads may overlap each other)
        _, start, end = spans[index][:3]
        covered, reach = 0.0, start
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return end - start - covered

    def total(name):
        return sum(ms[name])

    def median(name):
        return statistics.median(ms[name]) if ms[name] else 0.0

    def tail(name):
        return p90(ms[name]) if ms[name] else 0.0

    def rate(amount, milliseconds):
        return amount / (milliseconds / 1e3) if milliseconds > 0 else 0.0

    sweep_self_s = sum(
        self_seconds(i) for i, span in enumerate(spans) if span[0] in ("pipeline.sweep", "pipeline.pair")
    )
    return {
        "corpus.load_embeddings.ms_total": (total("corpus.load_embeddings"), "ms"),
        "corpus.load_embeddings.calls": (len(ms["corpus.load_embeddings"]), "count"),
        "corpus.load_embeddings.mb_per_s": (
            rate(extra["corpus.load_embeddings"]["bytes"] / 1e6, total("corpus.load_embeddings")), "MB/s"),
        "corpus.load_corpus.ms_total": (total("corpus.load_corpus"), "ms"),
        "corpus.load_language_table.ms": (total("corpus.load_language_table"), "ms"),
        "corpus.align_pair.ms_total": (total("corpus.align_pair"), "ms"),
        "knn.knn_search.ms_p50": (median("knn.knn_search"), "ms"),
        "knn.knn_search.gflop_per_s": (rate(extra["knn.knn_search"]["flop"] / 1e9, total("knn.knn_search")), "GFLOP/s"),
        "mining.mine_intersection.ms_p50": (median("mining.mine_intersection"), "ms"),
        "mining.mine_intersection.ms_p90": (tail("mining.mine_intersection"), "ms"),
        "mining.mine_intersection.ms_total": (total("mining.mine_intersection"), "ms"),
        "mining.average_margin.ms_p50": (median("mining.average_margin"), "ms"),
        "mining.average_margin.ms_total": (total("mining.average_margin"), "ms"),
        "mining.retrieval_f1.ms_total": (total("mining.retrieval_f1"), "ms"),
        "isomorphism.svg.ms_p50": (median("isomorphism.svg"), "ms"),
        "isomorphism.svg.ms_total": (total("isomorphism.svg"), "ms"),
        "isomorphism.econd_hm.ms_p50": (median("isomorphism.econd_hm"), "ms"),
        "isomorphism.econd_hm.ms_total": (total("isomorphism.econd_hm"), "ms"),
        "isomorphism.persistence_diagram_0d.ms_total": (total("isomorphism.persistence_diagram_0d"), "ms"),
        "isomorphism.persistence_diagram_0d.calls": (len(ms["isomorphism.persistence_diagram_0d"]), "count"),
        "isomorphism.bottleneck_distance.ms_total": (total("isomorphism.bottleneck_distance"), "ms"),
        "features.pair_features.ms_p50": (median("features.pair_features"), "ms"),
        "features.pair_features.ms_total": (total("features.pair_features"), "ms"),
        "features.pair_features.calls": (len(ms["features.pair_features"]), "count"),
        **{
            f"stats.{mode}.ms": (total(f"stats.{mode}"), "ms")
            for mode in ("corr", "search", "ablate", "anova", "ancova", "pca", "pcr", "zero_shot")
        },
        "stats.search.models_per_s": (rate(SEARCH_MODELS * len(METRIC_NAMES), total("stats.search")), "1/s"),
        "pipeline.run_pair_metrics.s": (sweep["seconds"] if sweep else 0.0, "s"),
        "pipeline.run_pair_metrics.pairs": (sweep["pairs"] if sweep else 0, "count"),
        "pipeline.run_pair_metrics.failed": (sweep["failed"] if sweep else 0, "count"),
        "pipeline.pair.ms_p50": (median("pipeline.pair"), "ms"),
        "pipeline.pair.ms_p90": (tail("pipeline.pair"), "ms"),
        "pipeline.sweep_self_s": (sweep_self_s, "s"),
        "pipeline.sweep_parallel_speedup": (sweep["speedup"] if sweep else 0.0, "ratio"),
        "pipeline.make_analysis_dataset.ms": (total("pipeline.make_analysis_dataset"), "ms"),
        "pipeline.write_outputs.ms_total": (total("pipeline.write_outputs"), "ms"),
        "trace.overhead_s": (replay_wall - untraced_wall, "s"),
    }


def check_results(checks: oracle.Checks, manifest: dict, out: Path, seed: int, schemas: dict) -> None:
    """Schema/count checks plus the seeded oracle sample on one job's outputs."""
    rng = np.random.default_rng([seed, 99])
    oracle.check_outputs(checks, manifest, out, schemas)
    oracle.check_overlaps(checks, manifest, out, oracle.sample_pairs(manifest, rng, OVERLAP_PAIRS))
    if "config" in manifest:
        oracle.check_pair_metrics(checks, manifest, out, oracle.sample_pairs(manifest, rng, ORACLE_PAIRS))
    else:
        # Only here do the analyses read the same rounded CSV files as the
        # oracle; `report` analyses unrounded values, and a Pearson r near 0
        # then differs from one computed on the CSVs by more than 1e-9.
        oracle.check_statistics(checks, out, Path(manifest["metrics_csv"]), rng, STAT_SAMPLES)


def benchmark(workload, seed: int, seconds: float, trace: bool, ws: Path, root: Path, started: float) -> dict:
    from xlalign.pipeline import REPORT_SCHEMAS

    manifest = generate(workload, seed, ws / "inputs")
    manifest_path = str(ws / "inputs" / "manifest.json")
    env = child_env(workload, root / "src")
    log = ws / "children.log"
    out = Path(manifest["out"])
    checks = oracle.Checks()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - started)

    info_path = ws / "info.json"
    run_child(["info", str(info_path)], env, log, remaining())
    machine = json.loads(info_path.read_text()) if info_path.is_file() else {}

    setups: list[Sample] = []
    jobs: list[Sample] = []
    reference = None
    timed = 0.0

    def set_up() -> None:
        sample = run_child(["setup", manifest_path], env, log, remaining())
        checks.check(sample.code == 0, f"setup child exited {sample.code}")
        setups.append(sample)

    def another_job() -> bool:
        if not jobs:
            return True
        # leave room for the checks and, when tracing, a replay plus the sweep probes
        needed = CHECK_RESERVE_S + (4 if trace else 1) * jobs[-1].wall
        # stop before a job that, as long as the last one, would end more than
        # half a job past --seconds: measured time stays near --seconds
        return (len(jobs) < MIN_JOBS or timed + jobs[-1].wall / 2 < seconds) and remaining() > needed

    while another_job():
        if not trace and len(setups) < SETUP_REPEATS:
            # interleaved with the jobs, so that a slow stretch of a shared
            # machine falls on set-up and job samples alike
            set_up()
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        sample = run_child(["job", manifest_path], env, log, remaining())
        jobs.append(sample)
        timed += sample.wall
        if not checks.check(sample.code == 0, f"job exited {sample.code}"):
            break
        outputs = digest(out)
        if reference is None:
            reference = outputs
        else:
            checks.check(outputs == reference, "a repeated job wrote different bytes")
    while not trace and len(setups) < SETUP_REPEATS:
        set_up()
    # a job's operations are its pairs and its analysis modes; a failed job fails them all
    job_ops = manifest["n_pairs"] + len(manifest["analyses"])
    ops = job_ops * len(jobs)
    failed_ops = job_ops * sum(s.code != 0 for s in jobs)
    if jobs[-1].code == 0:
        try:
            check_results(checks, manifest, out, seed, REPORT_SCHEMAS)
        except Exception as exc:  # malformed outputs: report them as a failed check
            checks.check(False, f"output check raised {exc!r}")

    untraced_wall = statistics.median(s.wall for s in jobs)
    result = {
        "jobs": len(jobs),
        "job_wall_s": [s.wall for s in jobs],
        "setup_s": [s.wall for s in setups],
        "machine": machine,
    }
    if trace:
        replay_path = ws / "replay.json"
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        sample = run_child(["replay", manifest_path, repr(spawn), str(replay_path)], env, log, remaining())
        if checks.check(sample.code == 0, f"replay child exited {sample.code}"):
            replayed = json.loads(replay_path.read_text())
            replay_out = Path(replayed["out"])
            written = digest(replay_out)
            for name, sha in written.items():
                checks.check(reference is not None and reference.get(name) == sha, f"replayed {name} differs")
            checks.check(bool(written), "replay wrote no outputs")
            metrics = layer_metrics(replayed["spans"], replayed["sweep"], replayed["replay_wall_s"], untraced_wall)
            trace_file = root / ".bench_work" / f"trace-{workload.name}-seed{seed}.json"
            trace_file.write_text(json.dumps({"spans": replayed["spans"], "sweep": replayed["sweep"]}))
            result["trace_file"] = str(trace_file.relative_to(root))
        else:
            metrics = {}
    else:
        values = {
            "wall_s": untraced_wall,
            "pairs_per_s": statistics.median(manifest["n_pairs"] / s.wall for s in jobs),
            "cpu_s": statistics.median(s.cpu for s in jobs),
            "peak_rss_mb": statistics.median(s.rss_mb for s in jobs),
            "setup_s": statistics.median(s.wall for s in setups),
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in values.items()}
    attempted = ops + checks.attempted
    failed = failed_ops + len(checks.failures)
    if not trace:
        metrics["success_rate"] = (1.0 - failed / attempted, END_TO_END["success_rate"])
    if log.is_file() and checks.failures:
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
    result.update(
        correct=not checks.failures,
        attempted=attempted,
        failed=failed,
        failures=checks.failures[:20],
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "xlalign" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/xlalign here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    ws = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work))
    try:
        result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ws, root, started)
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    result["elapsed_s"] = time.perf_counter() - started
    final = {key: result.pop(key) for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

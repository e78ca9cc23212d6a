"""Certificate-job benchmark for brlab.

Usage (from the repository root):

    python3 bench/run.py --workload restricted_ladder --seed 1 --seconds 30 --trace 0

Each job is one `brlab` CLI process, run one after another: a closed loop
with one client.  The workload's job list is cycled until --seconds have
passed.  A job's time is the mean over its runs, in units of the reference
workload (reference.py): the mean time of the reference runs made between
the jobs of the same run.  Raw seconds are printed on a line of their own.  A job that
shows a known defect runs once, outside the timed loop and the counts, and
its outcome is printed on a line of its own.  With --trace 1
one more pass runs every job in-process under bench/tracer.py, the
per-layer metrics come from its spans, and the spans are written to
.bench_work/.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  Without src/brlab next to this directory it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from jobs import WORKLOADS, expected_fields, make_jobs, verdict  # noqa: E402
from reference import run_reference  # noqa: E402

NO_WORK = ["bound", "--method", "theorem1-formula", "--m", "2", "--n", "2", "--l", "2"]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BRLAB_PRIMES", None)
    return env


def run_process(argv: list[str], workdir: Path) -> dict:
    """Run one process to completion; wall, CPU and peak RSS from wait4."""
    out_path, err_path = workdir / "job.out", workdir / "job.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "stdout": out_path.read_text()}


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "brlab.cli", *args]


# Reference runs between two jobs, so that they sample the host over the
# same stretches of time as the jobs do.
REF_RUNS = 3


def reference_slot(refs: list[tuple[float, float]]) -> None:
    refs.extend(run_reference() for _ in range(REF_RUNS))


def reference_unit(refs: list[tuple[float, float]]) -> tuple[float, float]:
    """(wall, CPU) seconds of the reference workload: its mean over the run."""
    return statistics.mean(t[0] for t in refs), statistics.mean(t[1] for t in refs)


def measure(jobs, seconds: float, workdir: Path, brlab):
    """Run the job list round-robin, at least once through, until `seconds`
    have passed.  The frontier job runs twice per round: it sets most of
    the job-list time and has a metric of its own, so it gets more samples.
    The reference workload runs REF_RUNS times before the first job and
    after each job.  Before each job, time one CLI call that does no work:
    interpreter start, `import brlab` and argument parsing.  Spreading
    those calls over the run keeps their median from resting on one moment
    of a machine whose speed drifts.

    Returns the no-work call times, the job runs and the reference runs."""
    cycle = jobs + [job for job in jobs if job.frontier]
    setup, runs, refs = [], [], []
    reference_slot(refs)
    start = time.perf_counter()
    while len(runs) < len(cycle) or time.perf_counter() - start < seconds:
        res = run_process(cli_argv(NO_WORK), workdir)
        if res["exit"] != 0:
            raise RuntimeError(f"no-work CLI call exited {res['exit']}")
        setup.append(res["wall_s"])
        job = cycle[len(runs) % len(cycle)]
        res = run_process(cli_argv(job.argv), workdir)
        res.update(job=job.name, verdict=verdict(job, res["exit"], res["stdout"], brlab))
        runs.append(res)
        reference_slot(refs)
    return setup, runs, refs


def traced_pass(jobs, workdir: Path, brlab):
    """Run every job once under tracer.py, each in a fresh process, with
    reference runs between them as in measure().  Returns the job results
    and the reference runs."""
    results, refs = [], []
    reference_slot(refs)
    for job in jobs:
        res = run_process([sys.executable, str(BENCH / "tracer.py"), job.name, *job.argv],
                          workdir)
        reference_slot(refs)
        if res["exit"] != 0:
            raise RuntimeError(f"tracer failed on {job.name}: "
                               f"{(workdir / 'job.err').read_text()}")
        doc = json.loads(res["stdout"])
        results.append({"job": job.name, "wall_s": res["wall_s"], "spans": doc["spans"],
                        "verdict": verdict(job, doc["exit"], doc["stdout"], brlab)})
    return results, refs


def per_job(runs: list[dict], key: str) -> dict[str, float]:
    """Mean of run[key] over each job's runs, in job-list order."""
    by_job: dict[str, list[float]] = {}
    for r in runs:
        by_job.setdefault(r["job"], []).append(r[key])
    return {name: statistics.mean(v) for name, v in by_job.items()}


def end_to_end(setup: list[float], runs: list[dict], refs, frontier: str) -> dict:
    """Job times in reference units: the mean of each job's runs over the
    run's reference unit.  Job-list totals are sums over jobs.  pass_ratio
    is the share of the job list whose every run passed its check."""
    ref_wall, ref_cpu = reference_unit(refs)
    wall = per_job(runs, "wall_s")
    failed_jobs = {r["job"] for r in runs if r["verdict"] != "ok"}
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (sum(wall.values()) / ref_wall, "ref"),
        "frontier_job_ref": (wall[frontier] / ref_wall, "ref"),
        "cpu_ref": (sum(per_job(runs, "cpu_s").values()) / ref_cpu, "ref"),
        "peak_rss_mb": (max(per_job(runs, "rss_mb").values()), "MB"),
        "pass_ratio": (1.0 - len(failed_jobs) / len(wall), "ratio"),
    }


def raw_seconds(runs: list[dict], refs, frontier: str) -> dict:
    """Job-list totals of per-job mean seconds, for reading; not gated."""
    wall = per_job(runs, "wall_s")
    return {"wall_s": sum(wall.values()), "frontier_job_s": wall[frontier],
            "cpu_s": sum(per_job(runs, "cpu_s").values()),
            "reference_s": reference_unit(refs)[0]}


def _self_time(span: dict, spans: list[dict]) -> float:
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
    return span["end"] - span["start"] - children


def per_layer(traced: list[dict], traced_refs, runs: list[dict], refs) -> dict:
    """Layer totals over the traced pass, named after the brlab modules."""
    spans = [s for r in traced for s in r["spans"]]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    def self_total(prefix):
        return sum(_self_time(s, r["spans"]) for r in traced for s in r["spans"]
                   if s["name"].startswith(prefix))

    flat = named("exterior.koszul_flattening")
    ranks = named("rank_engine.rank_certified")
    primes = named("rank_engine.rank_mod_p")
    passes = named("rank_engine.rank_mod_p", "rank_engine.rank_exact_q")
    # Input construction: restrict_matmul calls matmul_tensor, so only the
    # outermost of these spans count.
    build_names = ("tensor.matmul_tensor", "tensor.load_tensor", "binaryforms.restrict_matmul")
    build_ids = {(s["job"], s["id"]) for s in named(*build_names)}
    build_s = sum(s["end"] - s["start"] for s in named(*build_names)
                  if (s["job"], s["parent"]) not in build_ids)
    blocks = named("bench.blocks")
    # Tracing overhead: traced job time without the benchmark-only spans,
    # against the untraced job time, both in reference units.
    traced_ref = sum(
        r["wall_s"] - sum(s["end"] - s["start"] for s in r["spans"]
                          if s["name"] in ("rank_engine.SparseMatrix", "bench.blocks"))
        for r in traced) / reference_unit(traced_refs)[0]
    untraced_ref = sum(per_job(runs, "wall_s").values()) / reference_unit(refs)[0]
    return {
        "tensor.build_s": (build_s, "s"),
        "exterior.flatten_s": (total("exterior.koszul_flattening"), "s"),
        "exterior.nnz": (sum(s["nnz"] for s in flat), "count"),
        "exterior.cells": (sum(s["cells"] for s in flat), "count"),
        "exterior.peak_rss_mb": (max((s["rss_after_mb"] for s in flat), default=0.0), "MB"),
        "rank_engine.validate_s": (total("rank_engine.SparseMatrix"), "s"),
        "rank_engine.rank_s": (total("rank_engine.rank_certified"), "s"),
        "rank_engine.primes": (len(primes), "count"),
        "rank_engine.rank_per_pass_s": (
            sum(s["end"] - s["start"] for s in passes) / len(passes), "s"),
        "rank_engine.rank_extra_rss_mb": (max(
            (s["rss_after_mb"] - s["rss_before_mb"] for s in ranks), default=0.0), "MB"),
        "rank_engine.blocks": (sum(s["blocks"] for s in blocks), "count"),
        "rank_engine.max_block_rows": (
            max((s["max_block_rows"] for s in blocks), default=0), "count"),
        "bounds.certificate_s": (total("bounds.bound_koszul",
                                       "bounds.bound_matmul_restricted"), "s"),
        "bounds.self_s": (self_total("bounds.bound_"), "s"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.self_s": (self_total("cli.main"), "s"),
        "trace.overhead_ratio": (traced_ref / untraced_ref - 1.0, "ratio"),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "brlab").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "brlab" / "__init__.py").is_file():
        print(f"error: no brlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import brlab

    workdir = WORK / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = make_jobs(args.workload, args.seed, workdir)
    defects = [job for job in jobs if job.known_defect]
    jobs = [job for job in jobs if not job.known_defect]
    frontier = next(job.name for job in jobs if job.frontier)

    for job in jobs + defects:
        expected_fields(job, brlab)
    setup, runs, refs = measure(jobs, args.seconds, workdir, brlab)
    defect_runs = []
    for job in defects:
        res = run_process(cli_argv(job.argv), workdir)
        defect_runs.append({"job": job.name, "exit": res["exit"],
                            "verdict": verdict(job, res["exit"], res["stdout"], brlab)})
    metrics = end_to_end(setup, runs, refs, frontier)
    raw = raw_seconds(runs, refs, frontier)

    if args.trace:
        traced, traced_refs = traced_pass(jobs, workdir, brlab)
        metrics = per_layer(traced, traced_refs, runs, refs)
        runs += traced
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([s for r in traced for s in r["spans"]]) + "\n")
        print(f"spans: {spans_path.relative_to(ROOT)}")

    for r in runs:
        print(f"{r['job']}: {r['wall_s']:.4f} s, {r['verdict']}")
    for d in defect_runs:
        print(f"known defect {d['job']}: exit {d['exit']}, {d['verdict']} (not counted)")
    print("seconds: " + ", ".join(f"{k}={v:.4f}" for k, v in raw.items()))
    print(f"src_lines: {src_lines()}")
    result = {
        "correct": all(r["verdict"] != "wrong" for r in runs + defect_runs),
        "attempted": len(runs),
        "failed": sum(r["verdict"] != "ok" for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

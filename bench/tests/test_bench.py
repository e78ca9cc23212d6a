"""Self-tests of the benchmark: seeded inputs, the certificate check, the
printed metric names, a tiny run, and the refusal without sources.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys

import brlab
import jobs
import run

ROOT = run.ROOT


def _tiny_jobs(workdir):
    rng = random.Random(0)
    return [
        jobs.restricted_job(2),
        jobs.restricted_job(3, frontier=True),
        jobs.koszul_job(3, 3, 1, 2),
        jobs.kernel_dim_job(3, 3, 1, 2),
        jobs.dense_job(rng, workdir, "tiny-int", 4, 1, False),
        jobs.dense_job(rng, workdir, "tiny-rat", 4, 1, True),
    ]


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_gives_same_inputs(tmp_path):
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, again, other):
        d.mkdir()
    a = jobs.make_jobs("random_dense", 11, first)
    b = jobs.make_jobs("random_dense", 11, again)
    c = jobs.make_jobs("random_dense", 12, other)
    read = lambda js: [open(j.tensor_path).read() for j in js]
    assert read(a) == read(b)
    assert read(a) != read(c)
    assert [j.argv[:-1] for j in a] == [j.argv[:-1] for j in b]


def test_check_rejects_altered_bound(tmp_path):
    job = jobs.restricted_job(3)
    res = run.run_process(run.cli_argv(job.argv), tmp_path)
    assert jobs.verdict(job, res["exit"], res["stdout"], brlab) == "ok"
    cert = json.loads(res["stdout"])
    cert["bound"] += 1
    assert jobs.verdict(job, 0, json.dumps(cert), brlab) == "wrong"
    assert jobs.verdict(job, 3, "", brlab) == "failed"


def test_check_ignores_timings(tmp_path):
    job = jobs.koszul_job(3, 3, 1, 2)
    res = run.run_process(run.cli_argv(job.argv), tmp_path)
    cert = json.loads(res["stdout"])
    cert["timings_ms"] = 12345.0
    assert jobs.verdict(job, 0, json.dumps(cert), brlab) == "ok"


def _run_main(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "make_jobs", lambda workload, seed, workdir: _tiny_jobs(workdir))
    assert run.main(["--workload", "random_dense", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_smoke_run_prints_every_end_to_end_metric(monkeypatch, capsys):
    result = _run_main(monkeypatch, capsys, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    spec = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(monkeypatch, capsys):
    result = _run_main(monkeypatch, capsys, trace=1)
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["exterior.flatten_s"] > 0 and metrics["rank_engine.rank_s"] > 0
    assert metrics["cli.main_s"] >= metrics["bounds.certificate_s"] + metrics["cli.self_s"] - 1e-9
    spans = json.loads((run.WORK / "spans-random_dense-seed0.json").read_text())
    ids = {(s["job"], s["id"]) for s in spans}
    assert all(s["parent"] is None or (s["job"], s["parent"]) in ids for s in spans)
    assert all(s["start"] <= s["end"] for s in spans)


def test_known_defect_job_runs_once_outside_the_counts(monkeypatch, capsys, tmp_path):
    def with_defect(workdir):
        defect = jobs.restricted_job(2)
        defect.name, defect.known_defect = "tiny-defect", True
        return _tiny_jobs(workdir) + [defect]

    monkeypatch.setattr(run, "make_jobs", lambda workload, seed, workdir: with_defect(workdir))
    assert run.main(["--workload", "random_dense", "--seed", "0", "--seconds", "0",
                     "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "known defect tiny-defect: exit 0, ok (not counted)" in lines
    assert not any(line.startswith("tiny-defect:") for line in lines)
    assert [j.name for j in jobs.make_jobs("random_dense", 1, tmp_path)
            if j.known_defect] == ["sparse-rat-12-p3"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _benchmark_spec()["workloads"]] == list(jobs.WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "restricted_ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout

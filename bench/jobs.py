"""Workload job lists, seeded input generation and the certificate checks.

A job is one `brlab` CLI invocation.  Its expected certificate fields are
computed independently of the run being checked: from closed forms
(restricted ladder, matmul Koszul) or from a mod-p rank on a different
elimination core (random dense tensors).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

# 2^31 - 1 keeps products below 2^62, so the reference mod-p rank runs on
# small integers; a rank drop modulo it has probability about rank / 2^31.
CHECK_PRIME = 2_147_483_647


@dataclass
class Job:
    """One CLI job: its arguments, what it computes and how to check it."""

    name: str
    argv: list[str]
    kind: str  # "restricted" | "koszul" | "kernel-dim" | "dense"
    params: dict
    frontier: bool = False
    tensor_path: str | None = None
    known_defect: bool = False
    expected: dict | None = field(default=None, repr=False)


def restricted_job(n: int, frontier: bool = False) -> Job:
    return Job(f"restricted-n{n}",
               ["bound", "--method", "koszul-restricted",
                "--m", str(n), "--n", str(n), "--l", str(n)],
               "restricted", {"n": n}, frontier)


def koszul_job(m: int, n: int, l: int, p: int, frontier: bool = False) -> Job:
    return Job(f"koszul-{m}{n}{l}-p{p}",
               ["bound", "--method", "koszul", "--p", str(p),
                "--m", str(m), "--n", str(n), "--l", str(l)],
               "koszul", {"m": m, "n": n, "l": l, "p": p}, frontier)


def kernel_dim_job(m: int, n: int, l: int, p: int) -> Job:
    return Job(f"kernel-dim-{m}{n}{l}-p{p}",
               ["kernel-dim", "--m", str(m), "--n", str(n), "--p", str(p),
                "--l", str(l), "--check", "rank"],
               "kernel-dim", {"m": m, "n": n, "l": l, "p": p})


def random_tensor_doc(rng: random.Random, dims, nnz: int, rational: bool) -> dict:
    """Tensor JSON document with exactly `nnz` nonzero entries.

    Integer entries lie in [-9, 9]; rational entries are v/d with
    2 <= d <= 9 and d not dividing v, so none of them is an integer.
    """
    a, b, c = dims
    entries = []
    for flat in sorted(rng.sample(range(a * b * c), nnz)):
        i, rest = divmod(flat, b * c)
        j, k = divmod(rest, c)
        if rational:
            d = rng.randint(2, 9)
            v = rng.choice([x for x in range(-9, 10) if x % d])
            q = Fraction(v, d)
            text = f"{q.numerator}/{q.denominator}"
        else:
            text = str(rng.choice([x for x in range(-9, 10) if x]))
        entries.append([i, j, k, text])
    return {"field": "Q", "dims": list(dims), "entries": entries}


def dense_job(rng: random.Random, workdir: Path, name: str, a: int, p: int,
              rational: bool, nnz: int | None = None, frontier: bool = False,
              known_defect: bool = False) -> Job:
    doc = random_tensor_doc(rng, (a, a, a), a ** 3 if nnz is None else nnz, rational)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="ascii")
    return Job(name, ["bound", "--method", "koszul", "--p", str(p), "--tensor", str(path)],
               "dense", {"a": a, "p": p, "rational": rational}, frontier, str(path),
               known_defect=known_defect)


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The fixed job list of a workload; only random_dense depends on the seed.

    Jobs marked known_defect are not timed or counted: run.py runs each once
    outside the timed loop and reports its outcome on a line of its own.
    """
    if workload == "restricted_ladder":
        return [restricted_job(4), restricted_job(5), restricted_job(6),
                restricted_job(7, frontier=True)]
    if workload == "matmul_koszul":
        return [koszul_job(3, 3, 3, 4), koszul_job(4, 4, 1, 7), koszul_job(4, 4, 2, 5),
                koszul_job(4, 4, 3, 5, frontier=True), kernel_dim_job(4, 4, 2, 5)]
    if workload == "random_dense":
        rng = random.Random(seed)
        return [
            dense_job(rng, workdir, "dense-int-8-p3", 8, 3, False, frontier=True),
            dense_job(rng, workdir, "dense-rat-8-p2", 8, 2, True),
            dense_job(rng, workdir, "dense-int-7-p3", 7, 3, False),
            dense_job(rng, workdir, "dense-rat-7-p3", 7, 3, True),
            # Known defect: 15.7M cells sends auto selection to multi-prime,
            # which refuses the non-integer entries with exit code 3.
            dense_job(rng, workdir, "sparse-rat-12-p3", 12, 3, True, nnz=35,
                      known_defect=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("restricted_ladder", "matmul_koszul", "random_dense")


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def _koszul_method(p: int) -> str:
    return "strassen" if p == 1 else "koszul"


def expected_fields(job: Job, brlab) -> dict:
    """Canonical certificate fields the job must print (cached on the job)."""
    if job.expected is not None:
        return job.expected
    kind, q = job.kind, job.params
    if kind == "restricted":
        n = q["n"]
        cols = n * n * comb(2 * n - 1, n - 1)
        exp = {"method": "koszul-restricted", "m": n, "n": n, "l": n, "p": n - 1,
               "rows": n * n * comb(2 * n - 1, n), "cols": cols, "rank": cols,
               "bound": brlab.bound_formula_theorem1(n, n, n)}
    elif kind == "koszul":
        m, n, l, p = q["m"], q["n"], q["l"], q["p"]
        a = m * n
        cols = n * l * comb(a, p)
        rank = cols - brlab.kernel_dim_formula(m, n, p, l)
        exp = {"method": _koszul_method(p), "m": m, "n": n, "l": l, "p": p,
               "rows": m * l * comb(a, p + 1), "cols": cols, "rank": rank,
               "bound": _ceil_div(rank, comb(a - 1, p))}
    elif kind == "kernel-dim":
        m, n, l, p = q["m"], q["n"], q["l"], q["p"]
        dim = brlab.kernel_dim_formula(m, n, p, l)
        exp = {"agree": True, "formula": dim, "pieri": dim, "rank_based": dim}
    elif kind == "dense":
        a, p = q["a"], q["p"]
        km = brlab.koszul_flattening(brlab.load_tensor(job.tensor_path), p)
        rank = brlab.rank_mod_p(km.matrix, CHECK_PRIME).rank
        exp = {"method": _koszul_method(p), "p": p, "rows": a * comb(a, p + 1),
               "cols": a * comb(a, p), "rank": rank,
               "bound": _ceil_div(rank, comb(a - 1, p))}
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    job.expected = exp
    return exp


def verdict(job: Job, exit_code: int, stdout: str, brlab) -> str:
    """"ok", "failed" (non-zero exit) or "wrong" (certificate disagrees)."""
    if exit_code != 0:
        return "failed"
    try:
        cert = json.loads(stdout)
    except json.JSONDecodeError:
        return "wrong"
    exp = expected_fields(job, brlab)
    if any(cert.get(key) != value for key, value in exp.items()):
        return "wrong"
    return "ok"

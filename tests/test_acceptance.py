"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion (prints are swallowed for passing tests without -s).
"""

import random
import time
import warnings
from math import comb

from oracles import count_ssyt

from brlab.binaryforms import dual_surjectivity_check, restricted_koszul
from brlab.bounds import bound_koszul, bound_matmul_restricted, bound_formula_theorem1, compare_table, lickteig_square
from brlab.exterior import koszul_flattening
from brlab.rank_engine import MultiPrime, rank_certified, rank_exact_q, rank_mod_p
from brlab.repcomb import (
    cauchy_wedge,
    conjugate,
    dim_schur,
    kernel_dim_formula,
    kernel_dim_pieri,
    partitions_in_box,
    pieri_add_box,
)
from brlab.scalars import DEFAULT_CERTIFICATION_PRIMES
from brlab.tensor import matmul_tensor, rank_one_tensor

FIRST_PRIME = DEFAULT_CERTIFICATION_PRIMES[0]


def _report(name: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s exceeded budget {budget_s}s"
    print(f"{name}: PASS ({elapsed:.2f}s, budget {budget_s:.0f}s)")


def test_criterion_1_wedge_rank_306l():
    t0 = time.perf_counter()
    for l in (1, 2, 3):
        km = koszul_flattening(matmul_tensor(3, 3, l), 4)
        assert rank_exact_q(km.matrix).rank == 306 * l
        for p in DEFAULT_CERTIFICATION_PRIMES:
            assert rank_mod_p(km.matrix, p).rank == 306 * l
    cert = bound_koszul(matmul_tensor(3, 3, 3), 4)
    assert cert.rank == 918
    assert cert.bound == 14  # ceil(918/70)
    _report("criterion 1 (wedge rank 306l, bound 14)", t0, 30.0)


def test_criterion_2_kernel_cross_validation_grid():
    t0 = time.perf_counter()
    checked = 0
    for m in range(1, 13):
        for n in range(1, m + 1):
            if m * n > 12:
                continue
            for p in range(m, (m * n + 1) // 2):
                pieri = kernel_dim_pieri(m, n, p, 1)
                formula = kernel_dim_formula(m, n, p, 1)
                km = koszul_flattening(matmul_tensor(m, n, 1), p)
                rank = rank_mod_p(km.matrix, FIRST_PRIME).rank
                assert pieri == formula == km.matrix.cols - rank, (m, n, p)
                checked += 1
    assert checked == 4  # (3,3,p=3), (3,3,p=4), (4,3,p=4), (4,3,p=5)
    _report(f"criterion 2 (kernel grid, {checked} cases)", t0, 300.0)


def test_criterion_3_restricted_full_rank_grid():
    t0 = time.perf_counter()
    strategy = MultiPrime((FIRST_PRIME,))
    for m in range(1, 7):
        for n in range(1, m + 1):
            for l in (1, 2):
                km = restricted_koszul(m, n, l)
                expected_cols = n * l * comb(m + n - 1, n - 1)
                assert km.cols == expected_cols
                cert = bound_matmul_restricted(m, n, l, strategy)
                assert cert.rank == expected_cols, (m, n, l)
                assert cert.bound == bound_formula_theorem1(m, n, l), (m, n, l)
    assert bound_matmul_restricted(3, 3, 3, strategy).bound == 15
    for n in range(1, 7):
        assert bound_formula_theorem1(n, n, n) == 2 * n * n - n
        cert = bound_matmul_restricted(n, n, n, strategy)
        assert cert.bound == 2 * n * n - n, n
    _report("criterion 3 (restricted map realizes closed form)", t0, 120.0)


def test_criterion_4_dual_surjectivity():
    t0 = time.perf_counter()
    for m in range(1, 7):
        for n in range(1, m + 1):
            assert dual_surjectivity_check(m, n), (m, n)
    _report("criterion 4 (dual surjectivity, n <= m <= 6)", t0, 60.0)


def test_criterion_5_rank_one_law():
    t0 = time.perf_counter()
    rng = random.Random(1618)
    count = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while count < 200:
            a = rng.randint(2, 6)
            b = rng.randint(1, 4)
            c = rng.randint(1, 4)
            u = [rng.randint(-4, 4) for _ in range(a)]
            v = [rng.randint(-4, 4) for _ in range(b)]
            w = [rng.randint(-4, 4) for _ in range(c)]
            for vec in (u, v, w):
                if all(x == 0 for x in vec):
                    vec[0] = rng.randint(1, 4)
            t = rank_one_tensor(u, v, w)
            for p in range(0, a):
                assert rank_exact_q(koszul_flattening(t, p).matrix).rank == comb(a - 1, p)
            count += 1
    _report("criterion 5 (rank-one law, 200 tensors)", t0, 120.0)


def test_criterion_6_representation_theory_suite():
    t0 = time.perf_counter()
    # wedge-power decomposition at (p, m, n) = (4, 3, 3) reproduced verbatim
    summands = cauchy_wedge(4, 3, 3)
    assert [(s.pi_m, s.pi_u) for s in summands] == [
        ((3, 1), (2, 1, 1)), ((2, 2), (2, 2)), ((2, 1, 1), (3, 1))]
    assert sum(s.dimension for s in summands) == 126 == comb(9, 4)
    assert conjugate((3, 1)) == (2, 1, 1) and conjugate((2, 2)) == (2, 2)
    assert dim_schur((4, 1), 3) == 24
    assert dim_schur((2, 1, 1), 3) == 3
    assert kernel_dim_pieri(3, 3, 4, 1) == 72
    assert pieri_add_box((2, 1, 1), 3) == [(3, 1, 1), (2, 2, 1)]
    # hook-content dimensions against the brute-force tableau count
    for size in range(0, 7):
        for pi in partitions_in_box(size, size if size else 1, size if size else 1):
            for v in range(1, 5):
                assert dim_schur(pi, v) == count_ssyt(pi, v), (pi, v)
    _report("criterion 6 (representation-theory suite)", t0, 60.0)


def test_criterion_7_soundness_random_matrices():
    t0 = time.perf_counter()
    from brlab.rank_engine import SparseMatrix
    from brlab.scalars import FieldTag
    rng = random.Random(271828)
    q = FieldTag.rationals()
    test_primes = (2, 3, 5) + DEFAULT_CERTIFICATION_PRIMES
    for _ in range(100):
        rows = rng.randint(1, 40)
        cols = rng.randint(1, 40)
        entries = []
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.3:
                    v = rng.randint(-9, 9)
                    if v:
                        entries.append((r, c, v))
        m = SparseMatrix(rows, cols, entries, q)
        exact = rank_exact_q(m).rank
        mod_ranks = [rank_mod_p(m, p).rank for p in test_primes]
        assert all(r <= exact for r in mod_ranks)
        multi = rank_certified(m, MultiPrime()).rank
        assert multi <= exact
        assert multi == exact  # default primes exceed any minor of these matrices
    _report("criterion 7 (mod-p soundness, 100 matrices)", t0, 120.0)


def test_criterion_8_closed_form_comparison():
    t0 = time.perf_counter()
    assert lickteig_square(3) == 14
    rows = compare_table(3, 8)
    for row in rows:
        assert row["theorem1"] == 2 * row["n"] ** 2 - row["n"]
        assert row["lickteig"] == lickteig_square(row["n"])
        assert row["theorem1"] > row["lickteig"], row
    _report("criterion 8 (closed-form dominance, 3 <= n <= 8)", t0, 30.0)

"""Partition combinatorics: hook-content dimensions, one-box sums,
wedge decompositions, kernel dimensions."""

import random
from math import comb

import pytest

from oracles import count_ssyt

from brlab.errors import FormatError, InvalidDimension, OrderViolation
from brlab.repcomb import (
    cauchy_wedge,
    check_partition,
    conjugate,
    dim_schur,
    formula_range_validated,
    kernel_dim_formula,
    kernel_dim_pieri,
    kernel_modules,
    partitions_in_box,
    pieri_add_box,
)


def _all_partitions_up_to(total):
    out = []
    for size in range(total + 1):
        out.extend(partitions_in_box(size, size if size else 1, size if size else 1))
    return out


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()


def test_conjugate_involution():
    for pi in _all_partitions_up_to(7):
        assert conjugate(conjugate(pi)) == pi


def test_dim_schur_examples():
    assert dim_schur((4, 1), 3) == 24
    assert dim_schur((2, 1, 1), 3) == 3
    assert dim_schur((1, 1, 1, 1), 3) == 0
    for d in range(0, 6):
        for v in range(1, 6):
            pi = (d,) if d else ()
            assert dim_schur(pi, v) == comb(v + d - 1, d)


def test_dim_schur_against_tableau_count():
    for pi in _all_partitions_up_to(6):
        for v in range(1, 5):
            assert dim_schur(pi, v) == count_ssyt(pi, v)


def test_pieri_examples():
    assert pieri_add_box((2, 1, 1), 3) == [(3, 1, 1), (2, 2, 1)]
    assert pieri_add_box((3, 1), 3) == [(4, 1), (3, 2), (3, 1, 1)]
    assert pieri_add_box((), 4) == [(1,)]


def test_pieri_dimension_identity():
    rng = random.Random(6174)
    pool = _all_partitions_up_to(7)
    for _ in range(50):
        pi = pool[rng.randrange(len(pool))]
        v = rng.randint(1, 5)
        lhs = dim_schur(pi, v) * v
        rhs = sum(dim_schur(mu, v) for mu in pieri_add_box(pi, v))
        assert lhs == rhs


def test_cauchy_wedge_example_433():
    summands = cauchy_wedge(4, 3, 3)
    assert [(s.pi_m, s.pi_u) for s in summands] == [
        ((3, 1), (2, 1, 1)),
        ((2, 2), (2, 2)),
        ((2, 1, 1), (3, 1)),
    ]
    assert [s.dimension for s in summands] == [45, 36, 45]
    assert sum(s.dimension for s in summands) == 126 == comb(9, 4)
    assert all(s.multiplicity == 1 for s in summands)


def test_cauchy_wedge_single_box():
    for m, n in [(2, 2), (3, 4), (5, 1)]:
        summands = cauchy_wedge(1, m, n)
        assert len(summands) == 1
        s = summands[0]
        assert s.pi_m == (1,) and s.pi_u == (1,)
        assert s.dimension == m * n


def test_cauchy_dimension_identity():
    for m in range(1, 5):
        for n in range(1, 5):
            for p in range(0, m * n + 1):
                total = sum(s.dimension for s in cauchy_wedge(p, m, n))
                assert total == comb(m * n, p)
    with pytest.raises(InvalidDimension):
        cauchy_wedge(5, 2, 2)


def test_kernel_modules_examples():
    assert kernel_modules(3, 3, 4) == [((2, 1, 1), (4, 1))]
    assert kernel_modules(3, 3, 2) == []
    assert kernel_modules(3, 3, 3) == [((1, 1, 1), (4,))]
    with pytest.raises(OrderViolation):
        kernel_modules(2, 3, 2)


def test_kernel_dim_pieri_examples():
    assert kernel_dim_pieri(3, 3, 4, 1) == 72
    assert kernel_dim_pieri(3, 3, 4, 3) == 216
    assert kernel_dim_pieri(2, 2, 1, 1) == 0


def test_kernel_dim_formula_examples():
    assert kernel_dim_formula(3, 3, 4, 1) == 135 - 63 == 72
    assert kernel_dim_formula(3, 3, 3, 1) == 15 == kernel_dim_pieri(3, 3, 3, 1)
    assert kernel_dim_formula(4, 2, 1, 5) == 0
    with pytest.raises(OrderViolation):
        kernel_dim_formula(2, 3, 2, 1)


def test_kernel_agreement_grid():
    # all n <= m with mn <= 12, m <= p <= ceil(mn/2)-1, l in {1,2,3}
    for m in range(1, 13):
        for n in range(1, m + 1):
            if m * n > 12:
                continue
            for p in range(m, (m * n + 1) // 2):
                assert formula_range_validated(m, n, p)
                for l in (1, 2, 3):
                    assert kernel_dim_pieri(m, n, p, l) == kernel_dim_formula(m, n, p, l)


def test_formula_range_flag():
    assert formula_range_validated(3, 3, 4)
    assert not formula_range_validated(3, 3, 5)
    assert not formula_range_validated(2, 3, 1)


def test_check_partition():
    assert check_partition([4, 1]) == (4, 1)
    assert check_partition(()) == ()
    with pytest.raises(FormatError):
        check_partition((1, 4))
    with pytest.raises(FormatError):
        check_partition((2, -1))
    with pytest.raises(FormatError):
        check_partition((0,))


def test_partitions_in_box_order():
    assert list(partitions_in_box(4, 3, 3)) == [(3, 1), (2, 2), (2, 1, 1)]
    assert list(partitions_in_box(0, 3, 3)) == [()]
    assert list(partitions_in_box(3, 1, 2)) == []

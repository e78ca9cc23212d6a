"""The binary-form multiplication projection and the restricted flattening."""

from math import comb

import pytest

from oracles import dense_rows, rank_gauss_fractions

from brlab.binaryforms import dual_surjectivity_check, restrict_matmul, restricted_koszul
from brlab.errors import OrderViolation
from brlab.exterior import classical_tensor, koszul_flattening
from brlab.rank_engine import rank_exact_q, rank_mod_p
from brlab.scalars import FieldTag
from brlab.tensor import Tensor3, matmul_tensor


def _projected_matmul(m, n, l, field):
    """Independent restriction: the dense (m+n-1) x mn monomial map applied
    to every cell of matmul_tensor, accumulating into a dict."""
    proj = [[1 if alpha + s == r else 0 for alpha in range(m) for s in range(n)]
            for r in range(m + n - 1)]
    cells = {}
    for i, j, k, v in matmul_tensor(m, n, l, field).items():
        for r in range(m + n - 1):
            if proj[r][i]:
                cells[(r, j, k)] = cells.get((r, j, k), 0) + proj[r][i] * v
    entries = [(i, j, k, v) for (i, j, k), v in cells.items() if field.coerce(v)]
    return Tensor3((m + n - 1, n * l, m * l), entries, field)


@pytest.mark.parametrize("field", [FieldTag.rationals(), FieldTag.prime_field(5)],
                         ids=["Q", "Fp5"])
def test_restrict_matmul_matches_dense_projection(field):
    for m in range(1, 5):
        for n in range(1, m + 1):
            for l in range(1, 4):
                t = restrict_matmul(m, n, l, field)
                assert t.field == field
                assert t == _projected_matmul(m, n, l, field), (m, n, l)


def test_restriction_projector_22():
    # x* (x) y* and y* (x) x* (first-factor indices 1 and 2) both land on the
    # middle degree index 1; the two outer ones keep their own index.
    t = restrict_matmul(2, 2, 1)
    image = {(i, j, k) for i, j, k, _ in t.items()}
    for i, j, k, _ in matmul_tensor(2, 2, 1).items():
        assert ({0: 0, 1: 1, 2: 1, 3: 2}[i], j, k) in image
    assert len(image) == 4 and {i for i, _, _ in image} == {0, 1, 2}


def test_restriction_projector_m1_identity():
    # n = 1: degree index alpha + 0 = alpha * 1 + 0, so nothing is projected.
    for m in (1, 2, 5):
        for l in (1, 3):
            assert restrict_matmul(m, 1, l) == matmul_tensor(m, 1, l)


def test_restriction_projector_33_full_row_rank():
    # The projection is onto: the restricted first factor is fully used.
    t = restrict_matmul(3, 3, 1)
    assert t.dims[0] == 5
    fa = koszul_flattening(classical_tensor(t, "A"), 0).matrix
    assert rank_gauss_fractions(dense_rows(fa)) == 5


def test_restriction_projector_order_violation():
    with pytest.raises(OrderViolation):
        restrict_matmul(2, 3, 1)


def test_restrict_matmul_dims():
    t = restrict_matmul(3, 3, 1)
    assert t.dims == (5, 3, 3)
    assert t.nnz == 9
    t = restrict_matmul(4, 2, 3)
    assert t.dims == (5, 6, 12)


def test_restricted_koszul_examples():
    km = restricted_koszul(3, 3, 1)
    assert (km.rows, km.cols) == (30, 30)
    assert rank_exact_q(km.matrix).rank == 30
    assert rank_gauss_fractions(dense_rows(km.matrix)) == 30

    km = restricted_koszul(2, 2, 1)
    assert (km.rows, km.cols) == (6, 6)
    assert rank_exact_q(km.matrix).rank == 6

    km = restricted_koszul(3, 2, 1)
    assert (km.rows, km.cols) == (18, 8)
    assert rank_exact_q(km.matrix).rank == 8


def test_restricted_koszul_default_p():
    # p = n - 1 = 2 on a = m + n - 1 = 6 and (b, c) = (nl, ml) = (3, 4).
    km = restricted_koszul(4, 3, 1)
    assert (km.rows, km.cols) == (4 * comb(6, 3), 3 * comb(6, 2))


def test_restricted_full_column_rank_small_grid():
    for m in range(1, 5):
        for n in range(1, m + 1):
            km = restricted_koszul(m, n, 1)
            expected_cols = n * comb(m + n - 1, n - 1)
            assert km.cols == expected_cols
            assert rank_exact_q(km.matrix).rank == expected_cols


def test_restricted_koszul_order_violation():
    with pytest.raises(OrderViolation):
        restricted_koszul(2, 3, 1)


def test_dual_surjectivity_examples():
    assert dual_surjectivity_check(3, 3)
    assert dual_surjectivity_check(1, 1)
    assert dual_surjectivity_check(4, 2)
    with pytest.raises(OrderViolation):
        dual_surjectivity_check(2, 4)


def test_dual_surjectivity_matches_transpose_rank():
    km = restricted_koszul(3, 2, 1)
    trans = km.matrix.transpose()
    assert rank_mod_p(trans, 65521).rank == rank_exact_q(km.matrix).rank

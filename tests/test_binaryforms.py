"""The binary-form multiplication projection and the restricted flattening."""

from math import comb

import pytest

from oracles import dense_rows, rank_gauss_fractions

from brlab.binaryforms import (
    dual_surjectivity_check,
    restrict_matmul,
    restricted_koszul,
    restriction_projector,
)
from brlab.errors import OrderViolation
from brlab.rank_engine import rank_exact_q, rank_mod_p


def test_restriction_projector_22():
    setup = restriction_projector(2, 2)
    assert (setup.projector.target_dim, setup.projector.source_dim) == (3, 4)
    # x* (x) y* (flat index 0*2+1) lands on the middle target vector
    assert setup.projector.matrix == ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))


def test_restriction_projector_m1_identity():
    for m in (1, 2, 5):
        setup = restriction_projector(m, 1)
        assert setup.projector.matrix == tuple(
            tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def test_restriction_projector_33_full_row_rank():
    setup = restriction_projector(3, 3)
    assert (setup.dim_target, setup.dim_m * setup.dim_u) == (5, 9)
    assert rank_gauss_fractions([list(r) for r in setup.projector.matrix]) == 5


def test_restriction_projector_order_violation():
    with pytest.raises(OrderViolation):
        restriction_projector(2, 3)


def test_projector_left_inverse_of_monomial_section():
    for m, n in [(2, 2), (3, 3), (4, 2), (5, 3)]:
        setup = restriction_projector(m, n)
        pmat = setup.projector.matrix
        target = setup.dim_target
        # section: degree index r -> (alpha, s) = (min(r, m-1), r - min(r, m-1))
        section_cols = []
        for r in range(target):
            alpha = min(r, m - 1)
            s = r - alpha
            section_cols.append(alpha * n + s)
        for r in range(target):
            image = [pmat[i][section_cols[r]] for i in range(target)]
            assert image == [1 if i == r else 0 for i in range(target)]


def test_restrict_matmul_dims():
    t = restrict_matmul(3, 3, 1)
    assert t.dims == (5, 3, 3)
    assert t.nnz == 9
    t = restrict_matmul(4, 2, 3)
    assert t.dims == (5, 6, 12)


def test_restricted_koszul_examples():
    km = restricted_koszul(3, 3, 1, 2)
    assert (km.rows, km.cols) == (30, 30)
    assert rank_exact_q(km.matrix).rank == 30
    assert rank_gauss_fractions(dense_rows(km.matrix)) == 30

    km = restricted_koszul(2, 2, 1, 1)
    assert (km.rows, km.cols) == (6, 6)
    assert rank_exact_q(km.matrix).rank == 6

    km = restricted_koszul(3, 2, 1, 1)
    assert (km.rows, km.cols) == (18, 8)
    assert rank_exact_q(km.matrix).rank == 8


def test_restricted_koszul_default_p():
    km = restricted_koszul(4, 3, 1)
    assert km.p == 2
    assert km.cols == 3 * comb(6, 2)


def test_restricted_full_column_rank_small_grid():
    for m in range(1, 5):
        for n in range(1, m + 1):
            km = restricted_koszul(m, n, 1, n - 1)
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
    km = restricted_koszul(3, 2, 1, 1)
    trans = km.matrix.transpose()
    assert rank_mod_p(trans, 65521).rank == rank_exact_q(km.matrix).rank

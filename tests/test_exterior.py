"""Wedge-basis enumeration and the wedge-power flattening."""

import random
import tracemalloc
import warnings
from math import comb

import pytest

from oracles import colex_tuples, dense_rows, rank_gauss_fractions, wedge_flattening

from brlab.errors import InvalidDimension
from brlab.exterior import (
    WedgeRangeWarning,
    koszul_flattening,
    koszul_weight_spaces,
    redundancy_cap,
)
from brlab.rank_engine import SparseMatrix, rank_exact_q
from brlab.scalars import FieldTag
from brlab.tensor import Tensor3, add_tensors, matmul_tensor, rank_one_tensor

Q = FieldTag.rationals()


def test_enumerate_subsets_colex_examples():
    assert list(colex_tuples(3, 2)) == [(0, 1), (0, 2), (1, 2)]

    assert list(colex_tuples(5, 0)) == [()]

    subs = list(colex_tuples(4, 2))
    assert len(subs) == 6
    assert subs[4] == (1, 3)


def test_subset_rank_matches_enumeration():
    # Colex order: a subset's position is the sum of C(s_idx, idx + 1).
    for a, p in [(4, 2), (6, 3), (7, 0), (7, 7), (9, 4)]:
        for pos, s in enumerate(colex_tuples(a, p)):
            assert sum(comb(x, idx + 1) for idx, x in enumerate(s)) == pos


def _single_vector_flattening(a, p, indices):
    """Flattening of sum_i e_i (x) e_0 (x) e_0: cells keyed by (row subset,
    column subset), since b = c = 1 makes rows and columns subset positions."""
    t = Tensor3((a, 1, 1), [(i, 0, 0, 1) for i in indices], Q)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WedgeRangeWarning)
        km = koszul_flattening(t, p)
    big, small = list(colex_tuples(a, p + 1)), list(colex_tuples(a, p))
    return {(big[r], small[c]): v for r, c, v in km.matrix.items()}


def test_wedge_insert_examples():
    # a_1 ^ (a_0 ^ a_2) = -(a_0 ^ a_1 ^ a_2): one element of S lies below 1
    cells = _single_vector_flattening(5, 2, [1])
    assert cells[((0, 1, 2), (0, 2))] == -1
    cells = _single_vector_flattening(5, 2, [0])
    assert cells[((0, 1, 2), (1, 2))] == 1
    # a_2 ^ (a_0 ^ a_2) = 0: no cell in that column
    cells = _single_vector_flattening(5, 2, [2])
    assert not any(col == (0, 2) for _, col in cells)


def test_wedge_insert_double_annihilation():
    for a in range(2, 6):
        for p in range(a):
            cells = _single_vector_flattening(a, p, range(a))
            for s in colex_tuples(a, p):
                rows = {row for row, col in cells if col == s}
                assert rows == {tuple(sorted(s + (i,))) for i in range(a) if i not in s}


def test_koszul_matches_definition_with_sparse_first_factor():
    # Only some first-factor indices occur: cells, and their order in each
    # row, match the definition.
    rng = random.Random(43)
    for _ in range(60):
        a, b, c = rng.randint(1, 8), rng.randint(1, 3), rng.randint(1, 3)
        used = rng.sample(range(a), rng.randint(1, a))
        cells = {(rng.choice(used), rng.randrange(b), rng.randrange(c)): rng.randint(-4, 4) or 1
                 for _ in range(rng.randint(1, 10))}
        t = Tensor3((a, b, c), [(*key, v) for key, v in cells.items()], Q)
        for p in range(a):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WedgeRangeWarning)
                m = koszul_flattening(t, p).matrix
            # The oracle lists the cells in the order koszul_flattening
            # streams them: tensor entries in storage order, each over the
            # p-subsets S avoiding i in colex order.
            ref = SparseMatrix(m.rows, m.cols, wedge_flattening(t, p)[0], Q)
            assert [(r, list(row.items())) for r, row in m._rows.items()] == \
                [(r, list(row.items())) for r, row in ref._rows.items()]


def test_koszul_tables_follow_the_entries_not_the_first_dimension():
    t = Tensor3((400000, 1, 1), [(7, 0, 0, 1)], Q)
    tracemalloc.start()
    try:
        km = koszul_flattening(t, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert km.matrix.items() == [(7, 0, 1)]
    assert peak < 1_000_000
    km = koszul_flattening(Tensor3((10**30, 1, 1), [(10**29, 0, 0, 2)], Q), 0)
    assert km.matrix.items() == [(10**29, 0, 2)]
    km = koszul_flattening(Tensor3((3000, 1, 1), [(5, 0, 0, 1)], Q), 1)
    assert km.matrix.nnz == 2999


def _random_tensor(rng, dims, fill=0.5, field=Q):
    entries = []
    a, b, c = dims
    for i in range(a):
        for j in range(b):
            for k in range(c):
                if rng.random() < fill:
                    v = field.coerce(rng.randint(-3, 3))
                    if v:
                        entries.append((i, j, k, v))
    return Tensor3(dims, entries, field)


def test_koszul_shapes():
    rng = random.Random(41)
    for a, b, c in [(3, 2, 2), (4, 2, 3), (5, 3, 2)]:
        t = _random_tensor(rng, (a, b, c))
        for p in range(0, redundancy_cap(a) + 1):
            km = koszul_flattening(t, p)
            assert km.rows == c * comb(a, p + 1)
            assert km.cols == b * comb(a, p)


@pytest.mark.parametrize("field", [Q, FieldTag.prime_field(7)], ids=["Q", "F7"])
def test_koszul_matches_the_brute_force_oracle(field):
    rng = random.Random(7 if field.is_q else 8)
    for dims in [(1, 2, 2), (3, 2, 2), (4, 2, 3), (5, 3, 2), (6, 2, 2), (7, 1, 2)]:
        for fill in (0.3, 0.7):
            t = _random_tensor(rng, dims, fill, field)
            for p in range(redundancy_cap(dims[0]) + 1):
                km = koszul_flattening(t, p)
                cells, row_labels, col_labels = wedge_flattening(t, p)
                assert (km.rows, km.cols) == (len(row_labels), len(col_labels))
                assert km.matrix.items() == sorted(cells)


def test_koszul_p0_equals_classical_b():
    t = matmul_tensor(2, 3, 4)
    c = t.dims[2]
    assert koszul_flattening(t, 0).matrix.items() == \
        sorted((i * c + k, j, v) for i, j, k, v in t.items())


def test_koszul_rank_one_law_small():
    rng = random.Random(12)
    for a in range(2, 7):
        for _ in range(4):
            u = [rng.randint(-3, 3) for _ in range(a)]
            if all(x == 0 for x in u):
                u[0] = 1
            v = [rng.randint(-3, 3) for _ in range(3)]
            if all(x == 0 for x in v):
                v[0] = 1
            w = [rng.randint(-3, 3) for _ in range(2)]
            if all(x == 0 for x in w):
                w[0] = 1
            t = rank_one_tensor(u, v, w)
            for p in range(0, redundancy_cap(a) + 1):
                km = koszul_flattening(t, p)
                assert rank_exact_q(km.matrix).rank == comb(a - 1, p)


def test_koszul_linearity():
    rng = random.Random(99)
    s = _random_tensor(rng, (4, 3, 2))
    t = _random_tensor(rng, (4, 3, 2))
    total = add_tensors(s, t)
    for p in (1,):
        km_s = koszul_flattening(s, p).matrix
        km_t = koszul_flattening(t, p).matrix
        km_sum = koszul_flattening(total, p).matrix
        combined = {}
        for r, c, v in km_s.items():
            combined[(r, c)] = combined.get((r, c), 0) + v
        for r, c, v in km_t.items():
            combined[(r, c)] = combined.get((r, c), 0) + v
        combined = {k: v for k, v in combined.items() if v != 0}
        assert combined == {(r, c): v for r, c, v in km_sum.items()}


def test_koszul_subadditivity_random():
    rng = random.Random(4242)
    for _ in range(10):
        s = _random_tensor(rng, (4, 3, 3))
        t = _random_tensor(rng, (4, 3, 3))
        total = add_tensors(s, t)
        r_sum = rank_exact_q(koszul_flattening(total, 1).matrix).rank
        r_s = rank_exact_q(koszul_flattening(s, 1).matrix).rank
        r_t = rank_exact_q(koszul_flattening(t, 1).matrix).rank
        assert r_sum <= r_s + r_t


def test_koszul_matmul_331_p4():
    km = koszul_flattening(matmul_tensor(3, 3, 1), 4)
    assert (km.rows, km.cols) == (378, 378)
    assert rank_exact_q(km.matrix).rank == 306


def test_koszul_matmul_222_p1():
    km = koszul_flattening(matmul_tensor(2, 2, 2), 1)
    assert km.cols == 16
    assert rank_exact_q(km.matrix).rank == 16
    assert rank_gauss_fractions(dense_rows(km.matrix)) == 16


def test_koszul_range_warning():
    t = matmul_tensor(2, 2, 1)  # a = 4, cap = 1
    with pytest.warns(WedgeRangeWarning):
        koszul_flattening(t, 2)
    with pytest.raises(InvalidDimension):
        koszul_flattening(t, 4)
    with pytest.raises(InvalidDimension):
        koszul_flattening(t, -1)
    # The check is koszul_weight_spaces', which both routes of
    # flattening_rank call.
    with pytest.raises(InvalidDimension):
        koszul_weight_spaces(t, t.dims[0], None)


def test_koszul_labels_canonical_order():
    # The cells sit where the oracle's labels put them: subset-major in
    # colex order, factor index within.
    t = matmul_tensor(2, 2, 1)
    cells, row_labels, col_labels = wedge_flattening(t, 1)
    assert col_labels[:3] == [(0, (0,)), (1, (0,)), (0, (1,))]
    subsets = [lab[1] for lab in row_labels[:: t.dims[2]]]
    assert subsets == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert koszul_flattening(t, 1).matrix.items() == sorted(cells)


def test_koszul_over_fp_is_q_flattening_mod_p():
    rng = random.Random(17)
    for prime in (3, 65521):
        fp = FieldTag.prime_field(prime)
        for dims in [(4, 2, 3), (5, 3, 2)]:
            t = _random_tensor(rng, dims)
            t_fp = Tensor3(t.dims, [(i, j, k, v % prime) for i, j, k, v in t.items()
                                    if v % prime], fp)
            for p in range(redundancy_cap(dims[0]) + 1):
                km_q = koszul_flattening(t, p).matrix
                km_fp = koszul_flattening(t_fp, p).matrix
                reduced = [(r, c, v % prime) for r, c, v in km_q.items() if v % prime]
                assert km_fp.items() == reduced

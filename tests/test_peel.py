"""Peeling (`rank_engine._peel`) against the dense oracles: the pivots it
takes plus the rank of the rows it leaves is the rank of the matrix, over
Q and mod 7, on seeded sparse matrices whose single-entry columns often
hold a multiple of 7."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import dense_rows, rank_gauss_fractions, rank_gauss_mod_p

from brlab.rank_engine import MultiPrime, SparseMatrix, _peel, rank_certified, rank_exact_q
from brlab.scalars import FieldTag

Q = FieldTag.rationals()
SEEDED = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# Multiples of 7 vanish mod 7, so a column holding one of them alone is no
# pivot under MultiPrime((7,)).
_ints = st.sampled_from([1, -1, 2, 3, -5, 7, -14, 21])
_rationals = _ints | st.sampled_from([Fraction(1, 2), Fraction(-7, 3), Fraction(14, 5)])


def _matrices(values):
    """Sparse matrices of up to 8 x 8, about a quarter of the cells filled,
    so that single-entry columns are common, and chains of them too."""
    return st.integers(1, 8).flatmap(lambda rows: st.integers(1, 8).flatmap(
        lambda cols: st.dictionaries(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), values,
            max_size=rows * cols // 4 + 2,
        ).map(lambda cells: SparseMatrix(rows, cols, [(r, c, v) for (r, c), v in cells.items()],
                                         Q))))


def _left(m, live):
    """The rows that peeling left, as a matrix of m's shape."""
    return SparseMatrix(m.rows, m.cols,
                        [(r, c, v) for r, row in live.items() for c, v in row.items()], Q)


def _peeled(m, primes):
    """_peel on m's rows, checking that it changes none of them and that
    each pivot takes one row away."""
    before = {r: dict(row) for r, row in m._rows.items()}
    n, live = _peel(m._rows, primes)
    assert m._rows == before
    assert all(live[r] is m._rows[r] for r in live)
    assert len(live) == len(m._rows) - n
    # No column of the rows left has a single entry that is a pivot.
    assert _peel(live, primes)[0] == 0
    return n, live


@SEEDED
@given(_matrices(_rationals))
def test_peeled_plus_rest_is_the_rank_over_q(m):
    n, live = _peeled(m, ())
    rank = rank_gauss_fractions(dense_rows(m))
    assert n + rank_gauss_fractions(dense_rows(_left(m, live))) == rank
    res = rank_exact_q(m)
    assert (res.rank, res.peeled) == (rank, n)


@SEEDED
@given(_matrices(_ints))
def test_peeled_plus_rest_is_the_rank_mod_7(m):
    n, live = _peeled(m, (7,))
    rank = rank_gauss_mod_p(dense_rows(m), 7)
    assert n + rank_gauss_mod_p(dense_rows(_left(m, live)), 7) == rank
    res = rank_certified(m, MultiPrime((7,)))
    assert (res.rank, res.peeled) == (rank, n)
    # Over Q the same matrix peels at least as far.
    assert _peel(m._rows, ())[0] >= n

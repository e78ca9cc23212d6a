"""Exact rank computation: mod-p, exact-Q, multiprime certification."""

import random
import warnings
from fractions import Fraction

import pytest

from oracles import dense_rows, rank_gauss_fractions, rank_gauss_mod_p, stored

import brlab.rank_engine as rank_engine
from brlab.errors import BadPrime, FieldMismatch, FormatError, InvalidDimension
from brlab.exterior import koszul_flattening
from brlab.rank_engine import (
    ExactQ,
    MultiPrime,
    SparseMatrix,
    _blocks,
    rank_certified,
    rank_exact_q,
    rank_mod_p,
)
from brlab.scalars import DEFAULT_CERTIFICATION_PRIMES, FieldTag
from brlab.tensor import Tensor3, add_tensors, matmul_tensor, rank_one_tensor

Q = FieldTag.rationals()


def _identity(n):
    return SparseMatrix(n, n, [(i, i, 1) for i in range(n)], Q)


def _random_matrix(rng, rows, cols, lo=-9, hi=9, fill=0.7):
    entries = []
    for r in range(rows):
        for c in range(cols):
            if rng.random() < fill:
                v = rng.randint(lo, hi)
                if v:
                    entries.append((r, c, v))
    return SparseMatrix(rows, cols, entries, Q)


def test_identity_any_prime():
    m = _identity(5)
    for p in (2, 3, 65521, DEFAULT_CERTIFICATION_PRIMES[0]):
        assert rank_mod_p(m, p).rank == 5


def test_rank_drop_mod_2():
    m = SparseMatrix(1, 1, [(0, 0, 2)], Q)
    assert rank_mod_p(m, 2).rank == 0
    assert rank_mod_p(m, 3).rank == 1
    assert rank_exact_q(m).rank == 1


def test_koszul_333_rank_mod_65521():
    km = koszul_flattening(matmul_tensor(3, 3, 3), 4)
    res = rank_mod_p(km.matrix, 65521)
    assert res.rank == 918


def test_permutation_matrix_full_rank():
    rng = random.Random(8)
    perm = list(range(7))
    rng.shuffle(perm)
    m = SparseMatrix(7, 7, [(i, perm[i], 1) for i in range(7)], Q)
    assert rank_exact_q(m).rank == 7


def test_rank_exact_q_examples():
    from brlab.binaryforms import restricted_koszul
    km = restricted_koszul(3, 3, 1)
    assert rank_exact_q(km.matrix).rank == 30
    km = koszul_flattening(matmul_tensor(3, 3, 1), 4)
    assert rank_exact_q(km.matrix).rank == 306


def test_rank_exact_q_rational_entries():
    m = SparseMatrix(2, 2, [(0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 3)),
                            (1, 0, Fraction(3, 2)), (1, 1, Fraction(2, 1))], Q)
    assert rank_gauss_fractions(dense_rows(m)) == 2
    assert rank_exact_q(m).rank == 2
    singular = SparseMatrix(2, 2, [(0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 3)),
                                   (1, 0, Fraction(3, 2)), (1, 1, Fraction(1, 1))], Q)
    assert rank_exact_q(singular).rank == rank_gauss_fractions(dense_rows(singular)) == 1
    assert not m.is_integral()


def test_multiprime_detects_unlucky_prime():
    # det = 65521 * unit: rank drops only mod 65521
    m = SparseMatrix(3, 3, [(0, 0, 65521), (1, 1, 1), (2, 2, 1)], Q)
    assert rank_mod_p(m, 65521).rank == 2
    primes = (65521,) + DEFAULT_CERTIFICATION_PRIMES[:2]
    res = rank_certified(m, MultiPrime(primes))
    assert res.rank == 3


def test_zero_matrix_both_strategies():
    m = SparseMatrix(4, 6, [], Q)
    assert rank_certified(m, MultiPrime()).rank == 0
    assert rank_certified(m, ExactQ()).rank == 0


def test_multiprime_equals_exact_q_on_koszul_322():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        km = koszul_flattening(matmul_tensor(3, 2, 2), 3)
    mp = rank_certified(km.matrix, MultiPrime())
    xq = rank_certified(km.matrix, ExactQ())
    assert mp.rank == xq.rank


def test_multiprime_requires_integer_entries():
    m = SparseMatrix(1, 1, [(0, 0, Fraction(1, 2))], Q)
    with pytest.raises(BadPrime):
        rank_certified(m, MultiPrime())


def test_bad_prime_denominator():
    m = SparseMatrix(1, 1, [(0, 0, Fraction(1, 5))], Q)
    with pytest.raises(BadPrime):
        rank_mod_p(m, 5)
    assert rank_mod_p(m, 7).rank == 1


def test_bad_prime_denominator_in_a_peelable_column():
    # Column 1 holds 1/5 alone, and once its row goes column 0 holds 1
    # alone: over Q both are pivots, but a mod-5 rank refuses the
    # denominator rather than peel it away, also after an integral matrix
    # of the same stream was peeled.
    m = SparseMatrix(2, 2, [(0, 0, 1), (0, 1, Fraction(1, 5)), (1, 0, 1)], Q)
    res = rank_exact_q(m)
    assert (res.rank, res.peeled, res.blocks) == (2, 2, 0)
    with pytest.raises(BadPrime):
        rank_mod_p(m, 5)
    with pytest.raises(BadPrime):
        rank_mod_p([(_identity(2), 1), (m, 1)], 5)
    res = rank_mod_p(m, 7)
    assert (res.rank, res.peeled, res.blocks) == (2, 0, 1)


def test_peel_takes_single_entry_columns_in_a_chain(monkeypatch):
    # An upper bidiagonal matrix has one single-entry column; each pivot
    # leaves the next column with one entry, so it peels to nothing and no
    # block is eliminated.  Mod 7 the diagonal entry 7 is passed over, the
    # chain stops there, and the 3 rows left are one block, of rank 2 mod 7.
    calls = _count_passes(monkeypatch)
    n = 6
    chain = [(r, c, 7 if (r, c) == (3, 3) else 1) for r in range(n) for c in (r, r + 1)
             if c < n]
    m = SparseMatrix(n, n, chain, Q)
    res = rank_exact_q(m)
    assert (res.rank, res.peeled, res.blocks) == (n, n, 0)
    assert calls == []
    res = rank_mod_p(m, 7)
    assert (res.rank, res.peeled, res.blocks, res.unsettled) == (n - 1, 3, 1, 1)
    assert calls == [7]
    assert rank_gauss_mod_p(dense_rows(m), 7) == n - 1


def test_bad_prime_modulus():
    m = _identity(2)
    with pytest.raises(BadPrime):
        rank_mod_p(m, 6)


def test_field_mismatch():
    fp = FieldTag.prime_field(7)
    m = SparseMatrix(2, 2, [(0, 0, 1), (1, 1, 1)], fp)
    with pytest.raises(FieldMismatch):
        rank_exact_q(m)
    with pytest.raises(FieldMismatch):
        rank_mod_p(m, 11)
    assert rank_mod_p(m, 7).rank == 2
    # Every prime of the list is checked, even when the first settles all.
    with pytest.raises(FieldMismatch):
        rank_certified(m, MultiPrime((7, 11)))


def test_rank_against_oracle_random():
    rng = random.Random(2024)
    for _ in range(25):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = _random_matrix(rng, rows, cols, fill=0.5)
        expected = rank_gauss_fractions(dense_rows(m))
        assert rank_exact_q(m).rank == expected
        assert rank_mod_p(m, DEFAULT_CERTIFICATION_PRIMES[0]).rank == \
            rank_gauss_mod_p(dense_rows(m), DEFAULT_CERTIFICATION_PRIMES[0])


def test_rank_invariant_under_entry_order():
    rng = random.Random(55)
    m = _random_matrix(rng, 10, 12, fill=0.4)
    entries = m.items()
    rng.shuffle(entries)
    m2 = SparseMatrix(10, 12, entries, Q)
    assert rank_exact_q(m).rank == rank_exact_q(m2).rank
    assert rank_mod_p(m, 97).rank == rank_mod_p(m2, 97).rank


def test_rank_transpose_equal():
    rng = random.Random(77)
    for _ in range(10):
        m = _random_matrix(rng, rng.randint(2, 9), rng.randint(2, 9), fill=0.4)
        assert rank_exact_q(m).rank == rank_exact_q(m.transpose()).rank


def test_determinism_repeated_runs():
    rng = random.Random(31337)
    m = _random_matrix(rng, 15, 15, fill=0.2)

    def untimed(res):
        return res._replace(split_ms=0.0, rank_ms=0.0)

    first = untimed(rank_certified(m, MultiPrime()))
    for _ in range(3):
        assert untimed(rank_certified(m, MultiPrime())) == first
    q1 = untimed(rank_exact_q(m))
    assert untimed(rank_exact_q(m)) == q1


def test_sparse_matrix_validation():
    # Entries may come as a list or as a one-shot generator, over either field.
    for field in (Q, FieldTag.prime_field(7)):
        for wrap in (list, iter):
            with pytest.raises(InvalidDimension):
                SparseMatrix(2, 2, wrap([(0, 0, 1), (0, 2, 1)]), field)
            with pytest.raises(FormatError):
                SparseMatrix(2, 2, wrap([(0, 0, 1), (1, 1, 3), (0, 0, 2)]), field)
            with pytest.raises(FormatError):
                SparseMatrix(2, 2, wrap([(1, 0, 1), (0, 0, 0)]), field)
            m = SparseMatrix(2, 3, wrap([(1, 2, 5), (0, 0, 1), (1, 0, 2)]), field)
            assert m.nnz == 3
            assert m.items() == [(0, 0, 1), (1, 0, 2), (1, 2, 5)]


def test_q_storage_int_or_fraction():
    m = SparseMatrix(2, 2, [(0, 0, Fraction(2, 1)), (1, 1, Fraction(1, 3))], Q)
    assert type(stored(m)[0, 0]) is int
    assert type(stored(m)[1, 1]) is Fraction
    assert m == SparseMatrix(2, 2, [(0, 0, 2), (1, 1, Fraction(1, 3))], Q)
    assert SparseMatrix(1, 1, [(0, 0, Fraction(4, 2))], Q).is_integral()
    # One Fraction among ints makes a Q matrix non-integral; over F_p every
    # entry is an int, so the flag holds.  Generators and lists read alike.
    ints = [(0, 0, 3), (1, 1, -2), (0, 1, Fraction(6, 3))]
    half = ints + [(1, 0, Fraction(1, 2))]
    for wrap in (list, iter):
        assert SparseMatrix(2, 2, wrap(ints), Q).is_integral()
        assert not SparseMatrix(2, 2, wrap(half), Q).is_integral()
        assert SparseMatrix(2, 2, wrap(ints), FieldTag.prime_field(7)).is_integral()
        assert SparseMatrix(2, 2, wrap(half), FieldTag.prime_field(7)).is_integral()
    with pytest.raises(FormatError):
        SparseMatrix(1, 1, [(0, 0, Fraction(0, 5))], Q)


def _diagonal(*blocks):
    """A block diagonal SparseMatrix over Q of dense square blocks (lists
    of rows)."""
    entries, at = [], 0
    for block in blocks:
        entries += [(at + r, at + c, v) for r, row in enumerate(block)
                    for c, v in enumerate(row) if v]
        at += len(block)
    return SparseMatrix(at, at, entries, Q)


# Dense 2x2 blocks: no column holds a single entry, so nothing is peeled
# and every block is ranked.  H has det -2, rank 1 mod 2.
H = [[1, 1], [1, -1]]


def test_multiprime_stops_at_full_rank(monkeypatch):
    # One _eliminate call per block and prime tried; a block stops at the
    # first prime that brings it to min(block rows, block columns).
    calls = _count_passes(monkeypatch)
    primes = DEFAULT_CERTIFICATION_PRIMES
    # Four copies of H are four blocks, each settled by the first prime.
    res = rank_certified(_diagonal(H, H, H, H), MultiPrime(primes))
    assert (res.rank, res.peeled, res.blocks) == (8, 0, 4)
    assert calls == [primes[0]] * 4

    # diag(65521 H, H): the 65521 H block tries the next prime, the H
    # block is settled by the first.
    calls.clear()
    unlucky = _diagonal([[65521 * v for v in row] for row in H], H)
    res = rank_certified(unlucky, MultiPrime((65521,) + primes[:2]))
    assert (res.rank, res.peeled, res.blocks, res.unsettled) == (4, 0, 2, 0)
    assert calls == [65521, primes[0], 65521]

    # One 2x1 block: rank 1 is full, so the first prime settles it.
    calls.clear()
    singular = SparseMatrix(2, 3, [(0, 0, 1), (1, 0, 2)], Q)
    res = rank_certified(singular, MultiPrime(primes))
    assert (res.rank, res.blocks, res.unsettled) == (1, 1, 0)
    assert calls == [primes[0]]


def test_multiprime_takes_max_per_class():
    # Each diagonal entry vanishes mod one of the two primes, so both whole
    # matrix ranks are 1; each block keeps its own max, 1, and the sum is 2.
    m = SparseMatrix(2, 2, [(0, 0, 65521), (1, 1, 65537)], Q)
    assert rank_mod_p(m, 65521).rank == rank_mod_p(m, 65537).rank == 1
    res = rank_certified(m, MultiPrime((65521, 65537)))
    assert res.rank == 2
    assert (res.blocks, res.unsettled) == (2, 0)


def _repeated(block, copies, field=Q):
    """A stream of copies of one block, each a matrix of its own on the
    diagonal of a block diagonal matrix, taken once."""
    rows, cols = max(r for r, _, _ in block) + 1, max(c for _, c, _ in block) + 1
    return [(SparseMatrix(copies * rows, copies * cols,
                          [(w * rows + r, w * cols + c, v) for r, c, v in block], field), 1)
            for w in range(copies)]


def test_stream_copies_multiply_the_rank_of_each_block():
    # One block taken twice, then the same block once: each matrix is one
    # block, ranked on its own, and the stream's rank counts the
    # block three times.
    block = [(0, 0, 1), (0, 1, 2), (1, 1, 3), (2, 0, 4)]
    r = rank_gauss_fractions(dense_rows(SparseMatrix(3, 2, block, Q)))
    (first, _), (second, _) = _repeated(block, 2)
    stream = [(first, 2), (second, 1)]
    for res in (rank_exact_q(stream), rank_mod_p(stream, 7)):
        assert (res.rank, res.blocks, res.nnz) == (3 * r, 2, 8)


def test_field_mismatch_inside_a_stream():
    # Each matrix of a stream is checked, not only the first.
    f7 = FieldTag.prime_field(7)
    stream = _repeated([(0, 0, 1), (1, 1, 1)], 2) + _repeated([(0, 0, 1)], 1, f7)
    with pytest.raises(FieldMismatch):
        rank_exact_q(stream)
    with pytest.raises(FieldMismatch):
        rank_certified(stream, MultiPrime((11,)))


def test_multiprime_resolves_primes_at_construction(monkeypatch):
    monkeypatch.setenv("BRLAB_PRIMES", "101,103")
    strategy = MultiPrime()
    assert strategy.primes == (101, 103)
    monkeypatch.setenv("BRLAB_PRIMES", "not a prime list")
    assert rank_certified(_identity(3), strategy).rank == 3
    with pytest.raises(BadPrime):
        MultiPrime()


def test_multiprime_counts_unsettled_classes():
    # The singular 2x2 block stays at rank 1 of 2 mod every prime; the two
    # copies of H are settled.
    m = _diagonal([[1, 2], [2, 4]], H, H)
    assert _block_shapes(m) == [(2, 2)] * 3
    res = rank_certified(m, MultiPrime(DEFAULT_CERTIFICATION_PRIMES))
    assert (res.rank, res.peeled, res.blocks, res.unsettled) == (5, 0, 3, 1)
    res = rank_mod_p(m, 7)
    assert (res.rank, res.peeled, res.blocks, res.unsettled) == (5, 0, 3, 1)


def test_block_diagonal_rank_is_sum_over_three_primes():
    rng = random.Random(99)
    blocks = [_random_matrix(rng, r, c, fill=0.6) for r, c in ((5, 4), (3, 6), (7, 7))]
    entries, r0, c0 = [], 0, 0
    for blk in blocks:
        entries += [(r0 + r, c0 + c, v) for r, c, v in blk.items()]
        r0, c0 = r0 + blk.rows, c0 + blk.cols
    # Zero rows and columns past the blocks keep the matrix on the sparse path.
    big = SparseMatrix(r0 + 200, c0 + 200, entries, Q)
    expected = sum(rank_gauss_fractions(dense_rows(blk)) for blk in blocks)
    for p in DEFAULT_CERTIFICATION_PRIMES:
        assert rank_mod_p(big, p).rank == expected
    assert rank_certified(big, MultiPrime()).rank == expected
    assert rank_exact_q(big).rank == expected
    assert _blocks(big._rows) == _blocks(big._rows)


def test_huge_declared_shape_costs_only_its_entries():
    # The block split runs over the nonempty rows only, never over range(rows).
    m = SparseMatrix(10**30, 1, [(5, 0, 1)], Q)
    assert rank_mod_p(m, 7).rank == 1
    assert rank_exact_q(m).rank == 1
    assert rank_certified(m, MultiPrime()).rank == 1
    assert rank_exact_q(SparseMatrix(1, 10**30, [(0, 10**29, 3)], Q)).rank == 1


def test_prime_field_matrix_not_certified_over_q():
    fp = FieldTag.prime_field(7)
    m = SparseMatrix(2, 2, [(0, 0, 3), (1, 1, 5)], fp)
    res = rank_mod_p(m, 7)
    assert res.rank == 2
    # Its label, exact-Fp, is decided by bounds._soundness (test_bounds).


def _place_copies(blocks, counts, rng, pad, shuffle_rows):
    """Block-diagonal matrix holding counts[i] copies of blocks[i].

    Copies land at interleaved rows and randomly permuted columns.  Rows of
    each copy keep their relative order unless shuffle_rows is set; entries
    of every copy are written in the same order as in its block.
    """
    copies = [b for b, k in zip(blocks, counts) for _ in range(k)]
    nrows = sum(b.rows for b in copies)
    ncols = sum(b.cols for b in copies)
    row_slots = list(range(nrows))
    rng.shuffle(row_slots)
    col_slots = list(range(ncols))
    rng.shuffle(col_slots)
    entries, r0, c0 = [], 0, 0
    for blk in copies:
        rows = row_slots[r0:r0 + blk.rows]
        if not shuffle_rows:
            rows.sort()
        cols = col_slots[c0:c0 + blk.cols]
        entries += [(rows[r], cols[c], v) for r, c, v in blk.items()]
        r0, c0 = r0 + blk.rows, c0 + blk.cols
    return SparseMatrix(nrows + pad, ncols + pad, entries, Q)


def _block_shapes(m):
    """(rows, distinct columns) of each row block, in order of the block's
    smallest row."""
    return [(len(block), len(set().union(*block))) for block in _blocks(m._rows)]


def _block_count(m):
    return len(_blocks(m._rows))


def test_repeated_blocks_rank_matches_oracle():
    rng = random.Random(4242)
    blocks = [_random_matrix(rng, r, c, fill=0.6) for r, c in ((4, 5), (6, 3), (5, 5))]
    blocks.append(SparseMatrix(3, 3, [(0, 0, Fraction(1, 2)), (0, 2, 3), (1, 1, Fraction(-2, 3)),
                                      (2, 0, 1), (2, 2, Fraction(5, 4))], Q))
    counts = (3, 1, 4, 2)
    expected = sum(k * rank_gauss_fractions(dense_rows(b)) for b, k in zip(blocks, counts))
    for shuffle_rows in (False, True):
        # Zero padding keeps the matrix on the sparse path.
        m = _place_copies(blocks, counts, rng, 300, shuffle_rows)
        res = rank_exact_q(m)
        assert res.rank == expected
        for p in DEFAULT_CERTIFICATION_PRIMES:
            assert rank_mod_p(m, p).rank == expected
        assert _block_count(m) == sum(k * _block_count(b) for b, k in zip(blocks, counts))
        assert res.blocks <= _block_count(m)
        assert sorted(_block_shapes(m)) == sorted(
            shape for b, k in zip(blocks, counts) for shape in _block_shapes(b) * k)


def test_same_pattern_different_value_not_merged():
    ones = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    other = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2)]
    m = SparseMatrix(200, 200, ones + [(r + 2, c + 2, v) for r, c, v in other], Q)
    assert _block_count(m) == 2
    assert rank_exact_q(m).rank == 3
    for p in DEFAULT_CERTIFICATION_PRIMES:
        assert rank_mod_p(m, p).rank == 3


def test_bad_prime_inside_repeated_block():
    block = [(0, 0, Fraction(1, 5)), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    entries = [(r + 2 * k, c + 2 * k, v) for k in range(3) for r, c, v in block]
    m = SparseMatrix(200, 200, entries, Q)
    assert _block_count(m) == 3
    with pytest.raises(BadPrime):
        rank_mod_p(m, 5)
    assert rank_mod_p(m, 7).rank == 6
    assert rank_exact_q(m).rank == 6


def test_block_class_counts_of_flattenings():
    from brlab.binaryforms import restricted_koszul
    for n, blocks in ((4, 64), (5, 125)):
        m = restricted_koszul(n, n, n).matrix
        assert _block_count(m) == blocks
    m = koszul_flattening(matmul_tensor(3, 3, 3), 4).matrix
    assert _block_count(m) == 351


# rank_exact_q ranks each block over F_2 first, then lifts that pass
# 2-adically, then, when the lift runs out of budget, mod this prime, and
# falls back to fraction-free elimination when the lift finds the block
# short or the prime leaves it short.
P = DEFAULT_CERTIFICATION_PRIMES[0]

# det 2^40, rank 1 mod 2: the lift needs 40 halvings, each reading the
# block's 4 entries, and its budget of 16 times 4 entries runs out first.
DET_2_40 = [[1, 1], [1, 1 + 2 ** 40]]


def _count_passes(monkeypatch) -> list:
    """Record the p of every _eliminate call (None: fraction-free over Q)."""
    calls = []
    real = rank_engine._eliminate

    def spy(rows, p):
        calls.append(p)
        return real(rows, p)

    monkeypatch.setattr(rank_engine, "_eliminate", spy)
    return calls


def _block(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def test_settle_prime_is_first_certification_prime(monkeypatch):
    monkeypatch.delenv("BRLAB_PRIMES", raising=False)
    calls = _count_passes(monkeypatch)
    # The lift runs out of budget, so the block reaches the mod-p pass.
    assert rank_exact_q(_diagonal(DET_2_40)).rank == 2
    assert calls == [DEFAULT_CERTIFICATION_PRIMES[0]]


def test_exact_q_settles_mod_fixed_prime_whatever_brlab_primes(monkeypatch):
    monkeypatch.setenv("BRLAB_PRIMES", "101,103")
    calls = _count_passes(monkeypatch)
    # det 2^40 again, with rows (1, 3) and (3, 9 + 2^40).
    res = rank_exact_q(_diagonal([[1, 3], [3, 9 + 2 ** 40]]))
    assert (res.rank, res.unsettled, res.settled_mod_2) == (2, 0, 0)
    assert calls == [P]


def test_exact_q_unlucky_prime_falls_back():
    # diag(P * DET_2_40, [[1, 2], [1, 1]]): two 2x2 blocks, the first of
    # rank 1 mod 2, past the lift's budget and of rank 0 mod P, the second
    # of full rank mod 2.
    res = rank_exact_q(_diagonal([[P * v for v in row] for row in DET_2_40], [[1, 2], [1, 1]]))
    assert (res.rank, res.peeled, res.blocks, res.unsettled, res.settled_mod_2) == (4, 0, 2, 1, 1)
    # One block, det 2^40 P over Q, rank 1 mod 2 and mod P.
    res = rank_exact_q(SparseMatrix(2, 2, [(0, 0, P), (0, 1, P),
                                           (1, 0, 1), (1, 1, 1 + 2 ** 40)], Q))
    assert (res.rank, res.blocks, res.unsettled, res.settled_mod_2) == (2, 1, 1, 0)


def test_exact_q_rational_rows_reduced_after_scaling():
    # The row (P/3, P/3) scales to (P, P): content P, zero mod P, and equal
    # to the row (1, 1 + 2^40) mod 2; det 2^40 P, past the lift's budget.
    m = SparseMatrix(2, 2, [(0, 0, Fraction(P, 3)), (0, 1, Fraction(P, 3)),
                            (1, 0, 1), (1, 1, 1 + 2 ** 40)], Q)
    res = rank_exact_q(m)
    assert (res.rank, res.peeled, res.unsettled, res.settled_mod_2) == (2, 0, 1, 0)
    assert rank_gauss_fractions(dense_rows(m)) == 2
    # A denominator divisible by P raises no BadPrime: (1/P, 1) scales to
    # (1, P), equal to the row (1, P + 2^40) mod 2, with det 2^40, so the
    # lift runs out of budget and the mod-P pass settles it.
    m = SparseMatrix(2, 2, [(0, 0, Fraction(1, P)), (0, 1, 1),
                            (1, 0, 1), (1, 1, P + 2 ** 40)], Q)
    res = rank_exact_q(m)
    assert res.rank == 2
    assert (res.unsettled, res.settled_mod_2) == (0, 0)
    with pytest.raises(BadPrime):
        rank_mod_p(m, P)


def test_exact_q_full_rank_block_skips_fraction_free(monkeypatch):
    calls = _count_passes(monkeypatch)
    rng = random.Random(12)
    m = _random_matrix(rng, 7, 5, fill=1.0)
    assert rank_gauss_fractions(dense_rows(m)) == 5
    res = rank_exact_q(m)
    assert (res.rank, res.blocks, res.unsettled, res.settled_mod_2) == (5, 1, 0, 1)
    # Full rank mod 2: no mod-p and no fraction-free pass.
    assert calls == []


def test_exact_q_full_over_q_not_mod_2_settles_mod_p(monkeypatch):
    calls = _count_passes(monkeypatch)
    # Full rank over Q, rank 1 mod 2, past the lift's budget.
    res = rank_exact_q(_diagonal(DET_2_40))
    assert (res.rank, res.blocks, res.unsettled, res.settled_mod_2) == (2, 1, 0, 0)
    assert calls == [P]


def test_exact_q_det_2_block_settles_by_the_lift(monkeypatch):
    calls = _count_passes(monkeypatch)
    # H has det -2: (H[1] + H[0]) / 2 = (1, 0) joins the basis mod 2.
    assert rank_gauss_mod_p(H, 2) == 1
    assert rank_engine._lift_f2(_block(H), 2) is True
    res = rank_exact_q(_diagonal(H))
    assert (res.rank, res.blocks, res.unsettled, res.settled_mod_2) == (2, 1, 0, 1)
    assert calls == []


def test_exact_q_lift_budget_runs_out_then_prime(monkeypatch):
    calls = _count_passes(monkeypatch)
    assert rank_engine._lift_f2(_block(DET_2_40), 2) is None
    # Eight halvings fit in the budget.
    assert rank_engine._lift_f2(_block([[1, 1], [1, 1 + 2 ** 8]]), 2) is True
    res = rank_exact_q(_diagonal(DET_2_40))
    assert (res.rank, res.unsettled, res.settled_mod_2) == (2, 0, 0)
    assert calls == [P]


def test_exact_q_tall_block_is_lifted_on_its_transpose(monkeypatch):
    calls = _count_passes(monkeypatch)
    # Rank 2 over Q, 1 mod 2.  Its columns (1, 1, 1) and (1, -1, 1) lift
    # to full rank; its third row is surplus and would be found short.
    tall = [[1, 1], [1, -1], [1, 1]]
    assert rank_engine._lift_f2(_block(tall), 2) is True
    res = rank_exact_q(SparseMatrix(3, 2, [(r, c, v) for r, row in enumerate(tall)
                                           for c, v in enumerate(row)], Q))
    assert (res.rank, res.blocks, res.unsettled, res.settled_mod_2) == (2, 1, 0, 1)
    assert calls == []
    # Both columns of [[2, 0], [0, 2], [1, 1]] are (0, 0, 1) mod 2, so the
    # first lift needs the integer columns: (0, 2, 1) + (2, 0, 1) halves
    # to (1, 1, 1), which joins the basis.
    assert rank_engine._lift_f2([{0: 2}, {1: 2}, {0: 1, 1: 1}], 2) is True
    # A tall block gets the verdict of its transpose, whose rows are its
    # columns in order of first sight, True, False and None alike.
    rng = random.Random(19)
    seen = {True: 0, False: 0, None: 0}
    for trial in range(600):
        cols = rng.randint(1, 6)
        rows = rng.randint(cols + 1, 9)
        if trial % 3 == 0:
            inner = rng.randint(1, cols)
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
            dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                     for row in left]
        else:
            dense = [[rng.randint(-9, 9) << rng.choice((0, 1, 5)) for _ in range(cols)]
                     for _ in range(rows)]
        tall = [row for row in _block(dense) if row]
        if len(tall) <= len(set().union(*tall)):
            continue
        by_col: dict = {}
        for r, row in enumerate(tall):
            for c, v in row.items():
                by_col.setdefault(c, {})[r] = v
        wide = list(by_col.values())
        got = rank_engine._lift_f2(tall, len(wide))
        assert got is rank_engine._lift_f2(wide, len(wide)), dense
        seen[got] += 1
    assert seen[True] > 100 and seen[False] > 100 and seen[None] > 0, seen


def test_lift_finds_short_blocks():
    # A halved sum that is exactly zero: (1, 1) + (-1, -1).
    assert rank_engine._lift_f2(_block([[1, 1], [-1, -1]]), 2) is False
    # A state that recurs: (1, 1) + (1, 1) halves to (1, 1).
    assert rank_engine._lift_f2(_block([[1, 1], [1, 1]]), 2) is False
    # (3, 3) lifts to (2, 2), then to (1, 1), then to (1, 1) again.
    assert rank_engine._lift_f2(_block([[1, 1], [3, 3]]), 2) is False
    # The third row, the sum of the first two, halves to (1, 0, 1), which
    # is what the second lifted to, and then recurs.
    assert rank_engine._lift_f2(_block([[1, 1, 1], [1, -1, 1], [2, 0, 2]]), 3) is False


def test_lift_against_oracle():
    # True means full rank over Q and False short, on dense and sparse,
    # tall and wide blocks, rows times 2^e, and low-rank products.
    rng = random.Random(18)
    seen = {True: 0, False: 0, None: 0}
    shapes = set()
    past_f2 = 0
    trial = 0
    while sum(seen.values()) < 4000:
        trial += 1
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        if trial % 3 == 0:
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
            dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                     for row in left]
        else:
            fill = rng.choice((1.0, 0.6, 0.3))
            dense = [[rng.randint(-9, 9) if rng.random() < fill else 0 for _ in range(cols)]
                     for _ in range(rows)]
        shifts = [rng.choice((0, 0, 0, 1, 3)) for _ in dense]
        dense = [[v << e for v in row] for row, e in zip(dense, shifts)]
        block = [row for row in _block(dense) if row]
        if not block:
            continue
        full = min(len(block), len(set().union(*block)))
        got = rank_engine._lift_f2(block, full)
        seen[got] += 1
        if got is not None:
            assert (rank_gauss_fractions(dense) == full) is got, dense
        if got and rank_gauss_mod_p(dense, 2) < full:
            past_f2 += 1
        shapes.add((len(block) > full) - (len(set().union(*block)) > full))
    assert seen[True] > 2000 and seen[False] > 500 and past_f2 > 1000, (seen, past_f2)
    assert shapes == {-1, 0, 1}


def test_f2_pass_verdicts_against_oracle():
    # A block of full rank mod 2 is settled by the F_2 pass alone; any
    # other verdict agrees with the rank over Q.
    rng = random.Random(16)
    shapes = set()
    settled_mod_2 = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        dense = []
        for _ in range(rows):
            row = [rng.randint(-5, 5) for _ in range(cols)]
            if rng.random() < 0.2:
                row = [2 * v for v in row]
            dense.append(row)
        block = [row for row in _block(dense) if row]
        if not block:
            continue
        full = min(len(block), len(set().union(*block)))
        got = rank_engine._lift_f2(block, full)
        if rank_gauss_mod_p(dense, 2) == full:
            assert got is True, dense
            settled_mod_2 += 1
        elif got is not None:
            assert (rank_gauss_fractions(dense) == full) is got, dense
        shapes.add((rows > cols) - (rows < cols))
    assert shapes == {-1, 0, 1} and settled_mod_2 > 100
    # Odd negative entries are 1 mod 2, even ones 0.  Columns are numbered
    # in order of first sight, so their ids may be large or out of order.
    for dense in ([[-3, -4], [5, -1]], [[-2, 4], [6, 0]], [[1, 1], [0, 1]]):
        assert rank_gauss_fractions(dense) == 2
    assert rank_engine._lift_f2([{0: -3, 1: -4}, {0: 5, 1: -1}], 2) is True
    assert rank_engine._lift_f2([{0: -2, 1: 4}, {0: 6}], 2) is True
    assert rank_engine._lift_f2([{10**30: 1, 3: 1}, {3: 1}], 2) is True


def test_only_exact_q_runs_the_f2_pass(monkeypatch):
    calls = []
    real = rank_engine._lift_f2

    def spy(block, full):
        calls.append(full)
        return real(block, full)

    monkeypatch.setattr(rank_engine, "_lift_f2", spy)
    m = _random_matrix(random.Random(17), 6, 6)
    for res in (rank_certified(m, MultiPrime()), rank_certified(m, MultiPrime((P,))),
                rank_mod_p(m, 7)):
        assert res.settled_mod_2 == 0
    assert calls == []
    rank_exact_q(m)
    assert calls


def test_exact_q_rank_deficient_block_runs_one_fraction_free_pass(monkeypatch):
    calls = _count_passes(monkeypatch)
    # A 5x5 product of 5x3 and 3x5 factors: one block of rank 3.
    rng = random.Random(13)
    left = [[rng.randint(-3, 3) or 1 for _ in range(3)] for _ in range(5)]
    right = [[rng.randint(-3, 3) or 1 for _ in range(5)] for _ in range(3)]
    prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
    m = SparseMatrix(5, 5, [(r, c, v) for r, row in enumerate(prod)
                            for c, v in enumerate(row) if v], Q)
    assert _block_count(m) == 1
    assert rank_gauss_fractions(prod) == 3
    res = rank_exact_q(m)
    assert (res.rank, res.blocks, res.unsettled) == (3, 1, 1)
    # The lift finds the block short: no prime can bring it to full rank.
    assert calls == [None]


def test_exact_q_random_small_matrices_against_oracle():
    rng = random.Random(14)
    fallbacks = 0
    for trial in range(300):
        rows, cols, inner = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
        left = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(inner)]
        dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                 for row in left]
        if trial % 3 == 0:
            dense = [[Fraction(v, rng.randint(1, 4)) for v in row] for row in dense]
        m = SparseMatrix(rows, cols, [(r, c, v) for r, row in enumerate(dense)
                                      for c, v in enumerate(row) if v], Q)
        res = rank_exact_q(m)
        assert res.rank == rank_gauss_fractions(dense), dense
        fallbacks += res.unsettled
    assert fallbacks > 50


def _dense_tensor(rng, a, rational):
    entries = []
    for i in range(a):
        for j in range(a):
            for k in range(a):
                v = rng.choice([x for x in range(-9, 10) if x])
                entries.append((i, j, k, Fraction(v, rng.randint(2, 9)) if rational else v))
    return Tensor3((a, a, a), entries, Q)


def test_exact_q_dense_koszul_flattenings_against_oracle():
    # The dense path of the random_dense benchmark, checked against plain
    # Fraction elimination: integer and rational tensors (full rank, settled
    # mod p) and a sum of three rank-one tensors (rank-deficient, falls back).
    rng = random.Random(15)
    nonzero = [x for x in range(-9, 10) if x]
    low = rank_one_tensor(*([rng.choice(nonzero) for _ in range(6)] for _ in range(3)))
    for _ in range(2):
        low = add_tensors(low, rank_one_tensor(
            *([rng.choice(nonzero) for _ in range(6)] for _ in range(3))))
    for t, fallbacks in ((_dense_tensor(rng, 6, False), 0),
                         (_dense_tensor(rng, 6, True), 0), (low, 1)):
        m = koszul_flattening(t, 2).matrix
        res = rank_exact_q(m)
        assert res.rank == rank_gauss_fractions(dense_rows(m))
        assert res.unsettled == fallbacks


class _CountingRow(dict):
    """A row dict that counts, in a dict shared by all rows of a matrix,
    the writes to a column the row did not hold (fill-in) and the entries
    deleted (an update that cancelled to zero), the two branches of an
    update in `_eliminate`."""

    __slots__ = ("counts",)

    def __init__(self, items, counts):
        super().__init__(items)
        self.counts = counts

    def __setitem__(self, c, v):
        if c not in self:
            self.counts["fill"] += 1
        super().__setitem__(c, v)

    def __delitem__(self, c):
        self.counts["cancel"] += 1
        super().__delitem__(c)


def _entry(rng):
    """A multiple of 7, a digit, or 0."""
    if rng.random() < 0.3:
        return rng.choice((-14, -7, 7, 21))
    return rng.randint(-9, 9) if rng.random() < 0.45 else 0


def _dependent_rows(rng, rows, cols):
    """Dense integer rows: random rows with entries that are often
    multiples of 7, some rows scaled by 7, and some rows that are integer
    combinations of two earlier ones, in shuffled order."""
    dense = []
    for _ in range(rows):
        if len(dense) >= 2 and rng.random() < 0.4:
            a, b = rng.sample(dense, 2)
            s, t = rng.choice((-2, -1, 1, 3)), rng.choice((-1, 1, 2, 7))
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [_entry(rng) for _ in range(cols)]
            if rng.random() < 0.15:
                row = [7 * x for x in row]
        dense.append(row)
    rng.shuffle(dense)
    return dense


def test_eliminate_against_oracles():
    # _eliminate alone, over F_7, F_(2^30 - 35) and Q, against dense
    # textbook elimination.  The matrices reach both update branches in
    # every field, and the multiples of 7 lower some ranks mod 7 only.
    rng = random.Random(21)
    counts = {p: {"fill": 0, "cancel": 0} for p in (7, P, None)}
    deficient = lower_mod_7 = 0
    for _ in range(120):
        nrows, ncols = rng.randint(4, 12), rng.randint(4, 12)
        dense = _dependent_rows(rng, nrows, ncols)
        ranks = {}
        for p, seen in counts.items():
            if p is None:
                ranks[p] = rank_gauss_fractions(dense)
                rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
            else:
                ranks[p] = rank_gauss_mod_p(dense, p)
                rows = [{c: v % p for c, v in enumerate(row) if v % p} for row in dense]
            assert rank_engine._eliminate([_CountingRow(r, seen) for r in rows], p) == ranks[p]
        deficient += ranks[None] < min(nrows, ncols)
        lower_mod_7 += ranks[7] < ranks[None]
    for p, seen in counts.items():
        assert seen["fill"] > 30 and seen["cancel"] > 100, (p, seen)
    assert deficient > 20 and lower_mod_7 > 5


def test_exact_q_scales_rows_by_their_denominators(monkeypatch):
    # Rows (1/2, 1/3) and (1/5, -1/5) scale to (3, 2) and (1, -1), so every
    # block reaches the F_2 pass with int entries under exact Q.  Mod a
    # prime the exact values are read.
    seen = []
    real = rank_engine._lift_f2

    def spy(block, full):
        seen.extend(v for row in block for v in row.values())
        return real(block, full)

    monkeypatch.setattr(rank_engine, "_lift_f2", spy)
    first = [(0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 3)), (1, 0, 1), (1, 1, -1)]
    second = [(0, 0, 3), (0, 1, 2), (1, 0, Fraction(1, 5)), (1, 1, Fraction(-1, 5))]
    m = SparseMatrix(40, 40, first + [(r + 2, c + 7, v) for r, c, v in second], Q)
    res = rank_exact_q(m)
    assert res.rank == rank_gauss_fractions(dense_rows(m)) == 4
    assert res.blocks == 2
    assert sorted(seen) == [-1, -1, 1, 1, 2, 2, 3, 3]
    assert all(type(v) is int for v in seen)
    res = rank_mod_p(m, 7)
    assert (res.rank, res.blocks) == (4, 2)
    # Non-exact ranks read the exact values, so a prime that divides a
    # denominator still raises.
    for p in (2, 3, 5):
        with pytest.raises(BadPrime):
            rank_mod_p(m, p)

"""Exact rank computation: mod-p, exact-Q, multiprime certification."""

import random
import warnings
from fractions import Fraction

import pytest

from oracles import dense_rows, rank_gauss_fractions, rank_gauss_mod_p

import brlab.rank_engine as rank_engine
from brlab.errors import BadPrime, FieldMismatch, FormatError, InvalidDimension
from brlab.exterior import koszul_flattening
from brlab.rank_engine import (
    ExactQ,
    MultiPrime,
    SparseMatrix,
    rank_certified,
    rank_exact_q,
    rank_mod_p,
    read_matrix,
    write_matrix,
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
    assert res.certified_lower_bound_over_q


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
    assert not rank_mod_p(m, 5).certified_lower_bound_over_q


def test_multiprime_detects_unlucky_prime():
    # det = 65521 * unit: rank drops only mod 65521
    m = SparseMatrix(3, 3, [(0, 0, 65521), (1, 1, 1), (2, 2, 1)], Q)
    assert rank_mod_p(m, 65521).rank == 2
    primes = (65521,) + DEFAULT_CERTIFICATION_PRIMES[:2]
    res = rank_certified(m, MultiPrime(primes))
    assert res.rank == 3
    assert res.certified_lower_bound_over_q


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
    first = rank_certified(m, MultiPrime())
    for _ in range(3):
        assert rank_certified(m, MultiPrime()) == first
    q1 = rank_exact_q(m)
    assert rank_exact_q(m) == q1


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


def test_matrix_file_round_trip(tmp_path):
    rng = random.Random(404)
    m = _random_matrix(rng, 6, 4, fill=0.5)
    path = tmp_path / "m.txt"
    write_matrix(m, path)
    assert read_matrix(path) == m

    fp = FieldTag.prime_field(65521)
    m2 = SparseMatrix(3, 3, [(0, 1, 7), (2, 2, 65520)], fp)
    write_matrix(m2, path)
    assert read_matrix(path) == m2


def test_matrix_file_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 Q\n1 0 1\n0 0 1\n")
    with pytest.raises(FormatError):
        read_matrix(path)
    path.write_text("2 2\n")
    with pytest.raises(FormatError):
        read_matrix(path)
    path.write_text("2 2 Q\n0 0 1 9\n")
    with pytest.raises(FormatError):
        read_matrix(path)
    # F_p values and moduli are ASCII decimal digits, as in tensor files.
    for text in ["2 2 Fp:5\n0 0 1_001\n", "2 2 Fp:5\n0 0 +-1\n", "2 2 Fp:7_0\n0 0 1\n",
                 "2 2 R\n0 0 1\n", "2 2 Fp:\n0 0 1\n", "2 2 Fp:+5\n0 0 1\n"]:
        path.write_text(text)
        with pytest.raises(FormatError):
            read_matrix(path)
    # Shapes and indices are ASCII decimal digits alone.
    for text in ["2_0 2 Q\n", "2 +2 Q\n", "2 2.0 Q\n", "\u0662 2 Q\n", "-2 2 Q\n",
                 "2 2 Q\n1_0 0 1\n", "2 2 Q\n+1 0 1\n", "2 2 Q\n0 -0 1\n"]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError):
            read_matrix(path)
    path.write_text("2 2 Fp:6\n0 0 1\n")
    with pytest.raises(BadPrime):
        read_matrix(path)
    path.write_text("2 2 Fp:5\n0 0 -6\n1 1 +7\n")
    m = read_matrix(path)
    assert (m.value(0, 0), m.value(1, 1)) == (4, 2)


def test_koszul_file_round_trip(tmp_path):
    km = koszul_flattening(matmul_tensor(2, 2, 2), 1)
    path = tmp_path / "koszul.txt"
    write_matrix(km.matrix, path)
    back = read_matrix(path)
    assert back == km.matrix
    assert rank_exact_q(back).rank == 16


def test_q_storage_int_or_fraction():
    m = SparseMatrix(2, 2, [(0, 0, Fraction(2, 1)), (1, 1, Fraction(1, 3))], Q)
    assert type(m.value(0, 0)) is int
    assert type(m.value(1, 1)) is Fraction
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


def test_multiprime_stops_at_full_rank(monkeypatch):
    # One _eliminate call per class and prime tried; a class stops at the
    # first prime that brings it to min(block rows, block columns).
    calls = _count_passes(monkeypatch)
    primes = DEFAULT_CERTIFICATION_PRIMES
    # The identity is one class of 1x1 blocks, ranked once.
    assert rank_certified(_identity(4), MultiPrime(primes)).rank == 4
    assert calls == [primes[0]]

    # diag(65521, 1, 1): the 65521 class tries the next prime, the 1 class
    # is settled by the first.
    calls.clear()
    unlucky = SparseMatrix(3, 3, [(0, 0, 65521), (1, 1, 1), (2, 2, 1)], Q)
    res = rank_certified(unlucky, MultiPrime((65521,) + primes[:2]))
    assert (res.rank, res.classes, res.unsettled) == (3, 2, 0)
    assert calls == [65521, primes[0], 65521]

    # One 2x1 block: rank 1 is full, so the first prime settles it.
    calls.clear()
    singular = SparseMatrix(2, 3, [(0, 0, 1), (1, 0, 2)], Q)
    res = rank_certified(singular, MultiPrime(primes))
    assert (res.rank, res.classes, res.unsettled) == (1, 1, 0)
    assert calls == [primes[0]]


def test_multiprime_takes_max_per_class():
    # Each diagonal entry vanishes mod one of the two primes, so both whole
    # matrix ranks are 1; each class keeps its own max, 1, and the sum is 2.
    m = SparseMatrix(2, 2, [(0, 0, 65521), (1, 1, 65537)], Q)
    assert rank_mod_p(m, 65521).rank == rank_mod_p(m, 65537).rank == 1
    res = rank_certified(m, MultiPrime((65521, 65537)))
    assert (res.rank, res.certified_lower_bound_over_q) == (2, True)
    assert (res.classes, res.unsettled) == (2, 0)


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
    # 1x1 blocks form one settled class.
    m = SparseMatrix(5, 5, [(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 4),
                            (2, 2, 3), (3, 3, 3)], Q)
    # (rows, copies, distinct columns) of each class.
    assert _block_classes(m) == [(2, 1, 2), (1, 2, 1)]
    res = rank_certified(m, MultiPrime(DEFAULT_CERTIFICATION_PRIMES))
    assert (res.rank, res.classes, res.unsettled) == (3, 2, 1)
    res = rank_mod_p(m, 7)
    assert (res.rank, res.classes, res.unsettled) == (3, 2, 1)


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
    assert big._block_keys() == big._block_keys()


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
    assert not res.certified_lower_bound_over_q
    assert rank_mod_p(_identity(2), 7).certified_lower_bound_over_q


def test_matrix_file_bad_index_and_non_ascii(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 Q\n0 x 1\n")
    with pytest.raises(FormatError):
        read_matrix(path)
    path.write_bytes(b"2 2 Q\n0 0 \xe9\n")
    with pytest.raises(FormatError):
        read_matrix(path)


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


def _block_classes(m):
    """(rows, copies, distinct columns) of each class of identical row
    blocks, in order of the class's first block."""
    classes = {}
    for key, ncols in m._block_keys():
        classes.setdefault(key, [len(key[0]), 0, ncols])[1] += 1
    return [tuple(cls) for cls in classes.values()]


def _block_count(m):
    return len(m._block_keys())


def test_repeated_blocks_rank_matches_oracle():
    rng = random.Random(4242)
    blocks = [_random_matrix(rng, r, c, fill=0.6) for r, c in ((4, 5), (6, 3), (5, 5))]
    blocks.append(SparseMatrix(3, 3, [(0, 0, Fraction(1, 2)), (0, 2, 3), (1, 1, Fraction(-2, 3)),
                                      (2, 0, 1), (2, 2, Fraction(5, 4))], Q))
    counts = (3, 1, 4, 2)
    expected = sum(k * rank_gauss_fractions(dense_rows(b)) for b, k in zip(blocks, counts))
    single = _place_copies(blocks, (1, 1, 1, 1), rng, 0, False)
    for shuffle_rows in (False, True):
        # Zero padding keeps the matrix on the sparse path.
        m = _place_copies(blocks, counts, rng, 300, shuffle_rows)
        assert rank_exact_q(m).rank == expected
        for p in DEFAULT_CERTIFICATION_PRIMES:
            assert rank_mod_p(m, p).rank == expected
        classes = _block_classes(m)
        assert _block_count(m) == sum(k * _block_count(b) for b, k in zip(blocks, counts))
        if not shuffle_rows:
            assert len(classes) == len(_block_classes(single))
        assert _block_classes(m) == classes


def test_same_pattern_different_value_not_merged():
    ones = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    other = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 2)]
    m = SparseMatrix(200, 200, ones + [(r + 2, c + 2, v) for r, c, v in other], Q)
    assert len(_block_classes(m)) == 2
    assert rank_exact_q(m).rank == 3
    for p in DEFAULT_CERTIFICATION_PRIMES:
        assert rank_mod_p(m, p).rank == 3


def test_bad_prime_inside_repeated_block():
    block = [(0, 0, Fraction(1, 5)), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    entries = [(r + 2 * k, c + 2 * k, v) for k in range(3) for r, c, v in block]
    m = SparseMatrix(200, 200, entries, Q)
    assert len(_block_classes(m)) == 1
    with pytest.raises(BadPrime):
        rank_mod_p(m, 5)
    assert rank_mod_p(m, 7).rank == 6
    assert rank_exact_q(m).rank == 6


def test_block_class_counts_of_flattenings():
    from brlab.binaryforms import restricted_koszul
    for n, blocks, classes in ((4, 64, 16), (5, 125, 24)):
        m = restricted_koszul(n, n, n).matrix
        assert (_block_count(m), len(_block_classes(m))) == (blocks, classes)
    m = koszul_flattening(matmul_tensor(3, 3, 3), 4).matrix
    assert (_block_count(m), len(_block_classes(m))) == (351, 37)


# rank_exact_q ranks each class over F_2 first, then mod this prime, and
# falls back to fraction-free elimination only when both ranks are below
# min(rows, cols).
P = DEFAULT_CERTIFICATION_PRIMES[0]


def _count_passes(monkeypatch) -> list:
    """Record the p of every _eliminate call (None: fraction-free over Q)."""
    calls = []
    real = rank_engine._eliminate

    def spy(rows, p):
        calls.append(p)
        return real(rows, p)

    monkeypatch.setattr(rank_engine, "_eliminate", spy)
    return calls


def test_settle_prime_is_first_certification_prime(monkeypatch):
    monkeypatch.delenv("BRLAB_PRIMES", raising=False)
    calls = _count_passes(monkeypatch)
    # det -2: rank 1 mod 2, so the class reaches the mod-p pass.
    m = SparseMatrix(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)], Q)
    assert rank_exact_q(m).rank == 2
    assert calls == [DEFAULT_CERTIFICATION_PRIMES[0]]


def test_exact_q_settles_mod_fixed_prime_whatever_brlab_primes(monkeypatch):
    monkeypatch.setenv("BRLAB_PRIMES", "101,103")
    calls = _count_passes(monkeypatch)
    m = SparseMatrix(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)], Q)
    res = rank_exact_q(m)
    assert (res.rank, res.unsettled) == (2, 0)
    assert calls == [P]


def test_exact_q_unlucky_prime_falls_back():
    # diag(2P, 1): two 1x1 blocks, the first of rank 0 mod 2 and mod P.
    res = rank_exact_q(SparseMatrix(2, 2, [(0, 0, 2 * P), (1, 1, 1)], Q))
    assert (res.rank, res.classes, res.unsettled, res.settled_mod_2) == (2, 2, 1, 1)
    # One block, det 2P over Q, rank 1 mod 2 and mod P.
    res = rank_exact_q(SparseMatrix(2, 2, [(0, 0, 2 * P), (0, 1, 2 * P),
                                           (1, 0, 1), (1, 1, 2)], Q))
    assert (res.rank, res.classes, res.unsettled, res.settled_mod_2) == (2, 1, 1, 0)


def test_exact_q_rational_rows_reduced_after_scaling():
    # The row (P/2, P/3) scales to (3P, 2P): content P, zero mod P, and
    # equal to the row (1, 0) mod 2.
    m = SparseMatrix(2, 2, [(0, 0, Fraction(P, 2)), (0, 1, Fraction(P, 3)),
                            (1, 0, 1)], Q)
    res = rank_exact_q(m)
    assert (res.rank, res.unsettled, res.settled_mod_2) == (2, 1, 0)
    assert rank_gauss_fractions(dense_rows(m)) == 2
    # A denominator divisible by P raises no BadPrime: (1/P, 1) scales to
    # (1, P), equal to the row (1, 1) mod 2, so the mod-P pass settles it.
    m = SparseMatrix(2, 2, [(0, 0, Fraction(1, P)), (0, 1, 1), (1, 0, 1), (1, 1, 1)], Q)
    res = rank_exact_q(m)
    assert (res.rank, res.certified_lower_bound_over_q) == (2, True)
    assert (res.unsettled, res.settled_mod_2) == (0, 0)
    with pytest.raises(BadPrime):
        rank_mod_p(m, P)


def test_exact_q_full_rank_block_skips_fraction_free(monkeypatch):
    calls = _count_passes(monkeypatch)
    rng = random.Random(12)
    m = _random_matrix(rng, 7, 5, fill=1.0)
    assert rank_gauss_fractions(dense_rows(m)) == 5
    res = rank_exact_q(m)
    assert (res.rank, res.classes, res.unsettled, res.settled_mod_2) == (5, 1, 0, 1)
    # Full rank mod 2: no mod-p and no fraction-free pass.
    assert calls == []


def test_exact_q_full_over_q_not_mod_2_settles_mod_p(monkeypatch):
    calls = _count_passes(monkeypatch)
    m = SparseMatrix(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)], Q)
    res = rank_exact_q(m)
    assert (res.rank, res.classes, res.unsettled, res.settled_mod_2) == (2, 1, 0, 0)
    assert calls == [P]


def test_rank_f2_against_oracle():
    rng = random.Random(16)
    shapes = set()
    for _ in range(300):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        dense = []
        for _ in range(rows):
            row = [rng.randint(-5, 5) for _ in range(cols)]
            if rng.random() < 0.2:
                row = [2 * v for v in row]
            dense.append(row)
        block = tuple(tuple((c, v) for c, v in enumerate(row) if v) for row in dense)
        full = min(rows, cols)
        assert rank_engine._rank_f2(block, full) == rank_gauss_mod_p(dense, 2), dense
        shapes.add((rows > cols) - (rows < cols))
    assert shapes == {-1, 0, 1}
    # Odd negative entries are 1 mod 2, even ones 0.
    assert rank_engine._rank_f2((((0, -3), (1, -4)), ((0, 5), (1, -1))), 2) == 2
    assert rank_engine._rank_f2((((0, -2), (1, 4)), ((0, 6),)), 2) == 0


def test_only_exact_q_runs_the_f2_pass(monkeypatch):
    calls = []
    real = rank_engine._rank_f2

    def spy(block, full):
        calls.append(full)
        return real(block, full)

    monkeypatch.setattr(rank_engine, "_rank_f2", spy)
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
    assert len(_block_classes(m)) == 1
    assert rank_gauss_fractions(prod) == 3
    res = rank_exact_q(m)
    assert (res.rank, res.classes, res.unsettled) == (3, 1, 1)
    assert calls == [P, None]


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

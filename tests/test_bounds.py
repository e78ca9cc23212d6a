"""Bound certificates: wedge-power bounds, restricted bounds, closed forms."""

import random
import warnings
from fractions import Fraction

import pytest

import brlab.bounds as bounds
from brlab.bounds import (
    SOUND_EXACT_FP,
    SOUND_EXACT_Q,
    bound_classical,
    bound_formula_theorem1,
    bound_koszul,
    bound_matmul_restricted,
    compare_table,
    flattening_rank,
    formula_certificate,
    lickteig_square,
)
from brlab.errors import InvalidDimension, OrderViolation
from brlab.exterior import WedgeRangeWarning
from brlab.rank_engine import ExactQ, MultiPrime, RankResult
from brlab.scalars import DEFAULT_CERTIFICATION_PRIMES, FieldTag
from brlab.tensor import (Tensor3, add_tensors, direct_summands, matmul_tensor, mirror_grading,
                          rank_one_tensor)

Q = FieldTag.rationals()
FIRST_PRIME = MultiPrime((DEFAULT_CERTIFICATION_PRIMES[0],))


def _slice(fix, first, second, dense):
    """The entries of a 2x2 matrix placed in a tensor: fix(x, y, value) for
    x in first and y in second."""
    return [fix(x, y, v) for x, row in zip(first, dense) for y, v in zip(second, row)]


# Three direct summands, each a 2x2 matrix in indices of its own, so every
# index is in two entries, no column of a flattening has a single entry
# and nothing is peeled.  The slice det 2^40 at k = 0 is a 2x2 block of
# the i and j flattenings, past the lift's budget and settled mod p; the
# slice det 2^40 P at i = 2 is one of the j and k flattenings, past the
# budget and of rank 1 mod P, so it falls back; H (det -2) at k = 3 is
# one of the i and j flattenings, settled mod 2 by the lift.  Each slice
# is one 4x1 block, settled mod 2, of the remaining flattening.  Over the
# three: 9 blocks, 5 settled mod 2, 2 mod p and 2 that fall back.
P = DEFAULT_CERTIFICATION_PRIMES[0]
CLASSICAL_COUNTS_TENSOR = Tensor3((5, 6, 4), (
    _slice(lambda i, j, v: (i, j, 0, v), (0, 1), (0, 1), [[1, 1], [1, 1 + 2 ** 40]])
    + _slice(lambda j, k, v: (2, j, k, v), (2, 3), (1, 2), [[1, 1], [1, 1 + P * 2 ** 40]])
    + _slice(lambda i, j, v: (i, j, 3, v), (3, 4), (4, 5), [[1, 1], [1, -1]])), Q)


def test_bound_classical_examples():
    assert bound_classical(matmul_tensor(2, 2, 2)).bound == 4
    assert bound_classical(rank_one_tensor([1, 2], [3], [1, 1])).bound == 1
    assert bound_classical(matmul_tensor(3, 3, 3)).bound == 9


def test_bound_classical_sums_class_counts_of_the_three_flattenings(monkeypatch):
    t = CLASSICAL_COUNTS_TENSOR
    frs = []

    def ranked_mode(*args):
        frs.append(flattening_rank(*args))
        return frs[-1]

    # The three modes' records are the ones bound_classical sums, so that
    # their times are summed too.
    monkeypatch.setattr(bounds, "flattening_rank", ranked_mode)
    fr = bound_classical(t).flattening
    # Every count and time of the rank is summed over the three modes, and
    # its rank is the best mode's.
    for key in set(RankResult._fields) - {"rank"}:
        assert getattr(fr.ranked, key) == sum(getattr(f.ranked, key) for f in frs)
    res = fr.ranked
    assert (res.peeled, res.blocks, res.settled_mod_2, res.unsettled) == (0, 9, 5, 2)
    assert [f.rank for f in frs] == [5, 6, 4] and fr.rank == 6 == res.rank
    assert all(f.ranked.rank == f.rank for f in frs)


def test_bound_koszul_examples():
    cert = bound_koszul(matmul_tensor(3, 3, 3), 4)
    assert cert.rank == 918
    assert cert.divisor == 70
    assert cert.bound == 14
    assert cert.quotient == Fraction(918, 70)

    cert = bound_koszul(matmul_tensor(3, 3, 1), 4)
    assert cert.rank == 306
    assert cert.bound == 5
    assert cert.bound == bound_formula_theorem1(3, 3, 1)


def test_bound_koszul_rank_one_is_one():
    rng = random.Random(606)
    for a in (2, 4, 5):
        u = [rng.randint(1, 3) for _ in range(a)]
        t = rank_one_tensor(u, [1, 2], [3, 1])
        for p in range(0, (a + 1) // 2):
            assert bound_koszul(t, p).bound == 1


def test_bound_koszul_strassen_label():
    cert = bound_koszul(matmul_tensor(2, 2, 2), 1)
    assert cert.method == "strassen"
    assert cert.bound == 6  # ceil(16/3)
    cert = bound_koszul(matmul_tensor(3, 3, 3), 4)
    assert cert.method == "koszul"


def test_bound_restricted_examples():
    assert bound_matmul_restricted(3, 3, 3).bound == 15
    assert bound_matmul_restricted(2, 2, 2).bound == 6
    assert bound_matmul_restricted(4, 4, 4).bound == 28
    with pytest.raises(OrderViolation):
        bound_matmul_restricted(2, 3, 1)


def test_bound_formula_examples():
    assert bound_formula_theorem1(3, 3, 3) == 15
    assert bound_formula_theorem1(3, 2, 2) == 6
    for n in range(1, 7):
        for l in range(1, 7):
            assert bound_formula_theorem1(n, n, l) == 2 * n * l - l
    with pytest.raises(OrderViolation):
        bound_formula_theorem1(2, 3, 1)


def test_lickteig_square_values():
    assert lickteig_square(1) == 1
    assert lickteig_square(2) == 6
    assert lickteig_square(3) == 14
    with pytest.raises(InvalidDimension):
        lickteig_square(0)


def test_certificate_consistency_grid():
    # computed restricted rank realizes the closed form
    for m in range(1, 6):
        for n in range(1, m + 1):
            for l in range(1, 4):
                cert = bound_matmul_restricted(m, n, l, FIRST_PRIME)
                assert cert.bound == bound_formula_theorem1(m, n, l), (m, n, l)


def test_dominance_at_n3():
    koszul = bound_koszul(matmul_tensor(3, 3, 3), 4).bound
    restricted = bound_matmul_restricted(3, 3, 3).bound
    assert koszul == 14 < 15 == restricted


def _nonzero_vec(rng, k):
    v = [rng.randint(-2, 2) for _ in range(k)]
    if all(x == 0 for x in v):
        v[0] = 1
    return v


def test_projection_bound_respects_known_decomposition():
    # Projecting the first factor of sum_i u_i (x) v_i (x) w_i by P gives
    # sum_i (P u_i) (x) v_i (x) w_i: still at most `terms` rank-one terms.
    rng = random.Random(955)
    for _ in range(10):
        terms = rng.randint(2, 5)
        factors = [(_nonzero_vec(rng, 4), _nonzero_vec(rng, 3), _nonzero_vec(rng, 3))
                   for _ in range(terms)]
        proj = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)]
        projected = Tensor3((3, 3, 3), [], Q)
        for u, v, w in factors:
            pu = [sum(row[i] * u[i] for i in range(4)) for row in proj]
            if any(pu):
                projected = add_tensors(projected, rank_one_tensor(pu, v, w))
        if projected.nnz == 0:
            continue
        for p in (0, 1):
            assert bound_koszul(projected, p).bound <= terms


def test_zero_and_nonzero_bounds():
    zero = Tensor3((3, 3, 3), [], Q)
    assert bound_classical(zero).bound == 0
    assert bound_koszul(zero, 1).bound == 0
    rng = random.Random(5)
    for _ in range(5):
        t = rank_one_tensor([rng.randint(1, 3) for _ in range(3)], [1, 1], [2])
        assert bound_classical(t).bound >= 1
        assert bound_koszul(t, 1).bound >= 1


def test_certificate_json_shape():
    cert = bound_koszul(matmul_tensor(3, 3, 1), 4, ExactQ(),
                        descriptor={"m": 3, "n": 3, "l": 1})
    doc = cert.to_json()
    for key in ("method", "m", "n", "l", "p", "rows", "cols", "rank",
                "divisor", "quotient", "bound", "field", "soundness", "timings_ms"):
        assert key in doc
    assert doc["quotient"] == "153/35"
    assert doc["soundness"] == SOUND_EXACT_Q
    assert doc["field"] == "Q"
    assert "flags" not in doc

    # Every class of the restricted map reaches full rank mod the first
    # prime, so its multi-prime rank is the Q-rank.
    cert = bound_matmul_restricted(2, 2, 1, MultiPrime())
    doc = cert.to_json()
    assert (doc["soundness"], cert.flattening.ranked.unsettled) == (SOUND_EXACT_Q, 0)
    assert doc["field"].startswith("multiprime:")

    # A tensor over F_p has no Q-rank to bound: its rank is exact over F_p.
    cert = bound_koszul(matmul_tensor(2, 2, 1, FieldTag.prime_field(5)), 1)
    assert (cert.field_label, cert.soundness) == ("Fp:5", SOUND_EXACT_FP)


def test_certificate_flags_out_of_range_p():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cert = bound_koszul(matmul_tensor(2, 2, 1), 2)
    assert "outside-recommended-p-range" in cert.flags
    assert cert.bound >= 1


def test_file_descriptor_for_anonymous_tensor():
    t = rank_one_tensor([1, 1], [1], [1])
    doc = bound_classical(t).to_json()
    assert doc["m"] is None
    assert len(doc["tensor_sha256"]) == 64


def test_formula_certificates():
    cert = formula_certificate("theorem1-formula", 3, 3, 3)
    assert cert.bound == 15 and cert.rank is None
    cert = formula_certificate("lickteig-square", 3, 3, 3)
    assert cert.bound == 14


def test_compare_table_contents():
    rows = compare_table(2, 3)
    assert rows[0]["theorem1"] == 6
    assert rows[1]["theorem1"] == 15
    assert rows[1]["classical"] == 9
    assert rows[1]["lickteig"] == 14
    assert rows[0]["computed"] == 6
    assert rows[1]["computed"] == 15

    # The restricted map is ranked up to n = 8; n = 9 is left out.
    rows = compare_table(5, 9)
    assert [row["computed"] for row in rows] == [45, 66, 91, 120, None]
    assert rows[0]["theorem1"] == 45

    with pytest.raises(InvalidDimension):
        compare_table(3, 2)


def test_compare_table_dominance_range():
    for row in compare_table(3, 8):
        assert row["theorem1"] > row["lickteig"]


def test_flattening_rank_checks_p_once_per_route():
    # Ungraded: the reversal sends the entry 1 at (0, 0, 0) to 6 at (3, 2, 2).
    ungraded = Tensor3((4, 3, 3), [(i, j, k, i + j + 1) for i in range(4) for j in range(3)
                                   for k in range(3)], Q)
    assert mirror_grading(ungraded) is None and len(direct_summands(ungraded)) == 1
    graded = matmul_tensor(2, 2, 1)
    assert mirror_grading(graded) is not None and len(direct_summands(graded)) == 1
    # One summand group of each route: the entry at (0, 0, 0) ungraded and
    # the other two graded, so p is checked, and warned about, twice.
    mixed = Tensor3((4, 3, 3), [(0, 0, 0, 1), (1, 1, 1, 1), (2, 1, 2, 1)], Q)
    assert sorted(mirror_grading(s) is None for s, _ in direct_summands(mixed)) == [False, True]
    for t, checks in ((ungraded, 1), (graded, 1), (mixed, 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flattening_rank(t, 2)
        assert [w.category for w in caught] == [WedgeRangeWarning] * checks
        with pytest.raises(InvalidDimension):
            flattening_rank(t, t.dims[0])

"""Mirror pairs: a tensor symmetric under the reversal of all three factors
is flattened by halves, and its rank must equal that of the whole
flattening."""

import random
import time
import warnings
from fractions import Fraction

import pytest

from oracles import stored, wedge_flattening

import brlab.bounds as bounds
import brlab.cli as cli
from brlab.binaryforms import restrict_matmul
from brlab.bounds import bound_classical, flattening_rank
from brlab.exterior import (WedgeRangeWarning, classical_tensor, koszul_flattening,
                            koszul_weight_spaces)
from brlab.rank_engine import ExactQ, MultiPrime, SparseMatrix, rank_certified
from brlab.scalars import FieldTag, certification_primes
from brlab.tensor import Tensor3, direct_summands, index_symmetries, matmul_tensor, mirror_grading

Q = FieldTag.rationals()
F7 = FieldTag.prime_field(7)


def reversed_cell(dims, cell):
    return tuple(d - 1 - x for d, x in zip(dims, cell))


def symmetric(dims, values: dict, field, eps: int) -> Tensor3:
    """The tensor with t(x) = values[x] and t(rho x) = eps * values[x]; a
    cell fixed by rho is kept only when eps = 1."""
    cells = {}
    for x, v in values.items():
        y = reversed_cell(dims, x)
        if y == x and eps == -1:
            continue
        cells[x], cells[y] = v, eps * v
    return Tensor3(dims, [(*x, v) for x, v in cells.items()], field)


def random_symmetric(rng: random.Random, field, eps: int) -> Tensor3:
    """A sparse tensor made rho-symmetric: either a random support or the
    support of a small matmul or restricted tensor, with random values."""
    if rng.random() < 0.5:
        dims = (rng.randint(2, 5), rng.randint(1, 3), rng.randint(1, 3))
        cells = [(rng.randrange(dims[0]), rng.randrange(dims[1]), rng.randrange(dims[2]))
                 for _ in range(rng.randint(1, 6))]
    else:
        n = rng.randint(1, 2)
        m = rng.randint(n, 3)
        base = matmul_tensor(m, n, 1) if rng.random() < 0.5 else restrict_matmul(m, n, 1)
        dims, cells = base.dims, [(i, j, k) for i, j, k, _ in base.items()]
    values = {}
    for x in cells:
        v = rng.choice([1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)])
        values[x] = v if field.is_q else rng.randrange(1, field.p)
    return symmetric(dims, values, field, eps)


def whole_rank(t, p, strategy):
    return rank_certified(koszul_flattening(t, p).matrix, strategy).rank


def written(t, p):
    """The cells of the weight spaces that `koszul_weight_spaces` writes
    under t's mirror grading and the reversal alone, the first of t's index
    symmetries, grouped by orbit size: (size, {(row, col): value}) per
    size, the pairs first, the fixed spaces last (possibly none)."""
    reps, space = koszul_weight_spaces(t, p, mirror_grading(t), index_symmetries(t)[:1])
    parts = {1: {}}
    for w, size in reps:
        parts.setdefault(size, {}).update(((r, c), v) for r, c, v in space(w).items())
    return sorted(parts.items(), reverse=True)


def mirror_image(t, p, whole, cells):
    """cells moved by the reversal rho of rows (k, S') and columns (j, S)
    of the whole p-th flattening of t, with the sign each needs to match
    the whole matrix there (None where it matches neither sign).  The
    labels are those of the brute-force oracle."""
    a, b, c = t.dims
    _, row_labels, col_labels = wedge_flattening(t, p)
    row_at = {label: r for r, label in enumerate(row_labels)}
    col_at = {label: q for q, label in enumerate(col_labels)}

    def rho(x, s, d):
        return d - 1 - x, tuple(sorted(a - 1 - y for y in s))

    at = stored(whole)
    image = {}
    for (r, q), v in cells.items():
        x = row_at[rho(*row_labels[r], c)], col_at[rho(*col_labels[q], b)]
        w = at.get(x, 0)
        image[x] = 1 if w == v else -1 if w == t.field.coerce(-v) else None
    return image


def integral(t: Tensor3) -> bool:
    return all(type(v) is int for _, _, _, v in t.items())


SEEDS, EPS, FIELDS = range(6), (1, -1), (Q, F7)


def cases(seed, eps, field):
    """Eight seeded symmetric tensors for one parametrisation."""
    rng = random.Random(1000 * seed + 10 * eps + (0 if field.is_q else 1))
    return [random_symmetric(rng, field, eps) for _ in range(8)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPS)
@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_split_rank_matches_the_whole_flattening(seed, eps, field):
    for t in cases(seed, eps, field):
        if field.is_q:
            strategies = [ExactQ(), MultiPrime((certification_primes()[0],)), MultiPrime()]
            if not integral(t):
                strategies = strategies[:1]
        else:
            strategies = [MultiPrime((field.p,))]
        for p in range(t.dims[0]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WedgeRangeWarning)
                whole = koszul_flattening(t, p).matrix
                parts = written(t, p)
                if len(parts) == 2:
                    # The paired part, its mirror image and the fixed part
                    # tile the whole flattening, the image with one sign.
                    (_, paired), (_, fixed) = parts
                    image = mirror_image(t, p, whole, paired)
                    assert set(image.values()) in ({1}, {-1}, set())
                    assert not (image.keys() & paired.keys() or image.keys() & fixed.keys()
                                or paired.keys() & fixed.keys())
                    assert image.keys() | paired.keys() | fixed.keys() == {
                        (r, c) for r, c, _ in whole.items()}
                    assert (paired | fixed).items() <= stored(whole).items()
                else:
                    [(copies, cells)] = parts
                    assert copies == 1
                    assert sorted((r, c, v) for (r, c), v in cells.items()) == whole.items()
                for strategy in strategies:
                    fr = flattening_rank(t, p, strategy)
                    assert fr.rank == whole_rank(t, p, strategy)
                    assert fr.nnz == whole.nnz


def test_the_seeded_tensors_exercise_the_split():
    # The generator is meant to test the split, not only the fallback.
    split = total = 0
    for seed in SEEDS:
        for eps in EPS:
            for field in FIELDS:
                for t in cases(seed, eps, field):
                    total += 1
                    split += len(written(t, 0)) == 2
    assert split >= total // 4


def test_every_summand_of_a_matmul_tensor_is_split():
    for t, p in [(matmul_tensor(2, 2, 2), 1), (matmul_tensor(3, 2, 2), 2),
                 (restrict_matmul(3, 3, 2), 2), (restrict_matmul(4, 4, 1), 3)]:
        for summand, _ in direct_summands(t):
            assert len(written(summand, p)) == 2
        fr = flattening_rank(t, p)
        assert fr.orbits > 0 and fr.ranked.nnz < fr.nnz
        assert fr.rank == whole_rank(t, p, ExactQ())


def near_symmetric(change: str) -> Tensor3:
    t = restrict_matmul(3, 2, 1)
    entries = [(i, j, k, v) for i, j, k, v in t.items()]
    if change == "value":
        i, j, k, _ = entries[0]
        entries[0] = (i, j, k, 2)
    else:
        del entries[0]
    return Tensor3(t.dims, entries, Q)


@pytest.mark.parametrize("change", ["value", "entry"])
def test_one_broken_entry_gets_no_pairing(change):
    t = near_symmetric(change)
    assert mirror_grading(restrict_matmul(3, 2, 1)) is not None
    assert mirror_grading(t) is None
    for p in range(t.dims[0]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WedgeRangeWarning)
            assert koszul_weight_spaces(t, p, None)[0] == [(0, 1)]
            fr = flattening_rank(t, p)
            assert fr.rank == whole_rank(t, p, ExactQ())
            assert (fr.orbits, fr.ranked.nnz) == (0, fr.nnz)


def test_mixed_signs_get_no_pairing():
    # t(rho x) = t(x) on one orbit and -t(x) on the other.
    t = Tensor3((2, 2, 1), [(0, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 3), (1, 0, 0, -3)], Q)
    assert mirror_grading(t) is None


def test_trivial_grading_keeps_every_column_fixed():
    # All ones: every grading is constant on each factor, so every column
    # of a wedge flattening has one weight, which is its own mirror.
    t = Tensor3((3, 2, 2), [(i, j, k, 1) for i in range(3) for j in range(2)
                            for k in range(2)], Q)
    assert mirror_grading(t) is not None
    for p in (0, 1):
        assert len(koszul_weight_spaces(t, p, mirror_grading(t))[0]) == 1
        [(copies, cells)] = written(t, p)
        assert copies == 1
        assert sorted((r, c, v) for (r, c), v in cells.items()) == \
            koszul_flattening(t, p).matrix.items()


@pytest.mark.parametrize("t", [
    restrict_matmul(2, 2, 1), restrict_matmul(4, 3, 2), restrict_matmul(6, 6, 1),
    matmul_tensor(2, 2, 1), matmul_tensor(3, 2, 2), matmul_tensor(4, 4, 3),
], ids=["re221", "re432", "re661", "mm221", "mm322", "mm443"])
def test_derived_grading_holds_on_every_summand_entry(t):
    for summand, _ in direct_summands(t):
        wa, wb = mirror_grading(summand)
        # wA(i) - wB(j) must be one value wC(k) for each k.
        wc = {}
        for i, j, k, _ in summand.items():
            assert wc.setdefault(k, wa[i] - wb[j]) == wa[i] - wb[j]
        # Finer than the trivial grading: every second index has its own weight.
        assert len(set(wb.values())) == summand.dims[1]


def test_split_is_timed_apart_from_the_rank(monkeypatch):
    # The written weight spaces reach the rank loop as one stream, which
    # times its block split and its rank passes apart.
    seen = []

    def rank_streamed(spaces, strategy):
        res = rank_certified(spaces, strategy)
        seen.append((isinstance(spaces, SparseMatrix), res.split_ms > 0, res.rank_ms > 0))
        return res

    monkeypatch.setattr(bounds, "rank_certified", rank_streamed)
    start = time.perf_counter()
    fr = flattening_rank(restrict_matmul(3, 3, 1), 2)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    assert seen == [(False, True, True)]
    res = fr.ranked
    assert res.split_ms > 0 and res.rank_ms > 0 and fr.flatten_ms > 0
    assert res.split_ms + res.rank_ms + fr.flatten_ms <= elapsed_ms


def test_bound_classical_sums_the_mirror_split():
    t = matmul_tensor(2, 3, 2)
    frs = [flattening_rank(classical_tensor(t, mode), 0) for mode in "ABC"]
    fr = bound_classical(t).flattening
    for key in ("orbits", "orbit_weights", "nnz"):
        assert getattr(fr, key) == sum(getattr(f, key) for f in frs)
    assert fr.ranked.nnz == sum(f.ranked.nnz for f in frs)
    assert fr.nnz == 3 * t.nnz and fr.orbits > 0


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verbose_mirror_line(tmp_path, capsys):
    code, _, err = run(capsys, "bound", "--method", "koszul-restricted",
                       "--m", "3", "--n", "3", "--l", "3", "--verbose")
    assert code == 0
    assert "orbits: 5 of 9 weights written, nnz 33 of 162" in err.splitlines()
    path = tmp_path / "t.json"
    path.write_text('{"field": "Q", "dims": [2, 2, 1], '
                    '"entries": [[0, 0, 0, "1"], [1, 1, 0, "1"]]}\n')
    code, _, err = run(capsys, "bound", "--method", "koszul", "--p", "0",
                       "--tensor", str(path), "--verbose")
    assert code == 0 and "orbits: 1 of 2 weights written, nnz 1 of 2" in err.splitlines()
    path.write_text('{"field": "Q", "dims": [2, 2, 2], '
                    '"entries": [[0, 0, 0, "1"], [1, 1, 0, "2"]]}\n')
    code, _, err = run(capsys, "bound", "--method", "koszul", "--p", "0",
                       "--tensor", str(path), "--verbose")
    assert code == 0 and "orbits: none" in err.splitlines()

"""Weight spaces: `flattening_rank` ranks the written weight spaces of every
summand as one stream, and must give the rank of the whole flattening and
the block counts and nnz of the spaces assembled from the stream."""

import tracemalloc
import warnings

import pytest

import brlab.bounds as bounds
from brlab.binaryforms import restrict_matmul
from brlab.bounds import flattening_rank
from brlab.exterior import WedgeRangeWarning, koszul_flattening, koszul_weight_spaces
from brlab.rank_engine import ExactQ, MultiPrime, SparseMatrix, _blocks, rank_certified
from brlab.scalars import FieldTag, certification_primes
from brlab.tensor import Tensor3, direct_summands, index_symmetries, matmul_tensor, mirror_grading

Q = FieldTag.rationals()
F7 = FieldTag.prime_field(7)


def cases(field):
    """(tensor, p): matmul (2,2,2), (3,3,1) and (3,3,3) at p <= 4, and the
    restricted tensor at n = 3..6, over one field."""
    out = []
    for m, n, l in ((2, 2, 2), (3, 3, 1), (3, 3, 3)):
        t = matmul_tensor(m, n, l, field)
        out += [(t, p) for p in range(min(4, t.dims[0] - 1) + 1)]
    return out + [(restrict_matmul(n, n, n, field), n - 1) for n in range(3, 7)]


def assembled(t, p, strategy):
    """The FlatteningRank counts, from the written weight spaces of each
    summand assembled here into one matrix per number of copies they stand
    for, from the cells they hold, each row's in the order written, and
    ranked as one stream."""
    parts = {}
    for x, (summand, count) in enumerate(direct_summands(t)):
        reps, space = koszul_weight_spaces(summand, p, mirror_grading(summand),
                                           index_symmetries(summand))
        for w, size in reps:
            matrix = space(w)
            shape, cells = parts.setdefault((x, count * size), (matrix, []))
            cells += [(r, c, v) for r, row in matrix._rows.items() for c, v in row.items()]
    stream = [(SparseMatrix(shape.rows, shape.cols, cells, t.field), copies)
              for (_, copies), (shape, cells) in parts.items()]
    res = rank_certified(stream, strategy)
    return (res.rank, res.peeled, res.blocks, res.settled_mod_2, res.unsettled, res.nnz,
            sum(copies * matrix.nnz for matrix, copies in stream))


def streamed(fr):
    res = fr.ranked
    return (fr.rank, res.peeled, res.blocks, res.settled_mod_2, res.unsettled, res.nnz, fr.nnz)


@pytest.mark.parametrize("field,strategies", [
    (Q, [ExactQ(), MultiPrime((certification_primes()[0],))]),
    (F7, [MultiPrime((7,))]),
], ids=["Q", "F7"])
def test_streamed_rank_matches_the_assembled_flattening(field, strategies):
    for t, p in cases(field):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WedgeRangeWarning)
            whole = koszul_flattening(t, p).matrix
            for strategy in strategies:
                fr = flattening_rank(t, p, strategy)
                assert streamed(fr) == assembled(t, p, strategy), (t, p, strategy)
                assert fr.rank == rank_certified(whole, strategy).rank
                assert fr.nnz == whole.nnz


def test_every_weight_space_is_a_union_of_blocks():
    # Written alone, the weight spaces hold cells of distinct rows, and
    # their row blocks are those of the matrix they make up.
    t = restrict_matmul(4, 4, 1)
    reps, space = koszul_weight_spaces(t, 3, mirror_grading(t))
    blocks, cells, rows = [], [], set()
    for w, _ in reps:
        matrix = space(w)
        assert rows.isdisjoint(matrix._rows)
        rows |= matrix._rows.keys()
        blocks += [_entries(block) for block in _blocks(matrix._rows)]
        cells += [(r, c, v) for r, row in matrix._rows.items() for c, v in row.items()]
    assert rank_certified([(space(w), size) for w, size in reps], ExactQ()).nnz == len(cells)
    matrix = SparseMatrix(matrix.rows, matrix.cols, cells, t.field)
    whole = [_entries(block) for block in _blocks(matrix._rows)]
    assert sorted(blocks) == sorted(whole)


def _entries(block):
    """A block's rows as sorted (column, value) tuples, in row order."""
    return [tuple(sorted(row.items())) for row in block]


@pytest.mark.parametrize("t,p,fixed", [
    (restrict_matmul(3, 3, 1), 2, 1),
    (Tensor3((2, 2, 1), [(0, 0, 0, 1), (1, 1, 0, 1)], Q), 0, 0),
], ids=["fixed", "none-fixed"])
def test_writing_one_weight_twice_gives_equal_matrices(t, p, fixed):
    # The writer holds no state: writing a weight again gives an equal
    # matrix, and the rank loop counts the entries of the matrices it
    # reads, each once whatever its copies.  Under the reversal the
    # self-mirror weight, the largest, comes first.
    reps, space = koszul_weight_spaces(t, p, mirror_grading(t), index_symmetries(t))
    assert [size for _, size in reps] == [1] * fixed + [2] * (len(reps) - fixed)
    assert [w for w, _ in reps] == sorted((w for w, _ in reps), reverse=True)
    first = [space(w) for w, _ in reps]
    assert first == [space(w) for w, _ in reps]
    stream = [(matrix, size) for matrix, (_, size) in zip(first, reps)]
    assert rank_certified(stream, ExactQ()).nnz == sum(m.nnz for m in first)


def one_changed_value() -> Tensor3:
    t = restrict_matmul(3, 2, 1)
    entries = t.items()
    i, j, k, _ = entries[0]
    entries[0] = (i, j, k, 2)
    return Tensor3(t.dims, entries, Q)


@pytest.mark.parametrize("t,graded", [(restrict_matmul(3, 2, 1), True),
                                      (one_changed_value(), False)], ids=["mirror", "changed"])
def test_one_changed_value_takes_the_one_weight_path(monkeypatch, t, graded):
    calls = []

    def spy_whole(summand, p):
        calls.append(("koszul_flattening", None))
        return koszul_flattening(summand, p)

    def spy_spaces(summand, p, grading, symmetries):
        result = koszul_weight_spaces(summand, p, grading, symmetries)
        calls.append(("koszul_weight_spaces", result[0]))
        return result

    monkeypatch.setattr(bounds, "koszul_flattening", spy_whole)
    monkeypatch.setattr(bounds, "koszul_weight_spaces", spy_spaces)
    for p in range(t.dims[0]):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WedgeRangeWarning)
            fr = flattening_rank(t, p)
            assert fr.rank == rank_certified(koszul_flattening(t, p).matrix, ExactQ()).rank
        [(name, reps)] = calls
        if graded:
            assert name == "koszul_weight_spaces" and {size for _, size in reps} - {1} == {2}
            assert fr.orbits == len(reps) > 0
        else:
            assert name == "koszul_flattening"
            assert (fr.orbits, fr.ranked.nnz) == (0, fr.nnz)


def _peak(run):
    """The peak of memory traced while run() runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_peak_is_a_fraction_of_the_whole_flattening():
    # Restricted n = 7, one summand: 25 of its 49 weight spaces are written,
    # the largest holding 2492 of the 45276 entries.  The stream holds one
    # of them at a time, and each peels to nothing, so no block is split
    # off; the whole flattening holds all 49 at once.
    t = restrict_matmul(7, 7, 1)

    def whole():
        return rank_certified(koszul_flattening(t, 6).matrix, ExactQ())

    assert _peak(lambda: flattening_rank(t, 6)) < _peak(whole) / 4


def test_largest_weight_space_is_ranked_before_the_class_table_fills():
    # Restricted n = 8, one summand: 32 mirror pairs, written largest
    # first.  Each space peels to nothing, so the largest (9810 entries) is
    # held with its peel counts alone, and no block is split.
    # Traced peak on Python 3.11: 2.0 MB; 3.4-3.6 MB while each space was
    # split and keyed, and 4.5 MB when, besides, the smallest came first.
    assert _peak(lambda: flattening_rank(restrict_matmul(8, 8, 1), 7)) < 3_800_000


def test_insertion_tables_hold_the_written_weights_alone():
    # Matmul (4,4,1) at p = 7 has 4432 weight spaces in 44 orbits of its
    # index symmetries, so the tables hold the 2459 cells of the written
    # orbits, two machine integers each, in the 460 slices (subset weight,
    # first-factor index) that they read, over 71 subset weights, and no
    # list of its 11440 subsets is built: the traced peak is 1.4 MB.  Tables
    # of all 102960 cells, built from such a list, peak near 5 MB, and those
    # of the 51480 cells of one space per mirror pair near 2.4 MB.
    t = matmul_tensor(4, 4, 1)
    grading, symmetries = mirror_grading(t), index_symmetries(t)
    assert _peak(lambda: koszul_weight_spaces(t, 7, grading, symmetries)) < 2_000_000

"""Weight spaces: `flattening_rank` ranks each graded summand as streams of
its weight spaces, and must give the rank of the whole flattening and the
class counts and nnz of the parts assembled from the stream."""

import tracemalloc
import warnings

import pytest

import brlab.bounds as bounds
from brlab.binaryforms import restrict_matmul
from brlab.bounds import flattening_rank
from brlab.exterior import WedgeRangeWarning, koszul_flattening, koszul_weight_spaces
from brlab.rank_engine import ExactQ, MultiPrime, SparseMatrix, rank_certified
from brlab.scalars import FieldTag, certification_primes
from brlab.tensor import Tensor3, direct_summands, matmul_tensor, mirror_grading

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
    """The FlatteningRank counts, from each part of each summand's stream
    assembled here into one matrix from the cells its weight spaces hold,
    each row's in the order written."""
    rank = classes = settled = unsettled = written = whole = 0
    for summand, count in direct_summands(t):
        for part, copies in koszul_weight_spaces(summand, p, mirror_grading(summand)).parts:
            matrix = SparseMatrix(part.rows, part.cols, [
                (r, c, v) for space in part for r, row in space._rows.items()
                for c, v in row.items()], summand.field)
            res = rank_certified(matrix, strategy)
            rank += count * copies * res.rank
            classes += res.classes
            settled += res.settled_mod_2
            unsettled += res.unsettled
            written += count * matrix.nnz
            whole += count * copies * matrix.nnz
    return rank, classes, settled, unsettled, written, whole


def streamed(fr):
    return (fr.rank, fr.block_classes, fr.settled_mod_2, fr.unsettled, fr.nnz_written,
            fr.nnz_whole)


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
                assert fr.nnz == fr.nnz_whole == whole.nnz


def test_every_weight_space_is_a_union_of_blocks():
    # Written alone, the weight spaces hold cells of distinct rows, and
    # their row blocks are those of the part they make up.
    t = restrict_matmul(4, 4, 1)
    for part, _ in koszul_weight_spaces(t, 3, mirror_grading(t)).parts:
        keys, cells, rows = [], [], set()
        for space in part:
            assert rows.isdisjoint(space._rows)
            rows |= space._rows.keys()
            keys += [key for key, _ in space._block_keys()]
            cells += [(r, c, v) for r, row in space._rows.items() for c, v in row.items()]
        assert part.nnz == len(cells)
        matrix = SparseMatrix(part.rows, part.cols, cells, t.field)
        assert sorted(keys) == sorted(key for key, _ in matrix._block_keys())


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

    def spy_spaces(summand, p, grading):
        result = koszul_weight_spaces(summand, p, grading)
        calls.append(("koszul_weight_spaces", [(len(part.weights), copies)
                                               for part, copies in result.parts]))
        return result

    monkeypatch.setattr(bounds, "koszul_flattening", spy_whole)
    monkeypatch.setattr(bounds, "koszul_weight_spaces", spy_spaces)
    for p in range(t.dims[0]):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WedgeRangeWarning)
            fr = flattening_rank(t, p)
            assert fr.rank == rank_certified(koszul_flattening(t, p).matrix, ExactQ()).rank
        [(name, parts)] = calls
        if graded:
            assert name == "koszul_weight_spaces" and [n for _, n in parts] == [2, 1]
            assert fr.mirror_pairs == parts[0][0] > 0
        else:
            assert name == "koszul_flattening"
            assert (fr.mirror_pairs, fr.nnz_written) == (0, fr.nnz)


def test_streamed_peak_is_a_fraction_of_the_whole_flattening():
    # Restricted n = 7, one summand: 25 of its 49 weight spaces are written,
    # the largest holding 2492 of the 45276 entries.  The stream holds one
    # of them at a time besides the keys of its class table; the whole
    # flattening holds all 49 at once.
    t = restrict_matmul(7, 7, 1)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def whole():
        return rank_certified(koszul_flattening(t, 6).matrix, ExactQ())

    assert peak(lambda: flattening_rank(t, 6)) < peak(whole) / 4

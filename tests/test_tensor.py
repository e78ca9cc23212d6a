"""Tensors: construction, arithmetic, flattenings, projections, file format."""

import json
import random
from fractions import Fraction

import pytest

from oracles import dense_rows, rank_gauss_fractions, stored

from brlab.errors import (
    BadPrime,
    DimensionMismatch,
    FormatError,
    InvalidDimension,
    ZeroFactor,
    ZeroScalar,
)
from brlab.exterior import classical_tensor, koszul_flattening
from brlab.rank_engine import rank_exact_q
from brlab.scalars import FieldTag
from brlab.tensor import (
    Tensor3,
    add_tensors,
    load_tensor,
    matmul_tensor,
    rank_one_tensor,
    save_tensor,
    scale_tensor,
    tensor_from_json,
    tensor_to_json,
)

Q = FieldTag.rationals()


def _random_tensor(rng, dims, field=Q, fill=0.4):
    entries = []
    a, b, c = dims
    for i in range(a):
        for j in range(b):
            for k in range(c):
                if rng.random() < fill:
                    v = rng.randint(-4, 4)
                    if v:
                        entries.append((i, j, k, v))
    return Tensor3(dims, entries, field)


def test_matmul_examples():
    t = matmul_tensor(1, 1, 1)
    assert t.dims == (1, 1, 1)
    assert t.items() == [(0, 0, 0, Fraction(1))]

    t = matmul_tensor(2, 2, 2)
    assert t.dims == (4, 4, 4)
    assert t.nnz == 8
    assert all(v == 1 for _, _, _, v in t.items())

    t = matmul_tensor(3, 3, 3)
    assert t.dims == (9, 9, 9)
    assert t.nnz == 27
    fb = koszul_flattening(classical_tensor(t, "B"), 0).matrix
    assert (fb.rows, fb.cols) == (81, 9)
    assert rank_gauss_fractions(dense_rows(fb)) == 9
    assert rank_exact_q(fb).rank == 9


def test_matmul_index_conventions():
    # (m,n,l) = (2,1,3): entry (alpha*n+s, s*l+t, t*m+alpha) = (alpha, t, t*2+alpha)
    t = matmul_tensor(2, 1, 3)
    expected = {(alpha, t, t * 2 + alpha) for alpha in range(2) for t in range(3)}
    assert {key[:3] for key in t.items()} == expected


def test_matmul_invalid_dimension():
    with pytest.raises(InvalidDimension):
        matmul_tensor(0, 1, 1)
    with pytest.raises(InvalidDimension):
        matmul_tensor(2, -1, 2)


def test_rank_one_examples():
    t = rank_one_tensor([1], [1], [1])
    assert t.items() == [(0, 0, 0, Fraction(1))]

    t = rank_one_tensor([1, 1], [1, 0], [0, 1])
    assert {k[:3] for k in t.items()} == {(0, 0, 1), (1, 0, 1)}
    assert all(v == 1 for _, _, _, v in t.items())

    for mode in "ABC":
        m = koszul_flattening(classical_tensor(t, mode), 0).matrix
        assert rank_gauss_fractions(dense_rows(m)) == 1
        assert rank_exact_q(m).rank == 1

    with pytest.raises(ZeroFactor):
        rank_one_tensor([0, 0], [1], [1])


def test_add_and_scale():
    rng = random.Random(11)
    t = _random_tensor(rng, (3, 4, 2))
    neg = scale_tensor(t, -1)
    assert add_tensors(t, neg).nnz == 0

    u = rank_one_tensor([1, 0], [1], [1])
    v = rank_one_tensor([0, 1], [1], [1])
    s = add_tensors(u, v)
    assert s.nnz == 2

    with pytest.raises(ZeroScalar):
        scale_tensor(t, 0)
    with pytest.raises(DimensionMismatch):
        add_tensors(t, _random_tensor(rng, (3, 4, 3)))


def test_flatten_conventions_explicit():
    t = Tensor3((2, 3, 4), [(1, 2, 3, 5)], Q)
    fa = koszul_flattening(classical_tensor(t, "A"), 0).matrix
    assert (fa.rows, fa.cols) == (12, 2)
    assert stored(fa)[2 * 4 + 3, 1] == 5
    fb = koszul_flattening(classical_tensor(t, "B"), 0).matrix
    assert (fb.rows, fb.cols) == (8, 3)
    assert stored(fb)[1 * 4 + 3, 2] == 5
    fc = koszul_flattening(classical_tensor(t, "C"), 0).matrix
    assert (fc.rows, fc.cols) == (6, 4)
    assert stored(fc)[1 * 3 + 2, 3] == 5
    with pytest.raises(InvalidDimension):
        classical_tensor(t, "D")
    t = _random_tensor(random.Random(23), (2, 3, 5), fill=0.6)
    expected = {"A": {(j * 5 + k, i, v) for i, j, k, v in t.items()},
                "B": {(i * 5 + k, j, v) for i, j, k, v in t.items()},
                "C": {(i * 3 + j, k, v) for i, j, k, v in t.items()}}
    for mode, cells in expected.items():
        assert set(koszul_flattening(classical_tensor(t, mode), 0).matrix.items()) == cells


def test_flatten_matmul_222_mode_b():
    m = koszul_flattening(classical_tensor(matmul_tensor(2, 2, 2), "B"), 0).matrix
    assert (m.rows, m.cols) == (16, 4)
    assert rank_gauss_fractions(dense_rows(m)) == 4
    assert rank_exact_q(m).rank == 4


def test_flatten_zero_tensor():
    t = Tensor3((2, 2, 2), [], Q)
    assert rank_exact_q(koszul_flattening(classical_tensor(t, "B"), 0).matrix).rank == 0


def test_flatten_rank_invariant_under_storage_order():
    rng = random.Random(7)
    t = _random_tensor(rng, (4, 4, 4))
    entries = t.items()
    rng.shuffle(entries)
    t2 = Tensor3(t.dims, entries, Q)
    for mode in "ABC":
        assert rank_exact_q(koszul_flattening(classical_tensor(t, mode), 0).matrix).rank == \
            rank_exact_q(koszul_flattening(classical_tensor(t2, mode), 0).matrix).rank


def test_flatten_subadditive_on_random_pairs():
    rng = random.Random(13)
    for _ in range(20):
        s = _random_tensor(rng, (3, 3, 3))
        t = _random_tensor(rng, (3, 3, 3))
        total = add_tensors(s, t)
        for mode in "ABC":
            r_sum = rank_exact_q(koszul_flattening(classical_tensor(total, mode), 0).matrix).rank
            r_s = rank_exact_q(koszul_flattening(classical_tensor(s, mode), 0).matrix).rank
            r_t = rank_exact_q(koszul_flattening(classical_tensor(t, mode), 0).matrix).rank
            assert r_sum <= r_s + r_t


def _project_first_factor(t, proj):
    """T'_{rjk} = sum_i P_{ri} T_{ijk} for a dense matrix P, accumulated."""
    cells = {}
    for i, j, k, v in t.items():
        for r, row in enumerate(proj):
            if row[i]:
                cells[(r, j, k)] = cells.get((r, j, k), 0) + row[i] * v
    return Tensor3((len(proj),) + t.dims[1:],
                   [(i, j, k, v) for (i, j, k), v in cells.items() if v], t.field)


def test_projection_never_increases_flattening_rank():
    rng = random.Random(17)
    for _ in range(15):
        t = _random_tensor(rng, (4, 3, 3))
        # rank-deficient projector: 2 x 4 random
        p = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        proj = _project_first_factor(t, p)
        for mode in "ABC":
            r_proj = rank_exact_q(koszul_flattening(classical_tensor(proj, mode), 0).matrix).rank
            r_t = rank_exact_q(koszul_flattening(classical_tensor(t, mode), 0).matrix).rank
            assert r_proj <= r_t


def test_tensor_validation():
    with pytest.raises(InvalidDimension):
        Tensor3((2, 2, 0), [], Q)
    with pytest.raises(InvalidDimension):
        Tensor3((2, 2, 2), [(0, 0, 2, 1)], Q)
    with pytest.raises(FormatError):
        Tensor3((2, 2, 2), [(0, 0, 0, 1), (0, 0, 0, 2)], Q)
    with pytest.raises(FormatError):
        Tensor3((2, 2, 2), [(0, 0, 0, 0)], Q)


def test_json_round_trip(tmp_path):
    rng = random.Random(23)
    t = _random_tensor(rng, (3, 4, 2))
    path = tmp_path / "t.json"
    save_tensor(t, path)
    assert load_tensor(path) == t

    fp = FieldTag.prime_field(65521)
    t2 = matmul_tensor(2, 2, 2, fp)
    save_tensor(t2, path)
    back = load_tensor(path)
    assert back == t2 and back.field == fp


def test_json_rejects_unsorted_and_malformed():
    doc = tensor_to_json(matmul_tensor(2, 2, 1))
    good = json.loads(json.dumps(doc))
    tensor_from_json(good)

    bad = json.loads(json.dumps(doc))
    bad["entries"][0], bad["entries"][1] = bad["entries"][1], bad["entries"][0]
    with pytest.raises(FormatError):
        tensor_from_json(bad)

    bad = json.loads(json.dumps(doc))
    bad["entries"].append(bad["entries"][-1])
    with pytest.raises(FormatError):
        tensor_from_json(bad)

    bad = json.loads(json.dumps(doc))
    bad["dims"] = [2, 2]
    with pytest.raises(FormatError):
        tensor_from_json(bad)

    bad = json.loads(json.dumps(doc))
    bad["entries"][0][3] = "0"
    with pytest.raises(FormatError):
        tensor_from_json(bad)


def test_json_field_and_values_are_ascii_digits():
    doc = tensor_to_json(matmul_tensor(2, 2, 1, FieldTag.prime_field(7)))
    for field in ["R", "Fp:", "Fp:7_0", "Fp: 7", "Fp:+7", "Fp:\u0663", "fp:7"]:
        bad = json.loads(json.dumps(doc))
        bad["field"] = field
        with pytest.raises(FormatError):
            tensor_from_json(bad)
    for value in ["1_002", "+-1", " 5", "5 ", "\u0663", "1/2", "0x1"]:
        bad = json.loads(json.dumps(doc))
        bad["entries"][0][3] = value
        with pytest.raises(FormatError):
            tensor_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["field"] = "Fp:6"
    with pytest.raises(BadPrime):
        tensor_from_json(bad)
    good = json.loads(json.dumps(doc))
    good["entries"][0][3] = "-13"
    assert stored(tensor_from_json(good))[0, 0, 0] == 1


def test_json_rejects_infinite_dimension_or_index():
    # JSON "Infinity" parses to a float that no int conversion accepts.
    doc = tensor_to_json(matmul_tensor(2, 2, 1))
    bad = json.loads(json.dumps(doc))
    bad["dims"][0] = float("inf")
    with pytest.raises(FormatError):
        tensor_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["entries"][0][0] = float("inf")
    with pytest.raises(FormatError):
        tensor_from_json(bad)


def test_json_dims_and_indices_are_json_integers(tmp_path):
    doc = {"field": "Q", "dims": [2.9, 2, "2"], "entries": [[1.7, 0, 0, "1"], ["1", 1, 1, "3"]]}
    with pytest.raises(FormatError):
        tensor_from_json(doc)
    good = tensor_to_json(matmul_tensor(2, 2, 1))
    for bad_value in (2.0, 2.9, "2", True, None, [2]):
        for where in ("dims", "entries"):
            bad = json.loads(json.dumps(good))
            if where == "dims":
                bad["dims"][1] = bad_value
            else:
                bad["entries"][0][1] = bad_value
            with pytest.raises(FormatError):
                tensor_from_json(bad)
    for dims in ("222", {"a": 2}, 2):
        with pytest.raises(FormatError):
            tensor_from_json(dict(good, dims=dims))
    # An integer past Python's digit limit is malformed input, not a crash.
    path = tmp_path / "long.json"
    path.write_text('{"field": "Q", "dims": [2, 2, %s], "entries": []}' % ("9" * 5000))
    with pytest.raises(FormatError):
        load_tensor(path)


def test_tensor_file_bad_index_and_non_ascii(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"field": "Q", "dims": [2, 2, 1], "entries": [[0, "x", 0, "1"]]}\n')
    with pytest.raises(FormatError):
        load_tensor(path)
    path.write_bytes(b'{"field": "Q", "dims": [2, 2, 1], "entries": [[0, 0, 0, "\xe9"]]}\n')
    with pytest.raises(FormatError, match="not an ASCII file"):
        load_tensor(path)


def test_rational_values_round_trip(tmp_path):
    t = Tensor3((2, 2, 2), [(0, 0, 0, Fraction(-3, 7)), (1, 1, 1, Fraction(5, 2))], Q)
    path = tmp_path / "q.json"
    save_tensor(t, path)
    assert load_tensor(path) == t

"""Fuzzing of the file boundaries: any input either parses or raises a
BrlabError subclass, never a bare Python exception."""

import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from brlab.errors import BrlabError
from brlab.rank_engine import SparseMatrix, read_matrix
from brlab.tensor import Tensor3, tensor_from_json, tensor_to_json

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

_scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=12))
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner,
                                                              max_size=5),
    max_leaves=20,
)
_tensor_docs = st.fixed_dictionaries({
    "field": st.sampled_from(["Q", "Fp:5", "Fp:4", "Fp:"]) | _scalars,
    "dims": _json_values,
    "entries": _json_values,
})
# Documents with a valid field and mostly valid dims, so that fuzzing
# reaches the entry loop and the tensor constructor.
_odd = st.sampled_from([2.5, float("inf"), float("-inf"), float("nan"), True, "2", "x", "",
                        None, [], {}, 10**40])
_index = st.integers(-1, 4) | _odd
_value = st.integers(-3, 3) | _odd | st.floats() | st.text(max_size=8)
_entry = st.tuples(_index, _index, _index, _value).map(list) | st.lists(_index, max_size=5)
_headed_docs = st.fixed_dictionaries({
    "field": st.sampled_from(["Q", "Fp:5"]),
    "dims": st.lists(st.integers(-1, 4), min_size=3, max_size=3)
    | st.lists(_index, min_size=2, max_size=4),
    "entries": st.lists(_entry, max_size=6),
})


@FUZZ
@given(st.one_of(_json_values, _tensor_docs, _headed_docs))
def test_tensor_from_json_parses_or_raises_brlab_error(doc):
    try:
        t = tensor_from_json(doc)
    except BrlabError:
        return
    assert isinstance(t, Tensor3)
    assert tensor_from_json(tensor_to_json(t)) == t


_tokens = st.sampled_from(["0", "1", "2", "3", "-1", "x", "1/2", "1/0", "Q", "Fp:5", "Fp:6",
                           "7", "", " ", "\t", "é", "0.5", "1e3"])
_matrix_lines = st.lists(st.lists(_tokens, max_size=4).map(" ".join), max_size=6).map("\n".join)
_headers = st.sampled_from(["3 3 Q", "2 4 Fp:5", "4 2 Fp:7", "0 0 Q", "-1 2 Q"])
_headed_matrices = st.builds("{}\n{}".format, _headers, _matrix_lines)


@FUZZ
@given(st.one_of(st.text(max_size=60), _matrix_lines, _headed_matrices))
def test_read_matrix_parses_or_raises_brlab_error(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            m = read_matrix(path)
        except BrlabError:
            return
        assert isinstance(m, SparseMatrix)
    finally:
        os.unlink(path)

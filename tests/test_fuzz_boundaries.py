"""Fuzzing of the file and command-line boundaries: any input either parses
or raises a BrlabError subclass, never a bare Python exception, and the CLI
always ends with a documented exit code."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import brlab.cli as cli
from brlab.errors import BrlabError
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


# CLI argv from the real subcommands and options, with small dimensions so
# that every call stays fast, optional flags sometimes left out, and
# --field values drawn from arbitrary text as well as the valid spellings.
_small = st.integers(1, 3).map(str)
_fields = st.sampled_from(["q", "fp", "fp:5", "fp:6", "fp:65521", "multiprime"]) \
    | st.text(max_size=10)
_vector = st.lists(st.sampled_from(["0", "1", "-2", "1/3", "1/5", "x", "1e3", ""]),
                   min_size=1, max_size=3).map(",".join)


@st.composite
def _cli_argv(draw):
    def opt(name, values):
        return [name, draw(values)] if draw(st.booleans()) else []

    def flag(name):
        return [name] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["tensor", "bound", "kernel-dim", "table"]))
    if command == "tensor":
        kind = draw(st.sampled_from(["matmul", "restrict", "rank-one"]))
        if kind == "rank-one":
            argv = ["tensor", kind, "--u", draw(_vector), "--v", draw(_vector),
                    "--w", draw(_vector)]
        else:
            argv = ["tensor", kind, "--m", draw(_small), "--n", draw(_small),
                    "--l", draw(_small)]
        argv += opt("--field", _fields)
    elif command == "bound":
        method = draw(st.sampled_from(["classical", "strassen", "koszul", "koszul-restricted",
                                       "theorem1-formula", "lickteig-square"]))
        argv = ["bound", "--method", method]
        for name in ("--m", "--n", "--l"):
            argv += opt(name, _small)
        argv += opt("--p", st.integers(0, 3).map(str)) + opt("--field", _fields)
    elif command == "kernel-dim":
        argv = ["kernel-dim", "--m", draw(_small), "--n", draw(_small),
                "--p", draw(st.integers(0, 3).map(str))]
        argv += opt("--l", _small) + opt("--check", st.sampled_from(
            ["pieri", "formula", "both", "rank"]))
    else:
        argv = ["table", "--n-min", draw(_small), "--n-max", draw(_small)]
        argv += flag("--json")
    return argv + flag("--verbose")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_cli_argv())
def test_cli_ends_with_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())

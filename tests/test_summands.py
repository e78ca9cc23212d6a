"""Direct summands: the split on the tensor, and ranks taken summand by
summand against the rank of the whole flattening."""

import json
from fractions import Fraction

import pytest

import brlab.bounds as bounds
import brlab.cli as cli
from brlab.binaryforms import restrict_matmul
from brlab.bounds import bound_koszul, flattening_rank
from brlab.exterior import koszul_flattening, koszul_weight_spaces
from brlab.rank_engine import ExactQ, MultiPrime, rank_certified
from brlab.scalars import FieldTag
from brlab.tensor import Tensor3, direct_summands, matmul_tensor, save_tensor

Q = FieldTag.rationals()

STRATEGIES = [ExactQ(), MultiPrime((5,)), MultiPrime((7,)), MultiPrime()]
STRATEGY_IDS = ["q", "fp5", "fp7", "multiprime"]


def full_rank(t, p, strategy):
    """Rank of the whole flattening, built and ranked in one piece."""
    return rank_certified(koszul_flattening(t, p).matrix, strategy).rank


@pytest.mark.parametrize("m,n,l", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_matmul_splits_into_l_copies_of_l1(m, n, l):
    assert direct_summands(matmul_tensor(m, n, l)) == [(matmul_tensor(m, n, 1), l)]


@pytest.mark.parametrize("m,n,l", [(2, 2, 2), (3, 2, 3), (3, 3, 2)])
def test_restricted_splits_into_l_copies_of_l1(m, n, l):
    assert direct_summands(restrict_matmul(m, n, l)) == [(restrict_matmul(m, n, 1), l)]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
@pytest.mark.parametrize("t,p", [
    (matmul_tensor(2, 2, 2), 1),
    (matmul_tensor(2, 2, 3), 1),
    (matmul_tensor(3, 2, 2), 2),
    (matmul_tensor(2, 3, 2), 2),
    (restrict_matmul(2, 2, 3), 1),
    (restrict_matmul(3, 2, 2), 1),
    (restrict_matmul(3, 3, 2), 2),
], ids=["mm222-p1", "mm223-p1", "mm322-p2", "mm232-p2", "re223-p1", "re322-p1",
        "re332-p2"])
def test_summand_rank_matches_full_build(t, p, strategy):
    fr = flattening_rank(t, p, strategy)
    whole = koszul_flattening(t, p).matrix
    assert (fr.rows, fr.cols, fr.nnz) == (whole.rows, whole.cols, whole.nnz)
    assert fr.rank == full_rank(t, p, strategy)
    assert fr.strategy == strategy


def test_summand_rank_over_a_prime_field_tensor():
    t = matmul_tensor(2, 2, 3, FieldTag.prime_field(7))
    assert flattening_rank(t, 1).rank == full_rank(t, 1, MultiPrime((7,))) == 24


def test_one_representative_is_flattened_per_class(monkeypatch):
    shapes = []

    def counting(flatten):
        def flatten_and_record(t, p, *args):
            shapes.append(t.dims)
            return flatten(t, p, *args)
        return flatten_and_record

    # A graded summand is streamed by weight, any other flattened whole.
    for flatten in (koszul_flattening, koszul_weight_spaces):
        monkeypatch.setattr(bounds, flatten.__name__, counting(flatten))
    fr = flattening_rank(matmul_tensor(2, 2, 3), 1)
    assert shapes == [(4, 2, 2)]
    assert (fr.summands, fr.classes, fr.rows, fr.cols) == (3, 1, 36, 24)


def near_copies(second_corner):
    """Two 2x2 summands of a (1, 4, 4) tensor: all ones, and all ones but
    for its corner entry.  Their p = 0 flattenings have ranks 1 and 2 when
    the corner differs from 1."""
    entries = [(0, j, k, 1) for j in (0, 1) for k in (0, 1)]
    entries += [(0, j, k, second_corner if (j, k) == (3, 3) else 1)
                for j in (2, 3) for k in (2, 3)]
    return Tensor3((1, 4, 4), entries, Q)


@pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
def test_near_copy_with_one_changed_value_is_not_merged(strategy):
    t = near_copies(2)
    summands = direct_summands(t)
    assert [count for _, count in summands] == [1, 1]
    fr = flattening_rank(t, 0, strategy)
    assert (fr.summands, fr.classes) == (2, 2)
    assert fr.rank == full_rank(t, 0, strategy) == 3


def test_exact_copies_merge_across_interleaved_indices():
    # Copy one uses second/third indices {0, 2}, copy two {1, 3}.
    entries = [(i, j + s, k + s, v) for s in (0, 1)
               for i, j, k, v in ((0, 0, 0, 3), (1, 0, 2, -1), (1, 2, 2, Fraction(1, 2)))]
    t = Tensor3((2, 4, 4), entries, Q)
    [(rep, count)] = direct_summands(t)
    assert count == 2
    assert rep == Tensor3((2, 2, 2), [(0, 0, 0, 3), (1, 0, 1, -1), (1, 1, 1, Fraction(1, 2))], Q)
    assert flattening_rank(t, 0).rank == full_rank(t, 0, ExactQ())


def test_unused_second_and_third_indices():
    # One component that misses second index 1 and third indices 0 and 2.
    t = Tensor3((3, 3, 3), [(0, 0, 1, 1), (2, 2, 1, 3)], Q)
    [(rep, count)] = direct_summands(t)
    assert (rep.dims, rep.nnz, count) == ((3, 2, 1), 2, 1)
    for p in (0, 1):
        fr = flattening_rank(t, p)
        whole = koszul_flattening(t, p).matrix
        assert (fr.rows, fr.cols, fr.rank) == (whole.rows, whole.cols,
                                               full_rank(t, p, ExactQ()))


def test_tensor_that_does_not_split_is_returned_itself():
    dense = Tensor3((2, 2, 2), [(i, j, k, 1 + i + j + k) for i in (0, 1)
                                for j in (0, 1) for k in (0, 1)], Q)
    [(rep, count)] = direct_summands(dense)
    assert rep is dense and count == 1
    zero = Tensor3((2, 3, 2), [], Q)
    [(rep, count)] = direct_summands(zero)
    assert rep is zero and count == 1


def test_zero_tensor_bound_is_zero():
    cert = bound_koszul(Tensor3((3, 2, 2), [], Q), 1)
    assert (cert.rows, cert.cols, cert.rank, cert.bound) == (6, 6, 0, 0)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n", encoding="ascii")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_zero_tensor_bound_zero(tmp_path, capsys):
    path = write(tmp_path, "zero.json", {"field": "Q", "dims": [3, 2, 2], "entries": []})
    code, out, err = run(capsys, "bound", "--method", "koszul", "--p", "1", "--tensor", path)
    assert (code, err) == (0, "")
    assert json.loads(out)["bound"] == 0


@pytest.mark.parametrize("kind", ["split", "zero"])
def test_cli_fp7_tensor_with_fp5_flag_exit_2(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.json"
    if kind == "split":
        save_tensor(matmul_tensor(2, 2, 2, FieldTag.prime_field(7)), path)
    else:
        path.write_text('{"field": "Fp:7", "dims": [2, 2, 2], "entries": []}\n')
    code, out, err = run(capsys, "bound", "--method", "koszul", "--p", "0",
                         "--tensor", str(path), "--field", "fp:5")
    assert code == 2 and not out
    assert err.startswith("error:")


def test_cli_rational_tensor_under_multiprime_exit_3(tmp_path, capsys):
    half = Fraction(1, 2)
    path = tmp_path / "rat.json"
    save_tensor(Tensor3((2, 2, 2), [(0, 0, 0, half), (1, 1, 1, half)], Q), path)
    code, out, err = run(capsys, "bound", "--method", "koszul", "--p", "0",
                         "--tensor", str(path), "--field", "multiprime")
    assert code == 3 and not out
    assert err.startswith("error:")


def test_verbose_shows_the_summand_split(capsys):
    code, out, err = run(capsys, "bound", "--method", "koszul-restricted",
                         "--m", "3", "--n", "3", "--l", "3", "--verbose")
    assert code == 0
    assert err.splitlines()[-1] == "summands: 3 in 1 class"
    code, out_quiet, err_quiet = run(capsys, "bound", "--method", "koszul-restricted",
                                     "--m", "3", "--n", "3", "--l", "3")
    assert err_quiet == ""
    assert json.loads(out).keys() == json.loads(out_quiet).keys()


def test_kernel_dim_rank_goes_through_the_summands(capsys):
    code, out, err = run(capsys, "kernel-dim", "--m", "2", "--n", "2", "--p", "1",
                         "--l", "3", "--check", "rank", "--verbose")
    assert code == 0
    whole = koszul_flattening(matmul_tensor(2, 2, 3), 1).matrix
    assert err.splitlines() == [f"flattening {whole.rows}x{whole.cols}, nnz={whole.nnz}",
                                "summands: 3 in 1 class"]
    doc = json.loads(out)
    assert doc["source_dim"] == whole.cols
    assert doc["rank"] == full_rank(matmul_tensor(2, 2, 3), 1, MultiPrime()) and doc["agree"]

"""Command-line interface: flags, exit codes, JSON output, round trips."""

import json
import time

import pytest

import brlab.cli as cli
from brlab.bounds import bound_classical, bound_koszul
from brlab.rank_engine import ExactQ, MultiPrime
from brlab.tensor import load_tensor, matmul_tensor


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tensor_matmul_writes_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, out, _ = run(capsys, "tensor", "matmul", "--m", "2", "--n", "2",
                       "--l", "2", "--out", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["dims"] == [4, 4, 4]
    assert summary["nnz"] == 8
    t = load_tensor(path)
    assert t == matmul_tensor(2, 2, 2)


def test_tensor_matmul_stdout_default(capsys):
    code, out, _ = run(capsys, "tensor", "matmul", "--m", "1", "--n", "1", "--l", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [1, 1, 1]
    assert doc["entries"] == [[0, 0, 0, "1"]]


def test_tensor_restrict_dims(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out, _ = run(capsys, "tensor", "restrict", "--m", "3", "--n", "3",
                       "--l", "1", "--out", str(path))
    assert code == 0
    assert json.loads(out)["dims"] == [5, 3, 3]


def test_tensor_rank_one(capsys):
    code, out, _ = run(capsys, "tensor", "rank-one", "--u", "1,1", "--v", "1,0",
                       "--w", "0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 2, 2]
    assert doc["entries"] == [[0, 0, 1, "1"], [1, 0, 1, "1"]]


def test_tensor_rank_one_fraction_values(capsys):
    code, out, _ = run(capsys, "tensor", "rank-one", "--u", "1/2", "--v", "2",
                       "--w", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"][0][3] == "1"


def test_tensor_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tensor", "matmul", "--m", "0", "--n", "1", "--l", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bound_koszul_cli(capsys):
    code, out, _ = run(capsys, "bound", "--method", "koszul", "--p", "4",
                       "--m", "3", "--n", "3", "--l", "3", "--field", "q")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 14
    assert doc["rank"] == 918
    assert doc["field"] == "Q"
    assert doc["soundness"] == "exact-Q"


def test_bound_restricted_cli(capsys):
    code, out, _ = run(capsys, "bound", "--method", "koszul-restricted",
                       "--m", "3", "--n", "3", "--l", "3")
    assert code == 0
    assert json.loads(out)["bound"] == 15


def test_bound_lickteig_cli(capsys):
    code, out, _ = run(capsys, "bound", "--method", "lickteig-square", "--n", "3")
    assert code == 0
    assert json.loads(out)["bound"] == 14


def test_bound_theorem1_formula_cli(capsys):
    code, out, _ = run(capsys, "bound", "--method", "theorem1-formula",
                       "--m", "3", "--n", "3", "--l", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 15
    assert doc["soundness"] == "closed-form"


def test_bound_missing_inputs_exit_2(capsys):
    code, _, err = run(capsys, "bound", "--method", "koszul", "--m", "2",
                       "--n", "2", "--l", "2")
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "bound", "--method", "classical")
    assert code == 2
    code, _, err = run(capsys, "bound", "--method", "lickteig-square")
    assert code == 2
    code, out, err = run(capsys, "bound", "--method", "koszul", "--p", "1")
    assert (code, out) == (2, "")
    assert err == "error: method koszul needs --p --tensor or --p --m --n --l\n"
    code, out, err = run(capsys, "bound", "--method", "theorem1-formula", "--m", "2")
    assert (code, out) == (2, "")
    assert err == "error: method theorem1-formula needs --m --n --l\n"


_DIMS_333 = ["--m", "3", "--n", "3", "--l", "3"]
_UNREAD_FLAG_CASES = [
    pytest.param(method, [*_DIMS_333, flag, value], f"does not read {flag}",
                 id=f"{method}-{flag}")
    for flag, value, methods in [
        ("--p", "5", ("classical", "strassen", "koszul-restricted", "theorem1-formula",
                      "lickteig-square")),
        ("--tensor", "{tensor}", ("koszul-restricted", "theorem1-formula", "lickteig-square"))]
    for method in methods] + [
    pytest.param("lickteig-square", ["--m", "5", "--n", "3", "--l", "7"], "does not read --m",
                 id="lickteig-square-dims"),
    pytest.param("classical", ["--tensor", "{tensor}", "--m", "2", "--n", "2", "--l", "2"],
                 "reads --tensor or --m --n --l, not both", id="classical-tensor-and-dims"),
    pytest.param("theorem1-formula", ["--m", "2", "--n", "2", "--l", "2", "--field", "fp:4"],
                 "does not read --field", id="theorem1-formula---field-fp4"),
    pytest.param("theorem1-formula", [*_DIMS_333, "--field", "q"], "does not read --field",
                 id="theorem1-formula---field"),
    pytest.param("lickteig-square", ["--n", "3", "--field", "multiprime"],
                 "does not read --field", id="lickteig-square---field"),
]


@pytest.mark.parametrize("method,argv,refusal", _UNREAD_FLAG_CASES)
def test_bound_flag_its_method_does_not_read_exit_2(capsys, tmp_path, method, argv, refusal):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"field": "Q", "dims": [1, 1, 1], "entries": [[0, 0, 0, "1"]]}))
    code, out, err = run(capsys, "bound", "--method", method,
                         *[arg.format(tensor=path) for arg in argv])
    assert (code, out) == (2, "")
    assert err == f"error: method {method} {refusal}\n"


def test_bound_strassen_cli(capsys):
    code, out, _ = run(capsys, "bound", "--method", "strassen",
                       "--m", "2", "--n", "2", "--l", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "strassen"
    assert doc["bound"] == 6
    assert doc["p"] == 1


def test_bound_fp_default_prime(capsys):
    code, out, _ = run(capsys, "bound", "--method", "classical", "--m", "2",
                       "--n", "2", "--l", "1", "--field", "fp")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"].startswith("Fp:")
    assert doc["bound"] == 4


def test_bound_single_prime_field(capsys):
    code, out, _ = run(capsys, "bound", "--method", "koszul", "--p", "4",
                       "--m", "3", "--n", "3", "--l", "1", "--field", "fp:65521")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 306
    assert doc["field"] == "Fp:65521"
    assert doc["soundness"] == "mod-p-lower-bound"


def test_multiprime_label_needs_every_class_settled(capsys):
    # One class of the written orbits of the (3,3,3) p = 4 flattening stays
    # short of full rank mod every prime, so the rank is only a lower bound
    # on the Q-rank.
    code, out, _ = run(capsys, "bound", "--method", "koszul", "--p", "4", "--m", "3", "--n", "3",
                       "--l", "3", "--field", "multiprime")
    assert code == 0
    doc = json.loads(out)
    assert (doc["rank"], doc["soundness"]) == (918, "mod-p-lower-bound")
    assert bound_koszul(matmul_tensor(3, 3, 3), 4, MultiPrime()).flattening.ranked.unsettled == 1


def test_bound_bad_prime_exit_3(capsys):
    code, _, err = run(capsys, "bound", "--method", "koszul", "--p", "1",
                       "--m", "2", "--n", "2", "--l", "2", "--field", "fp:6")
    assert code == 3


def test_bound_denominator_hits_prime_exit_3(tmp_path, capsys):
    from brlab.scalars import FieldTag
    from brlab.tensor import Tensor3, save_tensor
    from fractions import Fraction
    t = Tensor3((2, 2, 2), [(0, 0, 0, Fraction(1, 5))], FieldTag.rationals())
    path = tmp_path / "frac.json"
    save_tensor(t, path)
    code, _, err = run(capsys, "bound", "--method", "classical",
                       "--tensor", str(path), "--field", "fp:5")
    assert code == 3


def test_bound_prime_field_tensor_file(tmp_path, capsys):
    path = tmp_path / "fp.json"
    run(capsys, "tensor", "matmul", "--m", "2", "--n", "2", "--l", "2",
        "--field", "fp:65521", "--out", str(path))
    code, out, _ = run(capsys, "bound", "--method", "classical",
                       "--tensor", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 4
    assert doc["field"] == "Fp:65521"


def test_bound_field_tensor_mismatch_exit_2(tmp_path, capsys):
    path = tmp_path / "fp.json"
    run(capsys, "tensor", "matmul", "--m", "2", "--n", "2", "--l", "2",
        "--field", "fp:65521", "--out", str(path))
    code, _, err = run(capsys, "bound", "--method", "classical",
                       "--tensor", str(path), "--field", "q")
    assert code == 2


def test_bound_round_trip_matches_in_memory(tmp_path, capsys):
    path = tmp_path / "t.json"
    run(capsys, "tensor", "matmul", "--m", "3", "--n", "3", "--l", "1",
        "--out", str(path))
    code, out, _ = run(capsys, "bound", "--method", "koszul", "--p", "4",
                       "--tensor", str(path), "--field", "q")
    assert code == 0
    doc = json.loads(out)
    cert = bound_koszul(matmul_tensor(3, 3, 1), 4, ExactQ())
    assert doc["rank"] == cert.rank
    assert doc["bound"] == cert.bound
    assert doc["quotient"] == f"{cert.quotient.numerator}/{cert.quotient.denominator}"


def test_kernel_dim_cli(capsys):
    code, out, _ = run(capsys, "kernel-dim", "--m", "3", "--n", "3", "--p", "4",
                       "--check", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["pieri"] == 72 and doc["formula"] == 72 and doc["agree"]
    assert doc["validated_range"]


def test_kernel_dim_rank_check(capsys):
    code, out, _ = run(capsys, "kernel-dim", "--m", "3", "--n", "3", "--p", "4",
                       "--check", "rank")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank_based"] == 72
    assert doc["source_dim"] == 378
    assert doc["rank"] == 306


def test_kernel_dim_small_case(capsys):
    code, out, _ = run(capsys, "kernel-dim", "--m", "2", "--n", "2", "--p", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["pieri"] == 0 and doc["formula"] == 0


def test_kernel_dim_disagreement_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "kernel_dim_formula", lambda m, n, p, l: 999)
    code, out, _ = run(capsys, "kernel-dim", "--m", "3", "--n", "3", "--p", "4")
    assert code == 4
    assert not json.loads(out)["agree"]


def test_table_cli(capsys):
    code, out, _ = run(capsys, "table", "--n-min", "2", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "theorem1" in lines[0]
    assert " 6" in lines[1] and " 15" in lines[2]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--n-min", "2", "--n-max", "3", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["theorem1"] for r in rows] == [6, 15]


def test_table_n1_has_no_strassen_era_bound(capsys):
    # ceil(3n^2/2) holds for n >= 2 only; the 1x1x1 tensor has border rank 1.
    code, out, _ = run(capsys, "table", "--n-min", "1", "--n-max", "1", "--json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["strassen_era"] is None
    assert row["classical"] == row["lickteig"] == row["theorem1"] == row["computed"] == 1
    code, out, _ = run(capsys, "table", "--n-min", "1", "--n-max", "2")
    assert code == 0
    header, n1, n2 = (line.split() for line in out.strip().splitlines())
    col = header.index("strassen-era")
    assert (n1[col], n2[col]) == ("-", "6")


def test_table_reversed_range_exit_2(capsys):
    code, _, err = run(capsys, "table", "--n-min", "3", "--n-max", "2")
    assert code == 2


def test_multiprime_label_names_every_prime():
    doc = bound_classical(matmul_tensor(2, 2, 2), MultiPrime((101, 103))).to_json()
    assert doc["field"] == "multiprime:101,103"
    assert doc["bound"] == 4


@pytest.mark.parametrize("env", ["6", "", "101,x", "garbage"])
@pytest.mark.parametrize("field", ["multiprime", "fp"])
def test_certification_primes_ignore_the_environment(capsys, monkeypatch, env, field):
    # The primes follow from the command line alone: BRLAB_PRIMES, which
    # once overrode them, is read by nothing.
    monkeypatch.setenv("BRLAB_PRIMES", env)
    code, out, err = run(capsys, "bound", "--method", "classical", "--m", "2",
                         "--n", "2", "--l", "2", "--field", field)
    assert (code, err) == (0, "")
    label = {"multiprime": "multiprime:1073741789,1073741783,1073741741",
             "fp": "Fp:1073741789"}[field]
    doc = json.loads(out)
    assert (doc["field"], doc["bound"]) == (label, 4)


def test_determinism_same_flags(capsys):
    args = ["bound", "--method", "koszul-restricted", "--m", "3", "--n", "2", "--l", "2"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timings_ms"), doc2.pop("timings_ms")
    assert code1 == code2 == 0 and doc1 == doc2


@pytest.mark.parametrize("content", [
    b'{"field": "Q", "dims": [2, 2, 2], "entries": [["x", 0, 0, "1"]]}',
    b'{"field": "Q", "dims": [2, 2, 2], "entries": [7]}',
    b'{"field": "Q", "dims": [2, 2, 2], "entries": [[0, 0, 0, "\xc3\xa9"]]}',
    b'{"field": 5, "dims": [2, 2, 2], "entries": []}',
], ids=["non-integer-index", "non-list-entry", "non-ascii-byte", "non-string-field"])
def test_bound_malformed_tensor_file_exit_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "bound", "--method", "classical", "--tensor", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_bound_large_rational_tensor_takes_exact_q(tmp_path, capsys):
    # 5940 x 2640 flattening whose entries are not integers: only exact Q,
    # the default for a tensor over Q, can rank it.
    from fractions import Fraction
    import random
    from brlab.scalars import FieldTag
    from brlab.tensor import Tensor3, save_tensor
    rng = random.Random(12)
    cells = sorted(rng.sample(range(12 ** 3), 35))
    entries = [(x // 144, x // 12 % 12, x % 12, Fraction(rng.choice((-7, 5, 8)), 3))
               for x in cells]
    path = tmp_path / "sparse-rat.json"
    save_tensor(Tensor3((12, 12, 12), entries, FieldTag.rationals()), path)
    code, out, _ = run(capsys, "bound", "--method", "koszul", "--p", "3",
                       "--tensor", str(path))
    assert code == 0
    doc = json.loads(out)
    assert (doc["rows"], doc["cols"]) == (5940, 2640)
    assert doc["field"] == "Q" and doc["soundness"] == "exact-Q"


def _exit_code(capsys, *argv):
    """cli.main's exit code, counting argparse's SystemExit as its code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


_FIELD_COMMANDS = {
    "bound": ["bound", "--method", "koszul", "--p", "1", "--m", "2", "--n", "2", "--l", "2"],
    "tensor": ["tensor", "matmul", "--m", "2", "--n", "2", "--l", "2"],
}


@pytest.mark.parametrize("command", sorted(_FIELD_COMMANDS))
@pytest.mark.parametrize("flag,expected", [
    ("r", 2), ("fp:abc", 2), ("fp:", 2), ("fp:6", 3), ("fp:65521", 0), ("q", 0),
    ("fp:6_5521", 2), ("fp:+7", 2), ("fp: 7", 2), ("fp:\u0663", 2)])
def test_field_flag_exit_codes(capsys, command, flag, expected):
    code, _, err = _exit_code(capsys, *_FIELD_COMMANDS[command], "--field", flag)
    assert code == expected
    if expected:
        assert "error:" in err


# Every integer flag, with "{}" where its value goes.
_INT_FLAGS = {
    "--m": ["tensor", "matmul", "--m", "{}", "--n", "1", "--l", "1"],
    "--n": ["tensor", "restrict", "--m", "2", "--n", "{}"],
    "--l": ["kernel-dim", "--m", "2", "--n", "2", "--p", "1", "--l", "{}"],
    "--p": ["bound", "--method", "koszul", "--p", "{}", "--m", "2", "--n", "2", "--l", "1"],
    "--n-min": ["table", "--n-min", "{}", "--n-max", "3"],
    "--n-max": ["table", "--n-min", "1", "--n-max", "{}"],
}


@pytest.mark.parametrize("flag", sorted(_INT_FLAGS))
@pytest.mark.parametrize("value", [
    "2", "0", "1_0", "\u0662", " 1", "1 ", "+3", "-1", "2.0", "0x2", ""])
def test_integer_flags_take_ascii_digits_only(capsys, flag, value):
    # The rule for numbers in files: ASCII decimal digits and nothing else,
    # with 0 allowed only for the wedge power.
    argv = [value if arg == "{}" else arg for arg in _INT_FLAGS[flag]]
    code, _, err = _exit_code(capsys, *argv)
    accepted = value == "2" or (value == "0" and flag == "--p")
    assert code == (0 if accepted else 2), err


def test_bound_exponent_literal_exit_2_promptly(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text('{"field": "Q", "dims": [2, 2, 2], "entries": [[0, 0, 0, "1e3000000"]]}')
    start = time.perf_counter()
    code, _, err = run(capsys, "bound", "--method", "koszul", "--p", "0",
                       "--tensor", str(path))
    assert code == 2 and err.startswith("error:")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("method", [["koszul", "--p", "0"], ["classical"]])
def test_bound_huge_declared_dimension(tmp_path, capsys, method):
    path = tmp_path / "huge.json"
    path.write_text('{"field": "Q", "dims": [1, 1, 1000000000000000000000000000000], '
                    '"entries": [[0, 0, 0, "1"]]}')
    code, out, err = run(capsys, "bound", "--method", *method, "--tensor", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["rank"] == 1


@pytest.mark.parametrize("method", [["koszul", "--p", "0"], ["classical"]])
@pytest.mark.parametrize("a", [400000, 10**30])
def test_bound_huge_first_dimension_one_entry(tmp_path, capsys, method, a):
    # The insertion tables follow the first-factor indices in use, not a.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": "Q", "dims": [a, 1, 1],
                                "entries": [[a - 1, 0, 0, "1"]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", "--method", *method, "--tensor", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["rank"] == 1
    assert time.perf_counter() - start < 5.0


def test_verbose_counts_exact_q_classes(tmp_path, capsys):
    argv = ["bound", "--method", "koszul", "--p", "4", "--m", "3", "--n", "3", "--l", "3"]
    code, out, err = run(capsys, *argv, "--field", "q", "--verbose")
    assert code == 0
    # Five of the 9 written spaces peel to nothing; the other 4 leave 3
    # blocks with no single-entry column, each settled mod 2: the 12x12 one
    # is short, and the lift finds its rank.  The 3 equal summands are
    # written once.
    assert err.splitlines()[1:] == ["exact-Q: 11 peeled, 3 blocks, 3 settled mod 2, 0 mod p, "
                                    "0 fell back",
                                    "orbits: 9 of 126 weights written, nnz 60 of 1890",
                                    "summands: 3 in 1 class"]
    # Telemetry only: the certificate is that of a quiet run.
    code, quiet, _ = run(capsys, *argv, "--field", "q")
    drop = lambda doc: {k: v for k, v in json.loads(doc).items() if k != "timings_ms"}
    assert drop(out) == drop(quiet)
    # No exact-Q line when no exact-Q rank ran.
    code, _, err = run(capsys, *argv, "--field", "fp", "--verbose")
    assert code == 0 and "exact-Q:" not in err
    # A dense tensor whose one block has full rank over Q but not mod 2 is
    # settled by the 2-adic lift of the F_2 pass.
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"field": "Q", "dims": [3, 3, 3], "entries": [
        [i, j, k, f"{1 + (i * 9 + j * 3 + k) % 7}/{2 + k}"]
        for i in range(3) for j in range(3) for k in range(3)]}))
    code, _, err = run(capsys, "bound", "--method", "koszul", "--p", "1",
                       "--tensor", str(path), "--verbose")
    assert code == 0
    assert "exact-Q: 0 peeled, 1 block, 1 settled mod 2, 0 mod p, 0 fell back" in err.splitlines()
    # Each class of block, summed over the three classical flattenings of
    # three 2x2 slices: det 2^40 (past the lift's budget, settled mod p),
    # det 2^40 P (past the budget and short mod P, so it falls back) and
    # det -2 (settled mod 2 by the lift).
    p = 2 ** 30 - 35
    slices = ([(i, j, 0, v) for i, j, v in ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1 + 2 ** 40))]
              + [(2, j, k, v) for j, k, v in ((2, 1, 1), (2, 2, 1), (3, 1, 1),
                                              (3, 2, 1 + p * 2 ** 40))]
              + [(i, j, 3, v) for i, j, v in ((3, 4, 1), (3, 5, 1), (4, 4, 1), (4, 5, -1))])
    path.write_text(json.dumps({"field": "Q", "dims": [5, 6, 4], "entries": [
        [i, j, k, str(v)] for i, j, k, v in slices]}))
    code, out, err = run(capsys, "bound", "--method", "classical", "--tensor", str(path),
                         "--verbose")
    assert (code, json.loads(out)["rank"]) == (0, 6)
    assert "exact-Q: 0 peeled, 9 blocks, 5 settled mod 2, 2 mod p, 2 fell back" in err.splitlines()


@pytest.mark.parametrize("field,value,expected", [
    ("Fp:7_0", "1", 2), ("R", "1", 2), ("Fp:", "1", 2), ("Fp:6", "1", 3),
    ("Fp:7", "1_002", 2), ("Fp:7", " 5", 2), ("Fp:7", "-6", 0)])
def test_tensor_file_field_rule_exit_codes(tmp_path, capsys, field, value, expected):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"field": field, "dims": [2, 2, 2],
                                "entries": [[0, 0, 0, value], [1, 1, 1, "1"]]}))
    code, out, err = run(capsys, "bound", "--method", "classical", "--tensor", str(path))
    assert code == expected
    if expected:
        assert err.startswith("error:") and not out
    else:
        assert json.loads(out)["field"] == field


@pytest.mark.parametrize("argv", [
    ["bound", "--method", "koszul", "--p", "2", "--m", "2", "--n", "2", "--l", "1"],
    # Three equal graded summands, one flattened.
    ["bound", "--method", "koszul", "--p", "2", "--m", "2", "--n", "2", "--l", "3"],
    # Three summands that no grading splits, each flattened whole, so that
    # koszul_flattening checks p as well as flattening_rank.
    ["bound", "--method", "koszul", "--p", "2", "--tensor", "ungraded"],
    ["kernel-dim", "--m", "2", "--n", "2", "--p", "2", "--l", "1", "--check", "rank"],
], ids=["bound", "bound-3-summands", "bound-ungraded", "kernel-dim"])
def test_range_warning_is_one_note_line(capsys, tmp_path, argv):
    if "ungraded" in argv:
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"field": "Q", "dims": [4, 3, 3], "entries": [
            [0, 0, 0, "1"], [1, 1, 1, "2"], [2, 2, 2, "3"]]}))
        argv = [str(path) if x == "ungraded" else x for x in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ("note: p=2 exceeds ceil(a/2)-1=1; "
                   "the bound is still valid but duplicates a smaller power\n")
    doc = json.loads(out)
    if argv[0] == "bound":
        assert doc["flags"] == ["outside-recommended-p-range"]
    else:
        assert doc["agree"] and doc["rank"] == 8

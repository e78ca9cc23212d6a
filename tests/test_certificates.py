"""Golden certificates: the canonical CLI output of a fixed job list.

Every key a job prints is pinned, in order, except `timings_ms`, which is
wall-clock telemetry.  The jobs cover every `bound` method, a rational Q
tensor file, an F_p tensor file and a seeded dense integer tensor file, each
`--field` form, the three `tensor` kinds, `kernel-dim --check rank` and
`table` as JSON and as text.  A change that keeps certificates
byte-identical keeps this file passing unedited.
"""

import json
import random

import pytest

import brlab.cli as cli

Q_DOC = {"field": "Q", "dims": [3, 2, 2], "entries": [
    [0, 0, 0, "1/2"], [0, 1, 1, "-3"], [1, 0, 1, "2/3"], [1, 1, 0, "5"],
    [2, 0, 0, "7/4"], [2, 1, 1, "1"]]}
FP_DOC = {"field": "Fp:7", "dims": [3, 3, 2], "entries": [
    [0, 0, 0, "3"], [0, 2, 1, "6"], [1, 1, 0, "2"], [1, 2, 1, "5"],
    [2, 0, 1, "4"], [2, 1, 1, "1"]]}
# A seeded dense integer 6 x 6 x 6 tensor: its p = 2 flattening is one
# 120 x 90 block, which auto selection ranks over exact Q.
_RNG = random.Random(6)
DENSE_DOC = {"field": "Q", "dims": [6, 6, 6], "entries": [
    [i, j, k, str(_RNG.choice([v for v in range(-9, 10) if v]))]
    for i in range(6) for j in range(6) for k in range(6)]}

# (job id, exit code, argv with {q}/{fp}/{dense} standing for the tensor files,
#  expected output: a JSON object without timings_ms, a JSON list, or the
#  lines of a text table)
GOLDEN = [
    ('classical-matmul-222', 0,
     ['bound', '--method', 'classical', '--m', '2', '--n', '2', '--l', '2'],
     {'method': 'classical', 'm': 2, 'n': 2, 'l': 2, 'p': None, 'rows': 16, 'cols': 4,
     'rank': 4, 'divisor': 1, 'quotient': '4/1', 'bound': 4, 'field': 'Q', 'soundness':
     'exact-Q'}),
    ('strassen-matmul-222', 0,
     ['bound', '--method', 'strassen', '--m', '2', '--n', '2', '--l', '2'],
     {'method': 'strassen', 'm': 2, 'n': 2, 'l': 2, 'p': 1, 'rows': 24, 'cols': 16, 'rank':
     16, 'divisor': 3, 'quotient': '16/3', 'bound': 6, 'field': 'Q', 'soundness':
     'exact-Q'}),
    ('koszul-matmul-321-p2', 0,
     ['bound', '--method', 'koszul', '--p', '2', '--m', '3', '--n', '2', '--l', '1'],
     {'method': 'koszul', 'm': 3, 'n': 2, 'l': 1, 'p': 2, 'rows': 60, 'cols': 30, 'rank':
     30, 'divisor': 10, 'quotient': '3/1', 'bound': 3, 'field': 'Q', 'soundness':
     'exact-Q'}),
    ('koszul-out-of-range-221-p2', 0,
     ['bound', '--method', 'koszul', '--p', '2', '--m', '2', '--n', '2', '--l', '1'],
     {'method': 'koszul', 'm': 2, 'n': 2, 'l': 1, 'p': 2, 'rows': 8, 'cols': 12, 'rank': 8,
     'divisor': 3, 'quotient': '8/3', 'bound': 3, 'field': 'Q', 'soundness': 'exact-Q',
     'flags': ['outside-recommended-p-range']}),
    ('restricted-333', 0,
     ['bound', '--method', 'koszul-restricted', '--m', '3', '--n', '3', '--l', '3'],
     {'method': 'koszul-restricted', 'm': 3, 'n': 3, 'l': 3, 'p': 2, 'rows': 90, 'cols': 90,
     'rank': 90, 'divisor': 6, 'quotient': '15/1', 'bound': 15, 'field': 'Q', 'soundness':
     'exact-Q'}),
    ('restricted-432-field-q', 0,
     ['bound', '--method', 'koszul-restricted', '--m', '4', '--n', '3', '--l', '2',
     '--field', 'q'],
     {'method': 'koszul-restricted', 'm': 4, 'n': 3, 'l': 2, 'p': 2, 'rows': 160, 'cols':
     90, 'rank': 90, 'divisor': 10, 'quotient': '9/1', 'bound': 9, 'field': 'Q',
     'soundness': 'exact-Q'}),
    ('restricted-332-field-fp', 0,
     ['bound', '--method', 'koszul-restricted', '--m', '3', '--n', '3', '--l', '2',
     '--field', 'fp'],
     {'method': 'koszul-restricted', 'm': 3, 'n': 3, 'l': 2, 'p': 2, 'rows': 60, 'cols': 60,
     'rank': 60, 'divisor': 6, 'quotient': '10/1', 'bound': 10, 'field':
     'Fp:1073741789', 'soundness': 'exact-Q'}),
    ('restricted-221-field-fp-5', 0,
     ['bound', '--method', 'koszul-restricted', '--m', '2', '--n', '2', '--l', '1',
     '--field', 'fp:5'],
     {'method': 'koszul-restricted', 'm': 2, 'n': 2, 'l': 1, 'p': 1, 'rows': 6, 'cols': 6,
     'rank': 6, 'divisor': 2, 'quotient': '3/1', 'bound': 3, 'field': 'Fp:5', 'soundness':
     'exact-Q'}),
    # The whole flattening is 3150 x 3150, five copies of one 630 x 630
    # summand; the default ranks it over exact Q at every size.
    ('restricted-555', 0,
     ['bound', '--method', 'koszul-restricted', '--m', '5', '--n', '5', '--l', '5'],
     {'method': 'koszul-restricted', 'm': 5, 'n': 5, 'l': 5, 'p': 4, 'rows': 3150, 'cols':
     3150, 'rank': 3150, 'divisor': 70, 'quotient': '45/1', 'bound': 45, 'field': 'Q',
     'soundness': 'exact-Q'}),
    ('classical-232-multiprime', 0,
     ['bound', '--method', 'classical', '--m', '2', '--n', '3', '--l', '2', '--field',
     'multiprime'],
     {'method': 'classical', 'm': 2, 'n': 3, 'l': 2, 'p': None, 'rows': 24, 'cols': 6,
     'rank': 6, 'divisor': 1, 'quotient': '6/1', 'bound': 6, 'field':
     'multiprime:1073741789,1073741783,1073741741', 'soundness': 'exact-Q'}),
    ('theorem1-formula-432', 0,
     ['bound', '--method', 'theorem1-formula', '--m', '4', '--n', '3', '--l', '2'],
     {'method': 'theorem1-formula', 'm': 4, 'n': 3, 'l': 2, 'p': None, 'rows': None, 'cols':
     None, 'rank': None, 'divisor': None, 'quotient': '9/1', 'bound': 9, 'field': 'none',
     'soundness': 'closed-form'}),
    ('lickteig-square-5', 0,
     ['bound', '--method', 'lickteig-square', '--n', '5'],
     {'method': 'lickteig-square', 'm': 5, 'n': 5, 'l': 5, 'p': None, 'rows': None, 'cols':
     None, 'rank': None, 'divisor': None, 'quotient': '39/1', 'bound': 39, 'field': 'none',
     'soundness': 'closed-form'}),
    ('classical-q-file', 0,
     ['bound', '--method', 'classical', '--tensor', '{q}'],
     {'method': 'classical', 'm': None, 'n': None, 'l': None, 'p': None, 'rows': 4, 'cols':
     3, 'rank': 3, 'divisor': 1, 'quotient': '3/1', 'bound': 3, 'field': 'Q', 'soundness':
     'exact-Q', 'tensor_sha256':
     'fe2becdbdd7a944c1f42ad422bec74df9348e42478edc450d47655c07d3ab1be'}),
    ('strassen-q-file', 0,
     ['bound', '--method', 'strassen', '--tensor', '{q}'],
     {'method': 'strassen', 'm': None, 'n': None, 'l': None, 'p': 1, 'rows': 6, 'cols': 6,
     'rank': 6, 'divisor': 2, 'quotient': '3/1', 'bound': 3, 'field': 'Q', 'soundness':
     'exact-Q', 'tensor_sha256':
     'fe2becdbdd7a944c1f42ad422bec74df9348e42478edc450d47655c07d3ab1be'}),
    ('koszul-q-file-p0-field-q', 0,
     ['bound', '--method', 'koszul', '--p', '0', '--tensor', '{q}', '--field', 'q'],
     {'method': 'koszul', 'm': None, 'n': None, 'l': None, 'p': 0, 'rows': 6, 'cols': 2,
     'rank': 2, 'divisor': 1, 'quotient': '2/1', 'bound': 2, 'field': 'Q', 'soundness':
     'exact-Q', 'tensor_sha256':
     'fe2becdbdd7a944c1f42ad422bec74df9348e42478edc450d47655c07d3ab1be'}),
    ('classical-fp-file', 0,
     ['bound', '--method', 'classical', '--tensor', '{fp}'],
     {'method': 'classical', 'm': None, 'n': None, 'l': None, 'p': None, 'rows': 6, 'cols':
     3, 'rank': 3, 'divisor': 1, 'quotient': '3/1', 'bound': 3, 'field': 'Fp:7',
     'soundness': 'exact-Fp', 'tensor_sha256':
     '1bdceb3d60a0bdfe8e8470067b443b40e0c47e969be830ef2c33d013d19ad6b0'}),
    ('koszul-fp-file-p1', 0,
     ['bound', '--method', 'koszul', '--p', '1', '--tensor', '{fp}', '--field', 'fp:7'],
     {'method': 'strassen', 'm': None, 'n': None, 'l': None, 'p': 1, 'rows': 6, 'cols': 9,
     'rank': 6, 'divisor': 2, 'quotient': '3/1', 'bound': 3, 'field': 'Fp:7', 'soundness':
     'exact-Fp', 'tensor_sha256':
     '1bdceb3d60a0bdfe8e8470067b443b40e0c47e969be830ef2c33d013d19ad6b0'}),
    ('koszul-dense-file-p2', 0,
     ['bound', '--method', 'koszul', '--p', '2', '--tensor', '{dense}'],
     {'method': 'koszul', 'm': None, 'n': None, 'l': None, 'p': 2, 'rows': 120, 'cols': 90,
     'rank': 90, 'divisor': 10, 'quotient': '9/1', 'bound': 9, 'field': 'Q', 'soundness':
     'exact-Q', 'tensor_sha256':
     '32518acdf760ae7e62785d88ef50781ae2b57069017fdda45bd1e0a5014d43c7'}),
    ('tensor-matmul-121', 0,
     ['tensor', 'matmul', '--m', '1', '--n', '2', '--l', '1'],
     {'field': 'Q', 'dims': [2, 2, 1], 'entries': [[0, 0, 0, '1'], [1, 1, 0, '1']]}),
    ('tensor-matmul-212-fp-5', 0,
     ['tensor', 'matmul', '--m', '2', '--n', '1', '--l', '2', '--field', 'fp:5'],
     {'field': 'Fp:5', 'dims': [2, 2, 4], 'entries': [[0, 0, 0, '1'], [0, 1, 2, '1'], [1, 0,
     1, '1'], [1, 1, 3, '1']]}),
    ('tensor-restrict-222', 0,
     ['tensor', 'restrict', '--m', '2', '--n', '2', '--l', '2'],
     {'field': 'Q', 'dims': [3, 4, 4], 'entries': [[0, 0, 0, '1'], [0, 1, 2, '1'], [1, 0, 1,
     '1'], [1, 1, 3, '1'], [1, 2, 0, '1'], [1, 3, 2, '1'], [2, 2, 1, '1'], [2, 3, 3,
     '1']]}),
    ('tensor-restrict-321-fp-3', 0,
     ['tensor', 'restrict', '--m', '3', '--n', '2', '--l', '1', '--field', 'fp:3'],
     {'field': 'Fp:3', 'dims': [4, 2, 3], 'entries': [[0, 0, 0, '1'], [1, 0, 1, '1'], [1, 1,
     0, '1'], [2, 0, 2, '1'], [2, 1, 1, '1'], [3, 1, 2, '1']]}),
    ('tensor-rank-one', 0,
     ['tensor', 'rank-one', '--u', '1/2,-1', '--v', '2,0,3', '--w', '1'],
     {'field': 'Q', 'dims': [2, 3, 1], 'entries': [[0, 0, 0, '1'], [0, 2, 0, '3/2'], [1, 0,
     0, '-2'], [1, 2, 0, '-3']]}),
    ('tensor-rank-one-fp-5', 0,
     ['tensor', 'rank-one', '--u', '3,4', '--v', '2', '--w', '1,6', '--field', 'fp:5'],
     {'field': 'Fp:5', 'dims': [2, 1, 2], 'entries': [[0, 0, 0, '1'], [0, 0, 1, '1'], [1, 0,
     0, '3'], [1, 0, 1, '3']]}),
    ('kernel-dim-3314-rank', 0,
     ['kernel-dim', '--m', '3', '--n', '3', '--p', '4', '--l', '1', '--check', 'rank'],
     {'m': 3, 'n': 3, 'p': 4, 'l': 1, 'validated_range': True, 'source_dim': 378, 'rank':
     306, 'rank_field': 'Q', 'pieri': 72, 'formula': 72, 'rank_based':
     72, 'agree': True}),
    ('table-2-5-json', 0,
     ['table', '--n-min', '2', '--n-max', '5', '--json'],
     [{'n': 2, 'l': 2, 'classical': 4, 'strassen_era': 6, 'lickteig': 6, 'theorem1': 6, 'computed': 6},
      {'n': 3, 'l': 3, 'classical': 9, 'strassen_era': 14, 'lickteig': 14, 'theorem1': 15, 'computed': 15},
      {'n': 4, 'l': 4, 'classical': 16, 'strassen_era': 24, 'lickteig': 25, 'theorem1': 28, 'computed': 28},
      {'n': 5, 'l': 5, 'classical': 25, 'strassen_era': 38, 'lickteig': 39, 'theorem1': 45, 'computed': 45}]),
    ('table-2-5-text', 0,
     ['table', '--n-min', '2', '--n-max', '5'],
     ['n  l  classical  strassen-era  lickteig  theorem1  computed',
      '2  2          4             6         6         6         6',
      '3  3          9            14        14        15        15',
      '4  4         16            24        25        28        28',
      '5  5         25            38        39        45        45']),

]


@pytest.mark.parametrize("name,code,argv,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_canonical_output_is_pinned(name, code, argv, expected, tmp_path, capsys,
                                    monkeypatch):
    paths = {}
    for key, doc in (("q", Q_DOC), ("fp", FP_DOC), ("dense", DENSE_DOC)):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc) + "\n", encoding="ascii")
    assert cli.main([arg.format(**paths) for arg in argv]) == code
    out = capsys.readouterr().out
    if isinstance(expected, list) and expected and isinstance(expected[0], str):
        assert out.splitlines() == expected
        return
    doc = json.loads(out)
    if isinstance(doc, dict):
        doc.pop("timings_ms", None)
        assert list(doc.items()) == list(expected.items())
    else:
        assert [list(row.items()) for row in doc] == [list(row.items()) for row in expected]

"""Value semantics of the result and tag records, named tuples: frozen, equal
and hashed by value, built as before."""

import pickle

import pytest

from brlab.bounds import BoundCertificate, FlatteningRank, bound_classical, bound_koszul
from brlab.errors import BadPrime
from brlab.exterior import KoszulMatrix, koszul_flattening
from brlab.rank_engine import ExactQ, MultiPrime, RankResult, rank_certified
from brlab.repcomb import IsotypicSummand, cauchy_wedge
from brlab.scalars import FieldTag
from brlab.tensor import matmul_tensor


def _records():
    t = matmul_tensor(2, 2, 2)
    km = koszul_flattening(t, 1)
    cert = bound_koszul(t, 1)
    return [rank_certified(km.matrix, ExactQ()), MultiPrime((7,)), ExactQ(),
            FieldTag.prime_field(7), km, cert, cert.flattening, cauchy_wedge(2, 2, 2)[0]]


def test_the_eight_records_are_built():
    assert [type(r) for r in _records()] == [
        RankResult, MultiPrime, ExactQ, FieldTag, KoszulMatrix, BoundCertificate,
        FlatteningRank, IsotypicSummand]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_every_field_refuses_assignment(record):
    # "not_a_field" fails only if the class keeps __slots__ = (), with no __dict__.
    for name in record._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in record._fields:
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("make", [lambda: FieldTag.prime_field(7), lambda: FieldTag.rationals(),
                                  lambda: MultiPrime((7,)), ExactQ],
                         ids=["Fp7", "Q", "multiprime-7", "exact-Q"])
def test_tags_equal_and_hash_like_a_fresh_copy(make):
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert not first != second
    assert pickle.loads(pickle.dumps(first)) == first


def test_tags_differ_by_value_and_by_class():
    assert FieldTag.prime_field(7) != FieldTag.prime_field(11)
    assert FieldTag.prime_field(7) != FieldTag.rationals()
    assert MultiPrime((7,)) != MultiPrime((7, 11))
    assert MultiPrime(()) != ExactQ()
    assert len({ExactQ(), ExactQ(), MultiPrime((7,)), MultiPrime((7,))}) == 2
    assert repr(FieldTag.prime_field(7)) == "FieldTag(kind='Fp', p=7)"
    assert repr(ExactQ()) == "ExactQ()"


def test_multiprime_reads_brlab_primes_when_constructed(monkeypatch):
    monkeypatch.setenv("BRLAB_PRIMES", "7,11")
    strategy = MultiPrime()
    monkeypatch.setenv("BRLAB_PRIMES", "13")
    assert strategy.primes == (7, 11)
    assert MultiPrime().primes == (13,)
    assert MultiPrime((5,)).primes == (5,)


@pytest.mark.parametrize("kind, p, message", [
    ("Q", 7, "the rationals carry no modulus"),
    ("Fp", None, "modulus None outside [2, 2^62)"),
    ("Fp", 1, "modulus 1 outside [2, 2^62)"),
    ("Fp", 2 ** 62, f"modulus {2 ** 62} outside [2, 2^62)"),
    ("Fp", 9, "modulus 9 is not prime"),
    ("R", None, "unknown field kind 'R'"),
])
def test_field_tag_errors_are_unchanged(kind, p, message):
    with pytest.raises(BadPrime) as info:
        FieldTag(kind, p)
    assert str(info.value) == message


def test_certificate_defaults_and_replace():
    cert = BoundCertificate("m", {}, None, None, None, None, 0, 0, "none", "closed-form")
    assert (cert.p, cert.flags, cert.timings_ms, cert.flattening) == (None, (), 0.0, None)
    fr = bound_koszul(matmul_tensor(2, 2, 2), 1).flattening
    moved = fr._replace(ranked=fr.ranked._replace(rank_ms=0.0), orbits=99)
    assert (moved.orbits, moved.ranked.rank_ms, moved.rank) == (99, 0.0, fr.rank)
    assert fr.orbits != 99
    with pytest.raises(ValueError):
        fr._replace(not_a_field=1)
    with pytest.raises(TypeError):
        RankResult(1, 2, 3)


def test_bound_classical_sums_the_three_flattenings_as_before():
    fr = bound_classical(matmul_tensor(3, 3, 3)).flattening
    counts = {name: getattr(fr, name) for name in (
        "rows", "cols", "rank", "nnz", "soundness", "summands", "classes", "orbits",
        "orbit_weights")}
    counts.update({name: getattr(fr.ranked, name) for name in (
        "blocks", "unsettled", "settled_mod_2")}, nnz_written=fr.ranked.nnz)
    assert counts == {"rows": 81, "cols": 9, "rank": 9, "nnz": 81, "soundness": "exact-Q",
                      "summands": 3, "classes": 1, "blocks": 3, "unsettled": 0,
                      "settled_mod_2": 3, "orbits": 3, "orbit_weights": 9, "nnz_written": 9}
    assert fr.strategy == ExactQ()

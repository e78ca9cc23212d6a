"""Assemble exact ranks into border-rank lower-bound certificates.

A certificate records the flattening shape, the computed rank with its
provenance, the divisor C(a-1, p) for the wedge power used, the exact
rational quotient, and the integer bound (border rank is an integer, so
the ceiling is always applied and recorded alongside the raw quotient).

Soundness labels follow the rank engine: "exact-Q" certificates are tight
for the flattening at hand, "mod-p-lower-bound" certificates are sound but
possibly loose, and closed-form certificates carry no matrix at all.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .binaryforms import restricted_koszul
from .errors import InvalidDimension, OrderViolation
from .exterior import koszul_flattening, redundancy_cap
from .rank_engine import ExactQ, MultiPrime, RankResult, SparseMatrix, rank_certified
from .scalars import certification_primes
from .tensor import Tensor3, flatten_classical, tensor_to_json

SOUND_EXACT_Q = "exact-Q"
SOUND_MOD_P = "mod-p-lower-bound"
SOUND_CLOSED_FORM = "closed-form"

# Above this cell count, exact-Q elimination stops being the obvious
# default and certification of an integer matrix falls back to the sound
# multi-prime route.  A matrix with non-integer entries always takes exact
# Q, the one route that accepts it.
_AUTO_EXACT_CELLS = 4_000_000


@dataclass(frozen=True)
class BoundCertificate:
    """Auditable record tying a computed rank to a border-rank lower bound."""

    method: str
    descriptor: dict
    rows: int | None
    cols: int | None
    rank: int | None
    divisor: int | None
    quotient: Fraction
    bound: int
    field_label: str
    soundness: str
    rank_result: RankResult | None = None
    p: int | None = None
    flags: tuple[str, ...] = ()
    timings_ms: float = 0.0

    def to_json(self) -> dict:
        doc = {
            "method": self.method,
            "m": self.descriptor.get("m"),
            "n": self.descriptor.get("n"),
            "l": self.descriptor.get("l"),
            "p": self.p,
            "rows": self.rows,
            "cols": self.cols,
            "rank": self.rank,
            "divisor": self.divisor,
            "quotient": f"{self.quotient.numerator}/{self.quotient.denominator}",
            "bound": self.bound,
            "field": self.field_label,
            "soundness": self.soundness,
            "timings_ms": round(self.timings_ms, 3),
        }
        if "sha256" in self.descriptor:
            doc["tensor_sha256"] = self.descriptor["sha256"]
        if self.flags:
            doc["flags"] = list(self.flags)
        return doc


def tensor_descriptor(t: Tensor3) -> dict:
    """Content hash of the canonical JSON form, for file-based tensors."""
    blob = json.dumps(tensor_to_json(t), separators=(",", ":")).encode("ascii")
    return {"sha256": hashlib.sha256(blob).hexdigest()}


def _auto_strategy(matrix: SparseMatrix) -> MultiPrime | ExactQ:
    if not matrix.field.is_q:
        return MultiPrime((matrix.field.p,))
    if matrix.rows * matrix.cols <= _AUTO_EXACT_CELLS or not matrix.is_integral():
        return ExactQ()
    return MultiPrime()


def _field_label(strategy: MultiPrime | ExactQ) -> str:
    if isinstance(strategy, ExactQ):
        return "Q"
    primes = strategy.primes if strategy.primes is not None else certification_primes()
    if len(primes) == 1:
        return f"Fp:{primes[0]}"
    return "multiprime:" + ",".join(str(p) for p in primes)


def _soundness(strategy: MultiPrime | ExactQ) -> str:
    return SOUND_EXACT_Q if isinstance(strategy, ExactQ) else SOUND_MOD_P


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def _rank_with_timing(matrix: SparseMatrix, strategy) -> tuple[RankResult, float]:
    t0 = time.perf_counter()
    result = rank_certified(matrix, strategy)
    return result, (time.perf_counter() - t0) * 1000.0


def bound_classical(t: Tensor3, strategy: MultiPrime | ExactQ | None = None,
                    descriptor: dict | None = None) -> BoundCertificate:
    """Best of the three classical flattening ranks; divisor 1."""
    best = None
    total_ms = 0.0
    for mode in ("A", "B", "C"):
        matrix = flatten_classical(t, mode)
        strat = strategy if strategy is not None else _auto_strategy(matrix)
        result, ms = _rank_with_timing(matrix, strat)
        total_ms += ms
        if best is None or result.rank > best[1].rank:
            best = (matrix, result, strat)
    matrix, result, strat = best
    return BoundCertificate(
        method="classical",
        descriptor=descriptor if descriptor is not None else tensor_descriptor(t),
        rows=matrix.rows,
        cols=matrix.cols,
        rank=result.rank,
        divisor=1,
        quotient=Fraction(result.rank, 1),
        bound=result.rank,
        field_label=_field_label(strat),
        soundness=_soundness(strat),
        rank_result=result,
        timings_ms=total_ms,
    )


def bound_koszul(t: Tensor3, p: int, strategy: MultiPrime | ExactQ | None = None,
                 descriptor: dict | None = None) -> BoundCertificate:
    """Wedge-power bound: rank of the flattening divided by C(a-1, p).

    p = 1 is the commutator-style special case and is labeled "strassen".
    """
    a = t.dims[0]
    km = koszul_flattening(t, p)
    strat = strategy if strategy is not None else _auto_strategy(km.matrix)
    result, ms = _rank_with_timing(km.matrix, strat)
    divisor = comb(a - 1, p)
    flags = ()
    if p > redundancy_cap(a):
        flags = ("outside-recommended-p-range",)
    return BoundCertificate(
        method="strassen" if p == 1 else "koszul",
        descriptor=descriptor if descriptor is not None else tensor_descriptor(t),
        rows=km.matrix.rows,
        cols=km.matrix.cols,
        rank=result.rank,
        divisor=divisor,
        quotient=Fraction(result.rank, divisor),
        bound=_ceil_div(result.rank, divisor),
        field_label=_field_label(strat),
        soundness=_soundness(strat),
        rank_result=result,
        p=p,
        flags=flags,
        timings_ms=ms,
    )


def bound_matmul_restricted(m: int, n: int, l: int,
                            strategy: MultiPrime | ExactQ | None = None) -> BoundCertificate:
    """Bound for the (m, n, l) matrix multiplication tensor through the
    multiplication projection, at wedge power n - 1.

    When the restricted map has full column rank (it does for all n <= m)
    the bound equals ceil(nl (n+m-1) / m).
    """
    if n > m:
        raise OrderViolation(f"need n <= m, got n={n}, m={m}")
    km = restricted_koszul(m, n, l, n - 1)
    strat = strategy if strategy is not None else _auto_strategy(km.matrix)
    result, ms = _rank_with_timing(km.matrix, strat)
    divisor = comb(m + n - 2, n - 1)
    return BoundCertificate(
        method="koszul-restricted",
        descriptor={"m": m, "n": n, "l": l},
        rows=km.matrix.rows,
        cols=km.matrix.cols,
        rank=result.rank,
        divisor=divisor,
        quotient=Fraction(result.rank, divisor),
        bound=_ceil_div(result.rank, divisor),
        field_label=_field_label(strat),
        soundness=_soundness(strat),
        rank_result=result,
        p=n - 1,
        timings_ms=ms,
    )


def bound_formula_theorem1(m: int, n: int, l: int) -> int:
    """Closed form ceil(nl (n+m-1) / m) for n <= m, l >= 1."""
    if n > m:
        raise OrderViolation(f"need n <= m, got n={n}, m={m}")
    if n < 1 or l < 1:
        raise InvalidDimension(f"need n, l >= 1, got n={n}, l={l}")
    return _ceil_div(n * l * (n + m - 1), m)


def corollary_2nl(n: int, l: int) -> int:
    """Square-case specialization 2nl - l of the restricted-map bound."""
    if n < 1 or l < 1:
        raise InvalidDimension(f"need n, l >= 1, got n={n}, l={l}")
    return 2 * n * l - l


def lickteig_square(n: int) -> int:
    """Comparison bound ceil(3n^2/2 + n/2 - 1) for square multiplication."""
    if n < 1:
        raise InvalidDimension(f"need n >= 1, got {n}")
    return _ceil_div(3 * n * n + n - 2, 2)


def formula_certificate(method: str, m: int, n: int, l: int) -> BoundCertificate:
    """Certificate wrapper for the closed-form methods (no matrix computed)."""
    if method == "theorem1-formula":
        quotient = Fraction(n * l * (n + m - 1), m)
        bound = bound_formula_theorem1(m, n, l)
    elif method == "corollary-2nl":
        quotient = Fraction(2 * n * l - l, 1)
        bound = corollary_2nl(n, l)
    elif method == "lickteig-square":
        quotient = Fraction(3 * n * n + n - 2, 2)
        bound = lickteig_square(n)
    else:
        raise InvalidDimension(f"unknown closed-form method {method!r}")
    return BoundCertificate(
        method=method,
        descriptor={"m": m, "n": n, "l": l},
        rows=None,
        cols=None,
        rank=None,
        divisor=None,
        quotient=quotient,
        bound=bound,
        field_label="none",
        soundness=SOUND_CLOSED_FORM,
    )


def compare_table(n_min: int, n_max: int, l_rule: str | int = "equal_n",
                  max_rank_cols: int = 600) -> list[dict]:
    """One row per n juxtaposing the classical, commutator-era, Lickteig
    and restricted-map bounds; the last column holds a bound computed from
    an actual rank when the matrix is within the size budget."""
    if n_min > n_max:
        raise InvalidDimension(f"need n_min <= n_max, got {n_min} > {n_max}")
    if n_min < 1:
        raise InvalidDimension(f"need n_min >= 1, got {n_min}")
    rows = []
    for n in range(n_min, n_max + 1):
        l = n if l_rule == "equal_n" else int(l_rule)
        row = {
            "n": n,
            "l": l,
            "classical": max(n * n, n * l),
            "strassen_era": _ceil_div(3 * n * n, 2),
            "lickteig": lickteig_square(n) if l == n else None,
            "theorem1": bound_formula_theorem1(n, n, l),
            "computed": None,
        }
        if n * l * comb(2 * n - 1, n - 1) <= max_rank_cols:
            row["computed"] = bound_matmul_restricted(n, n, l).bound
        rows.append(row)
    return rows

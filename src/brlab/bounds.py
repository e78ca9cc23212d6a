"""Assemble exact ranks into border-rank lower-bound certificates.

A certificate records the flattening shape, the computed rank with its
provenance, the divisor C(a-1, p) for the wedge power used, the exact
rational quotient, and the integer bound (border rank is an integer, so
the ceiling is always applied and recorded alongside the raw quotient).

Soundness labels follow the rank engine: "exact-Q" certificates are tight
for the flattening at hand, and so are "exact-Fp" ones for a tensor given
over F_p, ranked over that field; "mod-p-lower-bound" certificates (a Q
tensor ranked with --field fp[:P] or multiprime) are sound but possibly
loose, and closed-form certificates carry no matrix at all.  Unless asked
otherwise, a tensor over Q is ranked over exact Q and one over F_p mod p.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .binaryforms import restrict_matmul
from .errors import InvalidDimension, OrderViolation
from .exterior import (
    WedgeRangeWarning,
    check_wedge_power,
    classical_tensor,
    koszul_flattening,
    koszul_weight_spaces,
    redundancy_cap,
)
from .rank_engine import ExactQ, MultiPrime, RankResult, rank_certified
from .tensor import Tensor3, direct_summands, mirror_grading, tensor_to_json

SOUND_EXACT_Q = "exact-Q"
SOUND_EXACT_FP = "exact-Fp"
SOUND_MOD_P = "mod-p-lower-bound"
SOUND_CLOSED_FORM = "closed-form"

# compare_table computes the restricted bound when the map has at most this
# many columns.
_TABLE_RANK_COLS = 600


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
    p: int | None = None
    flags: tuple[str, ...] = ()
    timings_ms: float = 0.0
    # Telemetry outside the canonical payload: the ranked flattening with
    # its summand split and block-class counts (None for closed forms).
    flattening: FlatteningRank | None = None

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


def _auto_strategy(t: Tensor3) -> MultiPrime | ExactQ:
    """Exact rank over the tensor's own field."""
    return ExactQ() if t.field.is_q else MultiPrime((t.field.p,))


def _field_label(strategy: MultiPrime | ExactQ) -> str:
    if isinstance(strategy, ExactQ):
        return "Q"
    primes = strategy.primes
    if len(primes) == 1:
        return f"Fp:{primes[0]}"
    return "multiprime:" + ",".join(str(p) for p in primes)


def _soundness(strategy: MultiPrime | ExactQ, res: RankResult) -> str:
    """A rank that bounds no Q-rank is that of a matrix given over F_p,
    which only its own prime can rank: it is exact over F_p."""
    if not res.certified_lower_bound_over_q:
        return SOUND_EXACT_FP
    return SOUND_EXACT_Q if isinstance(strategy, ExactQ) else SOUND_MOD_P


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


@dataclass(frozen=True)
class FlatteningRank:
    """Rank of a tensor's wedge flattening, computed summand by summand.

    rows, cols and nnz are those of the whole flattening; summands counts
    the direct summands and classes the groups of equal ones, of which only
    one representative each was flattened and ranked.  soundness is the
    certificate label the rank earns (`_soundness`).  rank_ms is the time
    of the rank passes alone, split_ms that of splitting the flattened
    weight spaces into row blocks, keying them and looking the keys up in
    the class tables, and flatten_ms the rest of the work on the
    representatives: the grading, the insertion tables, and writing and
    validating the weight spaces.  block_classes counts the classes of
    identical blocks ranked over all representatives, unsettled those that
    no prime brought to full rank (`RankResult`): under ExactQ, the ones
    fraction-free elimination ranked, and settled_mod_2 those that the
    ExactQ pass over F_2 brought to full rank.  mirror_pairs and
    mirror_fixed count the weight spaces of the representatives that were
    flattened by mirror pairs (see `koszul_weight_spaces`): pairs of which
    one space was flattened, and spaces that are their own mirror.
    nnz_written counts the entries written, each representative's as often
    as nnz counts it, out of nnz_whole, the nnz of the whole flattening
    they stand for (nnz itself, except that `bound_classical` sums both
    over its three flattenings).
    """

    rows: int
    cols: int
    rank: int
    nnz: int
    strategy: MultiPrime | ExactQ
    soundness: str
    summands: int
    classes: int
    rank_ms: float
    split_ms: float
    flatten_ms: float
    block_classes: int
    unsettled: int
    settled_mod_2: int
    mirror_pairs: int
    mirror_fixed: int
    nnz_written: int
    nnz_whole: int


def flattening_rank(t: Tensor3, p: int,
                    strategy: MultiPrime | ExactQ | None = None) -> FlatteningRank:
    """Rank of the p-th wedge flattening of t, one direct summand at a time,
    one weight space at a time, and one weight space of each mirror pair.

    The flattening of a direct sum whose summands share the first factor is
    block diagonal, one block per summand, so its rank is the sum of count *
    rank over the groups of equal summands (`direct_summands`); each group's
    representative is flattened and ranked once.  A representative that is
    symmetric under the reversal of all three factors is graded
    (`mirror_grading`), and its flattening is block diagonal over the
    weights (`koszul_weight_spaces`): each part is ranked as a stream of
    its weight spaces, so that one space is held at a time besides the
    part's class table (`rank_engine._rank_classes`), the part of the
    lower weight of each mirror pair counting twice, since the reversal
    maps it onto its mirror by a signed permutation, and the part of
    self-mirror weight once.  Any other representative is ranked as one
    weight space, its whole flattening (`koszul_flattening`).
    The strategy defaults to exact rank over t's field: ExactQ over Q, its
    prime over F_p.

    Under ExactQ the sum is the Q-rank.  Under MultiPrime it is a sum of
    per-class maxes over the primes, a sound lower bound by the argument of
    `rank_engine._rank_classes`: the parts' blocks are blocks of the whole
    flattening, and a block and its mirror have equal ranks mod every prime.
    """
    a, b, c = t.dims
    check_wedge_power(a, p)
    rows, cols = c * comb(a, p + 1), b * comb(a, p)
    strat = strategy if strategy is not None else _auto_strategy(t)
    summands = direct_summands(t)
    rank = nnz = block_classes = unsettled = settled_mod_2 = 0
    pairs = fixed = written = 0
    rank_ms = split_ms = total_ms = 0.0
    with warnings.catch_warnings():
        # check_wedge_power above has warned once for every summand.
        warnings.simplefilter("ignore", WedgeRangeWarning)
        for summand, count in summands:
            t0 = time.perf_counter()
            grading = mirror_grading(summand)
            if grading is None:
                # One weight space, the whole flattening, which
                # koszul_flattening writes: bench/tracer.py times that
                # call, and its traced random_dense run reads the
                # flattening time from it.
                parts = ((koszul_flattening(summand, p).matrix, 1),)
            else:
                spaces = koszul_weight_spaces(summand, p, grading)
                parts = spaces.parts
                pairs += spaces.pairs
                fixed += spaces.fixed
            for part, copies in parts:
                res = rank_certified(part, strat)
                split_ms += res.split_ms
                rank_ms += res.rank_ms
                rank += count * copies * res.rank
                nnz += count * copies * part.nnz
                written += count * part.nnz
                block_classes += res.classes
                unsettled += res.unsettled
                settled_mod_2 += res.settled_mod_2
            total_ms += (time.perf_counter() - t0) * 1000.0
    # Every summand is over t's field, so each earns the last one's label.
    return FlatteningRank(rows, cols, rank, nnz, strat, _soundness(strat, res),
                          sum(count for _, count in summands), len(summands),
                          rank_ms, split_ms, total_ms - rank_ms - split_ms, block_classes,
                          unsettled, settled_mod_2, pairs, fixed, written, nnz)


def _certificate(method: str, descriptor: dict, fr: FlatteningRank, divisor: int = 1,
                 p: int | None = None, flags: tuple[str, ...] = ()) -> BoundCertificate:
    """Record the bound ceil(rank / divisor) of a ranked flattening with its
    labels."""
    return BoundCertificate(
        method=method,
        descriptor=descriptor,
        rows=fr.rows,
        cols=fr.cols,
        rank=fr.rank,
        divisor=divisor,
        quotient=Fraction(fr.rank, divisor),
        bound=_ceil_div(fr.rank, divisor),
        field_label=_field_label(fr.strategy),
        soundness=fr.soundness,
        p=p,
        flags=flags,
        timings_ms=fr.rank_ms,
        flattening=fr,
    )


def bound_classical(t: Tensor3, strategy: MultiPrime | ExactQ | None = None,
                    descriptor: dict | None = None) -> BoundCertificate:
    """Best of the three classical flattening ranks (the first on a tie);
    divisor 1.  The recorded times, block-class and mirror counts are those
    of all three ranks."""
    descriptor = descriptor if descriptor is not None else tensor_descriptor(t)
    frs = [flattening_rank(classical_tensor(t, mode), 0, strategy) for mode in "ABC"]
    best = max(frs, key=lambda fr: fr.rank)
    summed = ("rank_ms", "split_ms", "flatten_ms", "block_classes", "unsettled",
              "settled_mod_2", "mirror_pairs", "mirror_fixed", "nnz_written", "nnz_whole")
    return _certificate("classical", descriptor, replace(
        best, **{name: sum(getattr(fr, name) for fr in frs) for name in summed}))


def bound_koszul(t: Tensor3, p: int, strategy: MultiPrime | ExactQ | None = None,
                 descriptor: dict | None = None) -> BoundCertificate:
    """Wedge-power bound: rank of the flattening divided by C(a-1, p).

    p = 1 is the commutator-style special case and is labeled "strassen".
    """
    a = t.dims[0]
    fr = flattening_rank(t, p, strategy)
    return _certificate(
        "strassen" if p == 1 else "koszul",
        descriptor if descriptor is not None else tensor_descriptor(t),
        fr, comb(a - 1, p), p,
        ("outside-recommended-p-range",) if p > redundancy_cap(a) else ())


def bound_matmul_restricted(m: int, n: int, l: int,
                            strategy: MultiPrime | ExactQ | None = None) -> BoundCertificate:
    """Bound for the (m, n, l) matrix multiplication tensor through the
    multiplication projection, at wedge power n - 1.

    When the restricted map has full column rank (it does for all n <= m)
    the bound equals ceil(nl (n+m-1) / m).
    """
    fr = flattening_rank(restrict_matmul(m, n, l), n - 1, strategy)
    return _certificate("koszul-restricted", {"m": m, "n": n, "l": l}, fr,
                        comb(m + n - 2, n - 1), n - 1)


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


def compare_table(n_min: int, n_max: int) -> list[dict]:
    """One row per square size n = l juxtaposing the classical,
    commutator-era (ceil(3n^2/2), which holds for n >= 2 only: None at
    n = 1), Lickteig and restricted-map bounds; the last column holds a
    bound computed from an actual rank when the map has at most
    _TABLE_RANK_COLS columns."""
    if n_min > n_max:
        raise InvalidDimension(f"need n_min <= n_max, got {n_min} > {n_max}")
    if n_min < 1:
        raise InvalidDimension(f"need n_min >= 1, got {n_min}")
    rows = []
    for n in range(n_min, n_max + 1):
        row = {
            "n": n,
            "l": n,
            "classical": n * n,
            "strassen_era": _ceil_div(3 * n * n, 2) if n >= 2 else None,
            "lickteig": lickteig_square(n),
            "theorem1": bound_formula_theorem1(n, n, n),
            "computed": None,
        }
        if n * n * comb(2 * n - 1, n - 1) <= _TABLE_RANK_COLS:
            row["computed"] = bound_matmul_restricted(n, n, n).bound
        rows.append(row)
    return rows

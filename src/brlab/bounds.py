"""Assemble exact ranks into border-rank lower-bound certificates.

A certificate records the flattening shape, the computed rank with its
provenance, the divisor C(a-1, p) for the wedge power used, the exact
rational quotient, and the integer bound (border rank is an integer, so
the ceiling is always applied and recorded alongside the raw quotient).

Soundness labels follow the rank engine: "exact-Q" certificates are tight
for the flattening at hand, and so are "exact-Fp" ones for a tensor given
over F_p, ranked over that field; "mod-p-lower-bound" certificates (a Q
tensor ranked with --field fp[:P] or multiprime, with some block that no
prime brought to full rank) are sound but possibly loose, and closed-form
certificates carry no matrix at all.  Unless asked otherwise, a tensor
over Q is ranked over exact Q and one over F_p mod p.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from fractions import Fraction
from math import comb

from .binaryforms import restrict_matmul
from .errors import InvalidDimension, OrderViolation
from .exterior import classical_tensor, koszul_flattening, koszul_weight_spaces, redundancy_cap
from .rank_engine import ExactQ, MultiPrime, RankResult, rank_certified
from .tensor import Tensor3, direct_summands, index_symmetries, mirror_grading, tensor_to_json

SOUND_EXACT_Q = "exact-Q"
SOUND_EXACT_FP = "exact-Fp"
SOUND_MOD_P = "mod-p-lower-bound"
SOUND_CLOSED_FORM = "closed-form"

# compare_table computes the restricted bound when the map has at most this
# many columns, n^2 C(2n - 1, n - 1): n <= 8 (n = 9 has 1969110).
_TABLE_RANK_COLS = 411_840


class BoundCertificate(namedtuple(
        "BoundCertificate", "method descriptor rows cols rank divisor quotient bound field_label "
        "soundness p flags timings_ms flattening", defaults=(None, (), 0.0, None))):
    """Auditable record tying a computed rank to a border-rank lower bound.

    flattening is telemetry outside the canonical payload: the ranked
    `FlatteningRank` with its summand split, peeling and block counts
    (None for closed forms).
    """

    __slots__ = ()

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
    import hashlib  # here, so that jobs on built-in tensors never load it

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


def _soundness(strategy: MultiPrime | ExactQ, over_q: bool, unsettled: int) -> str:
    """The label of a flattening rank over a tensor's field (over_q when it
    is Q), of which unsettled blocks no prime brought to full rank.

    A tensor given over F_p has no Q-rank to bound, and only its own prime
    can rank it: its rank is exact over F_p.  Over Q, a block that reached
    full rank mod some prime has rank_p = rank_Q = min(rows, cols), so a
    mod-p rank with no unsettled block is the Q-rank itself.
    """
    if not over_q:
        return SOUND_EXACT_FP
    return SOUND_EXACT_Q if isinstance(strategy, ExactQ) or not unsettled else SOUND_MOD_P


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


class FlatteningRank(namedtuple(
        "FlatteningRank", "rows cols rank nnz strategy soundness summands classes flatten_ms "
        "orbits orbit_weights ranked")):
    """Rank of a tensor's wedge flattening, from one rank pass over the
    weight spaces written for its direct summands.

    rows, cols and nnz are those of the whole flattening; summands counts
    the direct summands and classes the groups of equal ones, of which only
    one representative each was flattened.  soundness is the certificate
    label the rank earns (`_soundness`).  ranked is the `RankResult` of the
    one `rank_certified` call over the written weight spaces, which holds
    its times and counts, and flatten_ms the rest of the work on the
    representatives: the grading, the symmetry search, the insertion
    tables, and writing and validating the weight spaces.  orbits and
    orbit_weights count the weight spaces of the graded representatives
    (see `koszul_weight_spaces`): the orbits, one weight space of each
    written, and the weight spaces they cover, each representative's once.
    strategy is the `MultiPrime` or `ExactQ` that ranked it.
    """

    __slots__ = ()


def flattening_rank(t: Tensor3, p: int,
                    strategy: MultiPrime | ExactQ | None = None) -> FlatteningRank:
    """Rank of the p-th wedge flattening of t, in one rank pass over one
    weight space of each orbit of each direct summand group.

    The flattening of a direct sum whose summands share the first factor is
    block diagonal, one block per summand, so equal summands
    (`direct_summands`) have equal flattenings and one representative of
    each group is flattened.  A representative that is symmetric under the
    reversal of all three factors is graded (`mirror_grading`), and its
    flattening is block diagonal over the weights (`koszul_weight_spaces`).
    Its index symmetries (`index_symmetries`, the reversal first) permute
    the weight spaces, a space onto one of equal rank by a signed row and
    column permutation, so one space per orbit is written.  Any other
    representative is one weight space, its whole flattening
    (`koszul_flattening`), and never reaches the symmetry search.  Each
    written space stands for group size * orbit size copies, and the
    spaces reach `rank_certified` as one stream of (space, copies) pairs,
    so that one space is held at a time (`rank_engine._rank_blocks`).  The
    strategy defaults to exact rank over t's field: ExactQ over Q, its
    prime over F_p.

    Under ExactQ the sum is the Q-rank.  Under MultiPrime it is a sum of
    per-block maxes over the primes, a sound lower bound by the argument of
    `rank_engine._rank_blocks`: the written blocks are blocks of the whole
    flattening, and the blocks they stand for have equal ranks mod every
    prime.  Each tensor entry fills one cell per p-subset avoiding its
    first index, and no two cells collide, so the flattening has
    t.nnz * C(a-1, p) entries.
    """
    a, b, c = t.dims
    strat = strategy if strategy is not None else _auto_strategy(t)
    summands = direct_summands(t)
    orbits = covered = 0

    def spaces():
        nonlocal orbits, covered
        for summand, count in summands:
            grading = mirror_grading(summand)
            if grading is None:
                # The whole flattening, from the call that bench/tracer.py
                # times for the flattening time and nnz of random_dense.
                yield koszul_flattening(summand, p).matrix, count
                continue
            reps, space = koszul_weight_spaces(summand, p, grading, index_symmetries(summand))
            orbits += len(reps)
            covered += sum(size for _, size in reps)
            # space(w) is yielded unnamed, so no frame holds it while it is ranked.
            for w, size in reps:
                yield space(w), count * size

    t0 = time.perf_counter()
    res = rank_certified(spaces(), strat)
    total_ms = (time.perf_counter() - t0) * 1000.0
    return FlatteningRank(c * comb(a, p + 1), b * comb(a, p), res.rank,
                          t.nnz * comb(a - 1, p), strat,
                          _soundness(strat, t.field.is_q, res.unsettled),
                          sum(count for _, count in summands), len(summands),
                          total_ms - res.rank_ms - res.split_ms, orbits, covered, res)


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
        timings_ms=fr.ranked.rank_ms,
        flattening=fr,
    )


def bound_classical(t: Tensor3, strategy: MultiPrime | ExactQ | None = None,
                    descriptor: dict | None = None) -> BoundCertificate:
    """Best of the three classical flattening ranks (the first on a tie);
    divisor 1, and the best one's label.  The recorded times, nnz,
    orbit counts and every count of `RankResult` but its rank are those of
    all three ranks."""
    descriptor = descriptor if descriptor is not None else tensor_descriptor(t)
    frs = [flattening_rank(classical_tensor(t, mode), 0, strategy) for mode in "ABC"]
    best = max(frs, key=lambda fr: fr.rank)
    ranked = RankResult._make(
        best.rank if name == "rank" else sum(getattr(fr.ranked, name) for fr in frs)
        for name in RankResult._fields)
    return _certificate("classical", descriptor, best._replace(
        ranked=ranked, **{name: sum(getattr(fr, name) for fr in frs)
                          for name in ("nnz", "flatten_ms", "orbits", "orbit_weights")}))


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

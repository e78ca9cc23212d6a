"""Exact rank computation over Q and F_p for sparse matrices.

Rank results carry certification semantics: the rank over F_p of an integer
matrix can only undercount the rank over Q, so a mod-p rank is a *sound*
(possibly loose) input to a lower-bound certificate, while an exact-Q rank
is tight for the matrix at hand.

A `SparseMatrix` holds one form from construction to splitting: a
{col: value} map per nonempty row, filled in one validating pass that may
read its entries from a generator.  Sparse ranks run per row block: a
matrix that is block diagonal after a row and column permutation has the
sum of its blocks' ranks.  The split is made on the exact entries and
stays valid mod every prime, since reduction mod p can only make entries
vanish, never create new ones.  A rank pass takes one matrix, or a stream
of matrices that together make up one block diagonal matrix (the weight
spaces of `exterior.koszul_weight_spaces`); each is split into blocks and
dropped, so that one matrix is held at a time.  Blocks that are identical up
to a column relabelling (checked entry by entry, never by hash alone) form
one class in a table shared by the whole stream: a class is ranked when
first seen, from its content key, and each later copy adds that rank.
That is exact over every field: equal exact entries reduce to equal values
mod p, so the copies have equal ranks mod every prime too.  The table
keeps the key of every distinct class to the end of the stream, so it
holds the distinct block contents of the whole stream.  The flattenings
of matrix multiplication repeat blocks heavily, so their table is small
and most of their blocks are never eliminated; the restricted map's
weight spaces are one class each, so its table holds the whole written
half.  (The l identical copies that the third index gives are split off
earlier, on the tensor, by `tensor.direct_summands`, and of each pair of
mirror weight spaces only one is written, by
`exterior.koszul_weight_spaces`.)

Every strategy ranks these classes in one loop, `_rank_classes`, which
also makes the soundness argument: `rank_mod_p` runs it with one prime,
multi-prime certification with the strategy's primes, and `rank_exact_q`
with three steps per class: a bit-packed rank over F_2 (`_rank_f2`), then
the first default certification prime (2^30 - 35), then fraction-free
elimination where both fall short of full rank.

One sparse elimination loop serves both fields; it differs between F_p and
Q only in how an updated row is reduced (mod p, with the pivot row left
unscaled, or by its integer content).  Elimination is deterministic: pivots
are chosen on the sparsest active column, ties broken by lowest column
index, then sparsest row, then lowest row index.  Repeated runs give
identical results.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from math import gcd

from .errors import BadPrime, FieldMismatch, FormatError, InvalidDimension
from .scalars import (DEFAULT_CERTIFICATION_PRIMES, FieldTag, certification_primes,
                      parse_natural)


class SparseMatrix:
    """Immutable sparse matrix over an exact field.

    Each nonempty row is kept as a {col: nonzero value} map in the order its
    entries were given, values in the field's raw form (see
    `FieldTag.coerce`).  One pass over the entries validates them (range,
    duplicate coordinates, stored zeros) and records the entry count and
    whether every entry is an integer, so rank passes never rescan values.
    """

    __slots__ = ("rows", "cols", "field", "nnz", "_rows", "_integral")

    def __init__(self, rows: int, cols: int, entries, field: FieldTag):
        if rows < 0 or cols < 0:
            raise InvalidDimension(f"negative shape {rows}x{cols}")
        row_maps: dict[int, dict] = {}
        row_of = row_maps.get
        coerce = field.coerce
        integral = True
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise InvalidDimension(f"entry ({r},{c}) outside {rows}x{cols}")
            row = row_of(r)
            if row is None:
                row = row_maps[r] = {}
            elif c in row:
                raise FormatError(f"duplicate entry at ({r},{c})")
            v = coerce(v)
            if v == 0:
                raise FormatError(f"stored zero at ({r},{c})")
            if type(v) is not int:
                integral = False
            row[c] = v
        self.rows = rows
        self.cols = cols
        self.field = field
        self.nnz = sum(map(len, row_maps.values()))
        self._rows = row_maps
        self._integral = integral or not field.is_q

    def items(self) -> list[tuple[int, int, object]]:
        """Entries as (row, col, value) triples sorted by (row, col)."""
        rows = self._rows
        return [(r, c, v) for r in sorted(rows) for c, v in sorted(rows[r].items())]

    def value(self, r: int, c: int):
        return self._rows.get(r, {}).get(c, 0)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows,
            ((c, r, v) for r, row in self._rows.items() for c, v in row.items()),
            self.field,
        )

    def is_integral(self) -> bool:
        """True when every entry is an integer (stored as int over Q)."""
        return self._integral

    def _block_keys(self) -> list[tuple[tuple, int]]:
        """(content key, distinct columns) of each row block, in order of
        the block's smallest row.

        A row block is a connected component of the row/column graph of the
        nonzero entries: the matrix is block diagonal over these after a row
        and column permutation, so elimination runs per block and ranks add.
        Entries only vanish under reduction mod p, so the split stays valid
        for every prime.

        A key lists the block's rows in increasing order: the entry count of
        each row, then every entry's column relabelled in order of first
        appearance in the block, then every value.  Equal keys mean equal
        blocks up to a column permutation, hence equal ranks over every
        field (equal exact values also reduce to equal values mod p).  The
        rank loop compares keys by full tuple equality, entry by entry, so a
        hash collision cannot merge different blocks, and ranks each class
        from its key, which holds the block (`_rows`).
        """
        rows = self._rows
        # The nonempty rows in increasing order, numbered 0..R-1, are the
        # union-find nodes, so time and memory follow nnz, not the declared
        # row count.  Join each row to the first row seen in each of its
        # columns (path halving; a component's root is its smallest row).
        # x tracks the root of row y's component while y is joined.
        order = sorted(rows)
        parent = list(range(len(order)))
        col_owner: dict[int, int] = {}
        owner_of = col_owner.setdefault
        for y, r in enumerate(order):
            x = y
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            for c in rows[r]:
                o = owner_of(c, y)
                if o != y:
                    while parent[o] != o:
                        parent[o] = o = parent[parent[o]]
                    if o < x:
                        parent[x] = x = o
                    elif x < o:
                        parent[o] = x
        # Rows in increasing order meet each root first, so the blocks come
        # out ordered by their smallest row.
        groups: dict[int, list[int]] = {}
        for y, r in enumerate(order):
            root = y
            while parent[root] != root:
                root = parent[root]
            groups.setdefault(root, []).append(r)
        keys = []
        for block in groups.values():
            cols, vals, lens = [], [], []
            for r in block:
                row = rows[r]
                cols += row
                vals += row.values()
                lens.append(len(row))
            labels = dict(zip(dict.fromkeys(cols), range(len(cols))))
            keys.append(((tuple(lens), tuple(map(labels.__getitem__, cols)), tuple(vals)),
                         len(labels)))
        return keys

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.field, self._rows) == (
            other.rows, other.cols, other.field, other._rows)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz}, field={self.field})"


@dataclass(frozen=True)
class RankResult:
    """Outcome of one exact rank computation.

    classes counts the classes of identical blocks ranked, and unsettled
    those whose rank stayed below min(block rows, block columns) mod every
    prime tried; under exact Q these are the classes that fraction-free
    elimination ranked.  settled_mod_2 counts the classes that the exact-Q
    pass over F_2 brought to full rank (always 0 for the other strategies);
    the remaining classes were settled mod a prime.  split_ms is the time
    spent splitting the matrices into row blocks, keying them and looking
    the keys up in the class table, rank_ms that of the rank passes over
    the class representatives; neither counts the writing of a streamed
    matrix, and results that differ only in them compare equal.
    """

    rank: int
    certified_lower_bound_over_q: bool
    classes: int
    unsettled: int
    settled_mod_2: int
    split_ms: float = field(compare=False)
    rank_ms: float = field(compare=False)


@dataclass(frozen=True)
class MultiPrime:
    """Take the max of ranks over a list of primes, by default the active
    certification primes, resolved once at construction."""

    primes: tuple[int, ...] = field(default_factory=certification_primes)


@dataclass(frozen=True)
class ExactQ:
    """Exact rank over the rationals."""


# ---------------------------------------------------------------------------
# elimination core
# ---------------------------------------------------------------------------

def _strip_content(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(rows: list[dict[int, int]], p: int | None) -> int:
    """Sparse Gaussian elimination on integer row dicts (consumed): the rank
    over F_p, or over Q when p is None.

    Over F_p the pivot row is kept as it is: each updated row's factor f is
    multiplied by the pivot's inverse, and the update row <- row - f*piv is
    reduced mod p.  Over Q the pivot row loses its integer content, and the
    update row <- g*row - f*piv (g the pivot entry) is followed by removal of
    the row's content, so entries stay integers with no exactness caveats.
    """
    col_rows: dict[int, set[int]] = {}
    for ri, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(ri)
    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        cnt, c = heapq.heappop(heap)
        rs = col_rows.get(c)
        if rs is None:
            continue
        if not rs:
            del col_rows[c]
            continue
        if len(rs) != cnt:
            heapq.heappush(heap, (len(rs), c))
            continue
        r = min(rs, key=lambda rr: (len(rows[rr]), rr))
        piv = rows[r]
        if p is None:
            _strip_content(piv)
            g = piv[c]
        else:
            inv = pow(piv[c], -1, p)
        for rr in rs:
            if rr == r:
                continue
            row = rows[rr]
            f = row.pop(c)
            if p is not None:
                f = f * inv % p
            elif g != 1:
                for cc in row:
                    row[cc] *= g
            for cc, vv in piv.items():
                if cc == c:
                    continue
                x = row.get(cc, 0) - f * vv
                if p is not None:
                    x %= p
                if x:
                    if cc not in row:
                        col_rows[cc].add(rr)
                    row[cc] = x
                elif cc in row:
                    del row[cc]
                    col_rows[cc].discard(rr)
            if p is None:
                _strip_content(row)
        for cc in piv:
            if cc != c:
                col_rows[cc].discard(r)
        rows[r] = {}
        del col_rows[c]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# public rank operations
# ---------------------------------------------------------------------------

def _rows(key: tuple):
    """The rows of a block given by its content key
    (`SparseMatrix._block_keys`), each as an iterator of (local column,
    value) pairs."""
    lens, cols, vals = key
    i = 0
    for k in lens:
        yield zip(cols[i:i + k], vals[i:i + k])
        i += k


def _block_mod_p(block, tag: FieldTag) -> list[dict[int, int]]:
    """Fresh row dicts of a block (rows of (col, value) pairs), reduced mod
    p."""
    p = tag.p
    rows = []
    for row in block:
        d = {}
        for c, v in row:
            x = v % p if type(v) is int else tag.coerce(v)
            if x:
                d[c] = x
        rows.append(d)
    return rows


def _block_integral(key: tuple) -> tuple:
    """The content key of a block over Q with each row scaled by the lcm of
    its denominators (rank-preserving); integer rows keep their values."""
    lens, cols, vals = key
    scaled, i = [], 0
    for k in lens:
        row = vals[i:i + k]
        i += k
        d = 1
        for v in row:
            if type(v) is not int:
                d = d * v.denominator // gcd(d, v.denominator)
        scaled += row if d == 1 else [
            v * d if type(v) is int else v.numerator * (d // v.denominator) for v in row]
    return lens, cols, tuple(scaled)


def _rank_f2(block, full: int) -> int:
    """Rank over F_2 of an integer class representative, at most full.

    Each row is packed into one int, bit c set when the entry at local
    column c is odd, and reduced against a basis keyed by leading bit: XOR
    with the basis row of the same leading bit until the row vanishes or
    gets a leading bit of its own.  The rank is the basis size; the pass
    stops once it reaches full.
    """
    basis: dict[int, int] = {}
    for row in block:
        x = 0
        for c, v in row:
            if v & 1:
                x |= 1 << c
        while x:
            top = x.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = x
                if len(basis) == full:
                    return full
                break
            x ^= b
    return len(basis)


def _rank_classes(m, primes: tuple[int, ...], exact: bool,
                  integer_only: bool = False) -> RankResult:
    """The one rank loop, over a SparseMatrix or a stream of them that make
    up one block diagonal matrix (`exterior.WeightSpaces`).

    Each matrix is split into row blocks and dropped; blocks with equal
    content keys form one class in a table shared by the whole stream, and
    a class is ranked when first seen, after which only its key and rank
    are kept, to the end of the stream.  Each class is ranked mod the
    primes in turn, keeps its max, and stops at the first prime that
    reaches min(block rows, block columns).  For an integer block rank_p <= rank_Q <= min(rows, cols), so
    such a class is settled: no prime can raise it.  For each prime the
    matrix's rank is the sum of its class ranks, so the sum of per-class
    maxes is a sound lower bound on the Q-rank, and never below the whole
    matrix's max over the primes.  When exact, each class is scaled
    integral row by row (rank-preserving) and first ranked over F_2;
    reduction Z -> F_2 is a ring map, so rank_2 <= rank_Q <= full and a
    class of full rank mod 2 is settled with no prime.  Any other class
    runs the primes, and one that stays unsettled is ranked by
    fraction-free elimination.  With integer_only, a matrix with a
    non-integer entry raises BadPrime.
    """
    tags = [FieldTag.prime_field(p) for p in primes]
    for tag in tags:
        if not m.field.is_q and tag != m.field:
            raise FieldMismatch(f"matrix over {m.field} cannot be reduced mod {tag.p}")
    ranks: dict[tuple, int] = {}  # content key -> rank of its class
    rank = unsettled = settled_mod_2 = 0
    split_s = rank_s = 0.0
    integral = True
    for space in (m,) if isinstance(m, SparseMatrix) else m:
        if not space.is_integral():
            if integer_only:
                raise BadPrime("MultiPrime certification requires integer entries")
            integral = False
        scale = exact and not space.is_integral()
        t0, rank_before = time.perf_counter(), rank_s
        keys = space._block_keys()
        del space  # only the keys are ranked
        for key, ncols in keys:
            r = ranks.get(key)
            if r is not None:
                rank += r
                continue
            t1 = time.perf_counter()
            block = _block_integral(key) if scale else key
            full = min(len(key[0]), ncols)
            if exact and _rank_f2(_rows(block), full) == full:
                settled_mod_2 += 1
                r = full
            else:
                r = 0
                for tag in tags:
                    r = max(r, _eliminate(_block_mod_p(_rows(block), tag), tag.p))
                    if r == full:
                        break
                else:  # no prime reached full rank
                    unsettled += 1
                    if exact:
                        r = _eliminate([dict(row) for row in _rows(block)], None)
            rank_s += time.perf_counter() - t1
            ranks[key] = r
            rank += r
        split_s += time.perf_counter() - t0 - (rank_s - rank_before)
    return RankResult(rank, m.field.is_q and (exact or integral), len(ranks), unsettled,
                      settled_mod_2, split_s * 1000.0, rank_s * 1000.0)


def rank_mod_p(m, p: int) -> RankResult:
    """Exact rank over F_p, one elimination per class of identical blocks.

    Certified as a lower bound on the rank over Q exactly when the matrix is
    over Q with integer entries (an integer matrix's mod-p rank never exceeds
    its Q-rank); a matrix given over F_p has no Q lift to bound.
    """
    return _rank_classes(m, (p,), False)


def rank_exact_q(m) -> RankResult:
    """Exact rank over Q by the rank loop in three steps per class: the
    bit-packed rank over F_2, then a pass mod DEFAULT_CERTIFICATION_PRIMES[0]
    (2^30 - 35) for a class that F_2 leaves short of full rank, then
    fraction-free elimination, whose entries grow on dense blocks, for a
    class that prime leaves short too.  Both moduli are fixed, not read from
    BRLAB_PRIMES: they never decide a rank, they only skip work.
    """
    if not m.field.is_q:
        raise FieldMismatch(f"exact-Q rank needs rational entries, matrix is over {m.field}")
    return _rank_classes(m, DEFAULT_CERTIFICATION_PRIMES[:1], True)


def rank_certified(m, strategy: MultiPrime | ExactQ) -> RankResult:
    """Rank with certified-lower-bound semantics, of a SparseMatrix or of a
    stream of them that make up one block diagonal matrix (see
    `_rank_classes`).

    MultiPrime: the rank loop over the strategy's primes, each class keeping
    its max over the primes it tried; sound for lower-bound certificates on
    integer matrices because each mod-p rank is at most the Q-rank.  ExactQ
    delegates to rank_exact_q.
    """
    if isinstance(strategy, ExactQ):
        return rank_exact_q(m)
    if not isinstance(strategy, MultiPrime):
        raise TypeError(f"unknown strategy {strategy!r}")
    if not strategy.primes:
        raise BadPrime("empty prime list")
    return _rank_classes(m, strategy.primes, False, integer_only=True)


# ---------------------------------------------------------------------------
# shared sparse-matrix file format: "rows cols field" header, then
# "r c val" lines sorted by (row, col)
# ---------------------------------------------------------------------------

def write_matrix(m: SparseMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.rows} {m.cols} {m.field}\n")
        ser = m.field.serialize
        for r, c, v in m.items():
            fh.write(f"{r} {c} {ser(v)}\n")


def read_matrix(path) -> SparseMatrix:
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise FormatError(f"bad matrix header {header!r}")
            try:
                rows, cols = parse_natural(header[0]), parse_natural(header[1])
            except FormatError as exc:
                raise FormatError(f"bad matrix header {header!r}") from exc
            field = FieldTag.from_string(header[2])
            entries = []
            prev = None
            for line in fh:
                if not line.strip():
                    continue
                toks = line.split()
                if len(toks) != 3:
                    raise FormatError(f"bad matrix line {line!r}")
                try:
                    r, c = parse_natural(toks[0]), parse_natural(toks[1])
                except FormatError as exc:
                    raise FormatError(f"bad index in matrix line {line!r}") from exc
                if prev is not None and (r, c) <= prev:
                    raise FormatError(f"entries not sorted at ({r},{c})")
                prev = (r, c)
                entries.append((r, c, field.parse(toks[2])))
    except UnicodeDecodeError as exc:
        raise FormatError(f"not an ASCII file: {exc}") from exc
    return SparseMatrix(rows, cols, entries, field)

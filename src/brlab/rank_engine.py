"""Exact rank computation over Q and F_p for sparse matrices.

The rank over F_p of an integer matrix can only undercount the rank over Q,
so a mod-p rank is a *sound* (possibly loose) input to a lower-bound
certificate, while an exact-Q rank is tight for the matrix at hand; the
label a rank earns is decided by `bounds._soundness`.

A `SparseMatrix` holds one form from construction to splitting: a
{col: value} map per nonempty row, filled in one validating pass that may
read its entries from a generator.  A rank pass takes one matrix, or a
stream of (matrix, copies) pairs whose matrices, each taken copies times,
make up one block diagonal matrix (the weight spaces of a flattening, each
standing for its summand group and orbit); each is peeled, split into
blocks whose ranks are added copies times, and dropped, so that one matrix
is held at a time.  Peeling (`_peel`, the structural pivots that open
structured Gaussian elimination) takes out, one after another, the columns
with a single entry left, each with its row and rank 1, in one pass over
the entries with no fill; the restricted map's weight spaces peel to
nothing.  Sparse ranks of what is left run per row block (`_blocks`): a
matrix that is block diagonal after a row and column permutation has the
sum of its blocks' ranks.  The split is made on the exact entries and stays
valid mod every prime, since reduction mod p can only make entries vanish,
never create new ones.  Under exact Q a block of a rational matrix has each
row scaled by the lcm of its denominators (`_scaled_row`), which keeps its
rank over Q, so that every block is ranked on ints.  (Most repeats are
taken out before a block forms: the l identical copies that the third index
gives are split off on the tensor, by `tensor.direct_summands`, and of each
orbit of weight spaces under the tensor's index symmetries only one is
written, by `exterior.koszul_weight_spaces`; `bounds.flattening_rank` gives
each written space the summand group size times the orbit size as its
copies.)

Every strategy peels and ranks in one loop, `_rank_blocks`, which also
makes the soundness argument: `rank_mod_p` runs it with one prime,
multi-prime certification with the strategy's primes, and `rank_exact_q`
with three steps per block, all on ints: a bit-packed F_2 pass with 2-adic
lifts (`_lift_f2`), which settles a block as full rank or short, then, only
when the lift runs out of budget, the first default certification prime
(2^30 - 35), and fraction-free elimination where the lift finds the block
short or the prime leaves it short.

One sparse elimination loop, `_eliminate`, serves both fields, with one
inner loop for each: mod p, with the pivot row left unscaled, or over the
integers, each updated row divided by its content.  Elimination is
deterministic: pivots are chosen on the sparsest active column, ties broken
by lowest column index, then sparsest row, then lowest row index.
Repeated runs give identical results.
"""

from __future__ import annotations

import heapq
import time
from collections import namedtuple
from math import gcd, lcm

from .errors import BadPrime, FieldMismatch, FormatError, InvalidDimension
from .scalars import DEFAULT_CERTIFICATION_PRIMES, FieldTag, certification_primes


def _scaled_row(row: dict) -> dict:
    """A row over Q times the lcm of its denominators: ints, and the same
    row up to a nonzero factor, so a matrix keeps its rank over Q.  A row
    of ints is returned as it is.
    """
    d = 1
    for v in row.values():
        if type(v) is not int:
            d = lcm(d, v.denominator)
    if d == 1:
        return row
    return {c: v * d if type(v) is int else v.numerator * (d // v.denominator)
            for c, v in row.items()}


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
        mod_p = not field.is_q  # over Q an int is already in raw form
        integral = True
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise InvalidDimension(f"entry ({r},{c}) outside {rows}x{cols}")
            row = row_of(r)
            if row is None:
                row = row_maps[r] = {}
            elif c in row:
                raise FormatError(f"duplicate entry at ({r},{c})")
            if mod_p or type(v) is not int:
                v = coerce(v)
            if type(v) is not int:
                integral = False  # a Fraction that is not an integer, so not zero
            elif not v:
                raise FormatError(f"stored zero at ({r},{c})")
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

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows,
            ((c, r, v) for r, row in self._rows.items() for c, v in row.items()),
            self.field,
        )

    def is_integral(self) -> bool:
        """True when every entry is an integer (stored as int over Q)."""
        return self._integral

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.field, self._rows) == (
            other.rows, other.cols, other.field, other._rows)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz}, field={self.field})"


class RankResult(namedtuple("RankResult", "rank nnz peeled blocks unsettled settled_mod_2 "
                                          "split_ms rank_ms")):
    """Outcome of one exact rank computation.

    peeled counts the pivots that peeling took (`_peel`), each of rank 1,
    and blocks the row blocks left and ranked (`_rank_blocks`), both in
    each matrix once whatever its copies.  unsettled counts the blocks
    whose rank stayed below min(block rows, block columns) mod every prime
    tried, or that the exact-Q lift (`_lift_f2`) found short; under exact Q
    these are the ones that fraction-free elimination ranked.
    settled_mod_2 counts those that the exact-Q F_2 pass, with its lifts,
    found to have full rank (always 0 for the other strategies); the
    remaining ones were settled mod a prime.  nnz counts the entries read:
    the matrix's, or the sum over a stream's matrices, each once whatever
    its copies.  split_ms is the time spent splitting the peeled matrices
    into row blocks, rank_ms that of peeling, of scaling rational rows and
    of the rank passes over the blocks; neither counts the writing of a
    streamed matrix.  Results compare as tuples, times included.
    """

    __slots__ = ()


class MultiPrime(namedtuple("MultiPrime", "primes")):
    """Take the max of ranks over a list of primes (a tuple), by default the
    active certification primes, resolved once at construction (`_replace`
    resolves nothing)."""

    __slots__ = ()

    def __new__(cls, primes: tuple[int, ...] | None = None) -> "MultiPrime":
        return super().__new__(cls, certification_primes() if primes is None else primes)


class ExactQ(namedtuple("ExactQ", "")):
    """Exact rank over the rationals.  The strategies are named tuples, and
    this one is empty, hence falsy: test a strategy with `is None`."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# structural pivots and row blocks
# ---------------------------------------------------------------------------

def _peel(rows: dict[int, dict], primes: tuple[int, ...]) -> tuple[int, dict[int, dict]]:
    """(peeled, live): the number of structural pivots of a matrix's rows,
    and the rows left once they are gone (rows itself when there is none).

    A column whose only entry is v != 0, in row r, gives
    rank(M) = 1 + rank(M without row r) over Q, and mod every prime that
    does not divide v: the pivot clears its column without touching another
    row.  One pass over the entries counts each column's live rows and
    keeps the XOR of their indices, packed in one int per column, the count
    above the bits of the row indices, so that a column with one live row
    names it.  Each such column is then taken in turn: its row goes, and
    every column of that row loses it, which may leave another column with
    one live row.  With primes empty (exact Q) every entry is a pivot;
    otherwise only an int entry that no prime of primes divides, and a
    column whose entry is not is passed over.  No column lists are built,
    no row is changed and nothing fills in.  The count does not depend on
    the order the columns are taken in: a column that has one live row with
    a pivot entry keeps them until that row goes.
    """
    if not rows:
        return 0, rows
    one = 1 << max(rows).bit_length()
    two = one << 1  # one <= x < two: a column with one live row, x ^ one
    acc: dict[int, int] = {}
    get = acc.get
    for r, row in rows.items():
        for c in row:
            acc[c] = (get(c, 0) ^ r) + one
    todo = [c for c, x in acc.items() if x < two]
    dead: set[int] = set()
    for c in todo:  # todo grows while it is read
        x = acc[c]
        if x < one:
            continue  # its row went with another pivot
        r = x ^ one
        row = rows[r]
        if primes:
            v = row[c]
            if not all(v % p for p in primes):
                continue
        dead.add(r)
        for cc in row:
            x = (acc[cc] ^ r) - one
            acc[cc] = x
            if one <= x < two:
                todo.append(cc)
    if not dead:
        return 0, rows
    return len(dead), {r: row for r, row in rows.items() if r not in dead}


def _blocks(rows: dict[int, dict]) -> list[list[dict]]:
    """The row blocks of a matrix's rows, each the list of its row maps in
    increasing row order, in order of the block's smallest row.

    A row block is a connected component of the row/column graph of the
    nonzero entries: the matrix is block diagonal over these after a row
    and column permutation, so elimination runs per block and ranks add.
    Entries only vanish under reduction mod p, so the split stays valid
    for every prime.
    """
    # The nonempty rows in increasing order, numbered 0..R-1, are the
    # union-find nodes, so time and memory follow nnz, not the declared
    # row count.  Join each row to the first row seen in each of its
    # columns (path halving; a component's root is its smallest row).
    # x tracks the root of row y's component while y is joined; y
    # starts as a root, since a row's parent is set only from its own
    # turn on.
    order = sorted(rows)
    parent = list(range(len(order)))
    col_owner: dict[int, int] = {}
    owner_of = col_owner.setdefault
    for y, r in enumerate(order):
        x = y
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
    groups: dict[int, list[dict]] = {}
    for y, r in enumerate(order):
        root = y
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(rows[r])
    return list(groups.values())


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
    over F_p, whose entries are residues in [1, p), or over Q when p is
    None.

    The pivot's column is taken out of the pivot row once, and the row's
    other items are listed once for all the rows it updates.  Each update
    is row <- row + f*piv, one multiply-add per pivot entry, with the
    factor f negated beforehand, and the F_p and Q loops are written apart.
    Over F_p the pivot row is kept as it is, f = -row[c]/piv[c] mod p, and
    each sum is reduced mod p.  Over Q the pivot row loses its integer
    content, the row is multiplied by the pivot entry g with f = -row[c],
    and the updated row loses its content, so entries stay integers with
    no exactness caveats.
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
        rs = col_rows[c]
        if not rs:
            del col_rows[c]
            continue
        if len(rs) != cnt:
            heapq.heappush(heap, (len(rs), c))
            continue
        del col_rows[c]
        rank += 1
        r = min(rs, key=lambda rr: (len(rows[rr]), rr))
        rs.discard(r)  # now the rows to update
        piv = rows[r]
        rows[r] = None
        if p is None and rs:
            _strip_content(piv)
        g = piv.pop(c)
        for cc in piv:
            col_rows[cc].discard(r)
        items = list(piv.items())
        if p is not None:
            ninv = -pow(g, -1, p)
            for rr in rs:
                row = rows[rr]
                f = row.pop(c) * ninv % p
                get = row.get
                for cc, vv in items:
                    x = get(cc)
                    if x is None:  # fill-in: f and vv are nonzero mod p
                        row[cc] = f * vv % p
                        col_rows[cc].add(rr)
                    else:
                        x = (x + f * vv) % p
                        if x:
                            row[cc] = x
                        else:
                            del row[cc]
                            col_rows[cc].discard(rr)
        else:
            for rr in rs:
                row = rows[rr]
                f = -row.pop(c)
                if g != 1:
                    for cc in row:
                        row[cc] *= g
                get = row.get
                for cc, vv in items:
                    x = get(cc)
                    if x is None:
                        row[cc] = f * vv
                        col_rows[cc].add(rr)
                    else:
                        x += f * vv
                        if x:
                            row[cc] = x
                        else:
                            del row[cc]
                            col_rows[cc].discard(rr)
                _strip_content(row)
    return rank


# ---------------------------------------------------------------------------
# public rank operations
# ---------------------------------------------------------------------------

def _block_mod_p(block: list[dict], tag: FieldTag) -> list[dict[int, int]]:
    """Fresh row dicts of a block, reduced mod p."""
    p = tag.p
    rows = []
    for row in block:
        d = {}
        for c, v in row.items():
            x = v % p if type(v) is int else tag.coerce(v)
            if x:
                d[c] = x
        rows.append(d)
    return rows


def _lift_f2(block: list[dict], full: int) -> bool | None:
    """Whether an integer block has full rank over Q: True, False, or None
    once it has read more than 16 times its entries.  An F_2 pass settles
    most blocks, 2-adic lifts of it (after Dixon's p-adic lifting) the rest.

    The pass runs on the short side (a transpose keeps the rank), so that
    every line must join the basis: the rows, or a tall block's columns,
    packed straight from its rows with bit r for row r.  A line is one int,
    a bit per odd entry, with the history bit 1 << j of its index j below,
    reduced against a basis keyed by leading bit.  A line that vanishes mod
    2 names by its history bits the lines whose sum cancels it mod 2, and
    is replaced by (itself + those lines) / 2, on integer lines built at
    the first lift: an invertible rational operation, so the Q-rank does
    not change.  It is tried again until it joins.

    True: every line joined, and rank_2 <= rank_Q for an integer matrix.
    False: the basis is fixed while a line is lifted, so its next state
    depends only on its current state; if a state S recurs after k steps,
    S = S / 2^k + c with c in span_Q(basis), so S is in that span and the
    block is short, as it is when a halved sum is exactly zero.  None: the
    budget bounds time only.
    """
    labels: dict[int, int] = {}
    label = labels.setdefault

    def pack(line: dict) -> int:
        x = 0
        for c, v in line.items():
            if v & 1:
                x |= 1 << label(c, len(labels))
        return x

    tall = len(block) > full
    if tall:
        bits: dict[int, int] = {}
        get, put = bits.get, bits.setdefault
        for r, row in enumerate(block):
            bit = 1 << r
            for c, v in row.items():
                if v & 1:
                    bits[c] = get(c, 0) | bit
                else:
                    put(c, 0)
        packed = map(bits.pop, list(bits))  # each column freed as it is read
    else:
        packed = map(pack, block)
    basis: dict[int, int] = {}
    lines = None
    for j, x in enumerate(packed):
        line = None
        while True:
            x = x << full | 1 << j  # every basis key is above the history bits
            while (b := basis.get(x.bit_length())) is not None:
                x ^= b
            if x >> full:
                basis[x.bit_length()] = x
                break
            if lines is None:  # the integer lines
                budget = 16 * sum(map(len, block))
                if tall:  # a column's entries are keyed by row r, its bit r
                    cols: dict[int, dict] = {}
                    for r, row in enumerate(block):
                        for c, v in row.items():
                            cols.setdefault(c, {})[r] = v
                    lines = list(cols.values())
                    labels.update(zip(range(len(block)), range(len(block))))
                else:
                    lines = list(block)
            if line is None:
                line = lines[j]
                seen = set()
            # Vanished mod 2: the history bits of x but j name the lines to add.
            s = dict(line)
            get = s.get
            budget -= len(line)
            x ^= 1 << j
            while x:
                low = x & -x
                add = lines[low.bit_length() - 1]
                budget -= len(add)
                for c, v in add.items():
                    s[c] = get(c, 0) + v
                x ^= low
            lines[j] = line = {c: v >> 1 for c, v in s.items() if v}
            key = frozenset(line.items())
            if not line or key in seen:
                return False
            if budget < 0:
                return None
            seen.add(key)
            x = pack(line)
    return True


def _rank_blocks(m, primes: tuple[int, ...], exact: bool,
                 integer_only: bool = False) -> RankResult:
    """The one rank loop, over a SparseMatrix or a stream of (SparseMatrix,
    copies) pairs whose matrices, each taken copies times, make up one
    block diagonal matrix; each block adds copies times its rank.

    Each matrix's field is checked against the strategy (FieldMismatch),
    then the matrix is peeled (`_peel`), adding copies times its pivots to
    the rank, and what is left is split into row blocks (`_blocks`) and
    dropped.  Under exact Q every entry is a pivot; under primes only an
    int entry that no prime divides, so the pivots hold mod each prime and
    count in no block, and a matrix that is not integral is not peeled, so
    that a denominator a prime divides still raises BadPrime.  Each block
    is ranked on its own, mod the primes in turn, keeps its max, and stops
    at the first prime that reaches min(block rows, block columns).  For an
    integer block rank_p <= rank_Q <= min(rows, cols), so such a block is
    settled: no prime can raise it.  For each prime the matrix's rank is
    the sum of its block ranks, so the sum of per-block maxes is a sound
    lower bound on the Q-rank, and never below the whole matrix's max over
    the primes.  When exact, each row of a block of a matrix that is not
    integral is first scaled by the lcm of its denominators (`_scaled_row`),
    which keeps the Q-rank, so that every block holds ints, and each block
    is first ranked over F_2 and lifted (`_lift_f2`).  Found full rank, it
    is settled mod 2 with no prime; found short, it is ranked by
    fraction-free elimination, since no prime can bring it to full rank.
    Only a block whose lift runs out of budget runs the primes, and one that
    stays unsettled is ranked by fraction-free elimination.
    With integer_only, a matrix with a non-integer entry raises BadPrime.
    """
    tags = [FieldTag.prime_field(p) for p in primes]
    rank = nnz = peeled = blocks = unsettled = settled_mod_2 = 0
    split_s = rank_s = 0.0
    for space, copies in ((m, 1),) if isinstance(m, SparseMatrix) else m:
        if exact and not space.field.is_q:
            raise FieldMismatch(
                f"exact-Q rank needs rational entries, matrix is over {space.field}")
        for tag in tags:
            if not space.field.is_q and tag != space.field:
                raise FieldMismatch(f"matrix over {space.field} cannot be reduced mod {tag.p}")
        if integer_only and not space.is_integral():
            raise BadPrime("MultiPrime certification requires integer entries")
        nnz += space.nnz
        t0 = time.perf_counter()
        integral = space.is_integral()
        rows = space._rows
        del space  # only its rows, and then their blocks, are ranked
        if exact or integral:
            n, rows = _peel(rows, () if exact else primes)
            peeled += n
            rank += copies * n
        t1 = time.perf_counter()
        split = _blocks(rows)
        del rows
        t2 = time.perf_counter()
        blocks += len(split)
        for block in split:
            if exact and not integral:
                block = [_scaled_row(row) for row in block]
            full = min(len(block), len(set().union(*block)))
            settled = _lift_f2(block, full) if exact else None
            if settled:
                settled_mod_2 += 1
                r = full
            else:
                r = 0
                # A block that the lift found short reaches full rank mod no prime.
                for tag in tags if settled is None else ():
                    r = max(r, _eliminate(_block_mod_p(block, tag), tag.p))
                    if r == full:
                        break
                else:  # no prime reached full rank
                    unsettled += 1
                    if exact:
                        r = _eliminate([dict(row) for row in block], None)
            rank += copies * r
        split_s += t2 - t1
        rank_s += (t1 - t0) + (time.perf_counter() - t2)
    return RankResult(rank, nnz, peeled, blocks, unsettled, settled_mod_2,
                      split_s * 1000.0, rank_s * 1000.0)


def rank_mod_p(m, p: int) -> RankResult:
    """Exact rank over F_p: peeling, then one elimination per row block.

    For an integer matrix over Q it is a lower bound on the rank over Q; a
    matrix given over F_p has no Q lift to bound.  What a rank certifies is
    decided by `bounds._soundness`.
    """
    return _rank_blocks(m, (p,), False)


def rank_exact_q(m) -> RankResult:
    """Exact rank over Q by the rank loop: peeling, then per row block a
    bit-packed F_2 pass with 2-adic lifts (`_lift_f2`), which settles the
    block as full rank or sends it, found short, to fraction-free
    elimination, whose entries grow on dense blocks.  Only a block whose
    lift runs out of budget runs a pass mod DEFAULT_CERTIFICATION_PRIMES[0]
    (2^30 - 35) first.  Both moduli are fixed, not read from BRLAB_PRIMES:
    they never decide a rank, they only skip work.
    """
    return _rank_blocks(m, DEFAULT_CERTIFICATION_PRIMES[:1], True)


def rank_certified(m, strategy: MultiPrime | ExactQ) -> RankResult:
    """Rank with certified-lower-bound semantics, of a SparseMatrix or of a
    stream of (SparseMatrix, copies) pairs that make up one block diagonal
    matrix (see `_rank_blocks`).

    MultiPrime: the rank loop over the strategy's primes, peeling only on
    entries that no prime divides, and each block keeping its max over the
    primes it tried; sound for lower-bound certificates on
    integer matrices because each mod-p rank is at most the Q-rank.  ExactQ
    delegates to rank_exact_q.
    """
    if isinstance(strategy, ExactQ):
        return rank_exact_q(m)
    if not isinstance(strategy, MultiPrime):
        raise TypeError(f"unknown strategy {strategy!r}")
    if not strategy.primes:
        raise BadPrime("empty prime list")
    return _rank_blocks(m, strategy.primes, False, integer_only=True)

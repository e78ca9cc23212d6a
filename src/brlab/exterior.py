"""The wedge-power flattening, and the classical flattenings as its p = 0 case.

Basis vectors of the p-th exterior power of the first tensor factor are
labeled by strictly increasing index subsets, enumerated in
*colexicographic* order.  Insertion tables of subset positions spread
each tensor entry over its cells without any subset search: one slice per
first-factor index that occurs in the tensor and per subset weight under a
grading of the tensor, a pair of flat machine-integer arrays, so the
tables follow the entries, not the declared dimension, and the cells of
one weight space of the flattening are written alone.
`koszul_weight_spaces` returns a function that writes one weight space per
call, and `koszul_flattening` is its one-weight case, the whole
flattening.  Only the slices that some written weight space reads are
built, so the cells of a weight space that another of its orbit stands
for, which is never written, are never built either.

The sign convention wedges the incoming vector on the left,
a_i ^ (a_{s1} ^ ... ^ a_{sp}); any consistent convention yields the same
ranks, but certificates must be bit-reproducible, so this one is fixed.
"""

from __future__ import annotations

import warnings
from array import array
from collections import namedtuple
from functools import partial
from itertools import combinations, count
from math import comb

from .errors import InvalidDimension
from .rank_engine import SparseMatrix
from .tensor import Tensor3


class WedgeRangeWarning(UserWarning):
    """p exceeds ceil(a/2) - 1: the flattening duplicates a complementary one."""


class KoszulMatrix(namedtuple("KoszulMatrix", "matrix")):
    """Wedge-power flattening as an explicit sparse matrix.

    Row index of (k, S') is colex(S')*c + k; column index of (j, S) is
    colex(S)*b + j.  At p = 0 this reproduces the classical mode-B
    flattening including its row order.
    """

    __slots__ = ()

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols


def redundancy_cap(a: int) -> int:
    """Largest p giving an essentially new flattening: ceil(a/2) - 1."""
    return (a + 1) // 2 - 1


def check_wedge_power(a: int, p: int) -> None:
    """Reject p outside 0..a-1 (InvalidDimension); warn with
    WedgeRangeWarning, on behalf of the caller's caller, when p exceeds
    redundancy_cap(a)."""
    if not (0 <= p <= a - 1):
        raise InvalidDimension(f"need 0 <= p <= a-1, got p={p}, a={a}")
    if p > redundancy_cap(a):
        warnings.warn(
            f"p={p} exceeds ceil(a/2)-1={redundancy_cap(a)}; "
            "the bound is still valid but duplicates a smaller power",
            WedgeRangeWarning,
            stacklevel=3,
        )


def _weight_parts(a: int, p: int, wa: list[int] | None, wb: dict[int, int], symmetries):
    """(reps, buckets): the weights of the p-th wedge flattening as the
    (orbit representative, orbit size) pairs of `koszul_weight_spaces`,
    and the set of subset weights sum wA(S) (0 alone when wa is None).

    A generator g = (piA, piB, ...) of `tensor.index_symmetries` sends
    column (j, S) to (piB(j), piA(S)), so it maps the weight w = u(S) +
    wB(j) to sigma_g(w) = u(piA S) + wB(piB j) whenever that is one value
    over all the (S, j) of weight w; a generator for which it is not, as
    when the subset weights u(S) -> u(piA S) already are not a function,
    is dropped.  All these weights come from sums of packed ints: each
    index carries its weight under the identity and under every generator,
    offset to be nonnegative, in the bit fields of one integer, each field
    wide enough for a sum of p + 1 of them, so that the sum over a subset
    packs u(S) with every u(piA S), and one more addition per
    (subset weight, j) packs w with every sigma_g(w).  The distinct subset
    sums are built index by index, as the sets of sums of q-subsets for
    q = 0..p, so the C(a, p) subsets are never enumerated.  The orbits of
    the weights under the kept generators give the pairs, each orbit
    written as its smallest weight, the largest of these first.  Under the
    reversal alone the representatives are the weights up to the middle
    one, so on the restricted map, whose weight spaces grow toward the
    middle, the largest space is written first.  With no grading (wb
    empty) the one weight is 0.
    """
    if not wb:
        return [(0, 1)], {0}
    top = max(map(abs, [*(wa or ()), *wb.values()]))
    bits = (2 * top * (p + 1)).bit_length()
    mask = (1 << bits) - 1
    shifts = range(0, bits * (len(symmetries) + 1), bits)

    def packed(weight, xs, factor: int) -> list[int]:
        """For each x of xs, weight[x] and then weight[pi(x)] for each
        generator's pi of the factor, offset by top, in consecutive fields."""
        maps = [{}] + [g[factor] for g in symmetries]
        return [sum(weight[pi.get(x, x)] + top << s for pi, s in zip(maps, shifts)) for x in xs]

    if wa is None:
        sums = {0}
    else:
        # by_size[q]: the packed weights of the q-subsets of the indices
        # taken so far, one index at a time; q runs downward, so that each
        # index is used once, and skips the sizes that the indices left can
        # no longer bring to p.
        by_size = [{0}] + [set() for _ in range(p)]
        for x, left in zip(packed(wa, range(a), 0), range(a - 1, -1, -1)):
            for q in range(p, max(p - left, 1) - 1, -1):
                by_size[q] |= {s + x for s in by_size[q - 1]}
        sums = by_size[p]
    buckets = {(s & mask) - p * top for s in sums}
    pack_b = packed(wb, wb, 1)
    shift = (p + 1) * top
    # image[w]: the packed weights of the first column of weight w seen;
    # dropped has bit g set when sigma_g takes two values on some weight.
    image: dict[int, int] = {}
    dropped = 0
    for col in {s + q for s in sums for q in pack_b}:
        diff = image.setdefault((col & mask) - shift, col) ^ col
        if diff:
            dropped |= sum(1 << g for g, s in enumerate(shifts) if diff >> s & mask)
    kept = [s for g, s in enumerate(shifts) if g and not dropped >> g & 1]
    reps: list[tuple[int, int]] = []
    seen: set[int] = set()
    for w in sorted(image):
        if w in seen:
            continue
        orbit, todo = {w}, [w]
        while todo:
            col = image[todo.pop()]
            for s in kept:
                x = (col >> s & mask) - shift
                if x not in orbit:
                    orbit.add(x)
                    todo.append(x)
        seen |= orbit
        reps.append((w, len(orbit)))
    return reps[::-1], buckets


def _insertion_tables(t: Tensor3, p: int, wa: list[int] | None, needed: dict[int, set[int]]):
    """Insertion tables of the first-factor indices, holding only the
    slices that the written weight spaces read: tables[u][i] is the slice
    of index i at subset weight u, for every i in needed[u].

    The slice has one cell per p-subset S avoiding i of weight
    sum wA(S) = u (all 0 when wa is None), in colex order of S, as a pair
    of arrays: the row offsets c*colex(S u {i}), each bitwise negated when
    the wedge sign is -1, and the column offsets b*colex(S).  One pass over
    the subsets, in reverse colex order, appends to every slice of its
    weight, and each slice is then reversed in place.  The subsets are
    streamed once, here, and never held as a list.
    """
    a, b, c = t.dims
    # Flat machine-integer arrays, unless the shape overflows them (a first
    # factor far larger than any table, say).
    fits = max(c * comb(a, p + 1), b * comb(a, p)) < 1 << 63
    new = partial(array, "q") if fits else list
    tables = {u: {i: (new(), new()) for i in indices} for u, indices in needed.items()}
    # For each subset weight, the indices whose slice it fills, increasing,
    # each with C(i, pos+1) for every insertion place.
    walks = {u: [(i, [comb(i, pos + 1) for pos in range(p + 1)], rows.append, cols.append)
                 for i, (rows, cols) in sorted(table.items())]
             for u, table in tables.items()}
    # binom[j][y] = C(y, j) for the elements y of a subset.  At p = 0 the one
    # subset is empty, so no row is read, and a may be far larger than any
    # table (combinations would hold range(a) too).
    binom = [[comb(y, j) for y in range(a)] for j in range(p + 2)] if p else []
    # combinations keeps the order of its input: over a-1, ..., 0 it gives
    # each subset as a decreasing tuple, in reverse colex order.
    subsets = combinations(range(a - 1, -1, -1), p) if p else [()]
    # The colex position of a subset s_0 < s_1 < ... is sum_j C(s_j, j+1).
    # Inserting i at place pos keeps the terms below pos (low), adds
    # C(i, pos+1), and moves each term from pos on one place up (high), so
    # no table of (p+1)-subsets is built.
    for q, s in zip(count(comb(a, p) - 1, -1), subsets):
        walk = walks.get(0 if wa is None else sum(map(wa.__getitem__, s)))
        if walk is None:
            continue
        s = s[::-1]
        col = q * b
        low, high, pos = 0, sum(map(list.__getitem__, binom[2:], s)), 0
        for i, insert, add_row, add_col in walk:
            while pos < p and s[pos] < i:
                y = s[pos]
                low += binom[pos + 1][y]
                high -= binom[pos + 2][y]
                pos += 1
            if pos < p and s[pos] == i:
                continue
            row = (low + insert[pos] + high) * c
            add_row(~row if pos % 2 else row)
            add_col(col)
    for table in tables.values():
        for rows, cols in table.values():
            rows.reverse()
            cols.reverse()
    return tables


def koszul_weight_spaces(t: Tensor3, p: int, grading, symmetries=()):
    """(reps, space): the p-th wedge flattening of t as orbit
    representatives with their sizes, a list of (weight, orbit size) pairs,
    and a function that writes the weight space of one weight as a
    `SparseMatrix` of the flattening's full shape, a union of row blocks of
    the whole one.  The rank of the flattening is the sum of size *
    rank(space(w)) over reps, and space refuses, with ValueError, a weight
    that is not in reps: the tables lack the slices it reads.  grading is
    `mirror_grading(t)`, or None for the whole flattening as one weight
    space, and symmetries are generators from `index_symmetries(t)`, none
    by default.  It checks p (`check_wedge_power`), for `koszul_flattening`
    and both routes of `bounds.flattening_rank`.

    The cells are those of `koszul_flattening`.  Column (j, S) gets the
    weight w = wB(j) + sum wA(S), and the grading makes the flattening
    block diagonal over w: the entry's row (k, S u {i}) has weight
    sum wA(S u {i}) - wC(k) = w.  A generator g = (piA, piB, piC) with
    t(gx) = eps t(x) sends column (j, S) to (piB(j), piA(S)) and row
    (k, S') to (piC(k), piA(S')), and the cell there is eps times the cell
    at (row, col) times the signs of sorting piA(S) and piA(S'): the only
    change is a sign per row and per column.  When the weight of the image
    column is one value sigma_g(w) on every column of weight w, g
    therefore maps the block of weight w onto that of weight sigma_g(w) by
    a signed row and column permutation, and the two blocks have equal
    ranks over Q and modulo every prime.  So every weight space of one
    orbit of the generators has one rank, and reps holds the orbits'
    smallest weights, largest first, each with the number of weights of
    its orbit (`_weight_parts`).  The other weights of each orbit are
    never written, and the insertion tables (`_insertion_tables`) hold
    the slices that the written weights read alone: for each weight w of
    reps and each entry (i, j, k), that of i at subset weight w - wB(j).
    A generator whose sigma_g is not a function of w is dropped; with no
    generator left, or none given, every weight is its own orbit, of
    size 1.  Under the reversal rho
    alone the representatives are the weights w < sigma(w), of size 2,
    and the self-mirror ones, of size 1.
    """
    a, b, c = t.dims
    check_wedge_power(a, p)
    wb = grading[1] if grading is not None else {}
    # At p = 0 the one subset is empty: no A weight is read, and a may be
    # far larger than any table.
    wa = [grading[0].get(x, 0) for x in range(a)] if grading is not None and p else None
    reps, buckets = _weight_parts(a, p, wa, wb, symmetries)

    # Entry (i, j, k) and subset S fix the cell, and the cell gives back
    # S, j, k and i = S' \ S, so every cell is written at most once and
    # holds +-v: nothing accumulates and no stored zero can arise.
    # SparseMatrix still rejects duplicates, so a broken table fails loudly.
    # Each weight's cells are written entry by entry in storage order, and
    # each entry's in colex order of S, so every row keeps its entries in
    # the order of the tensor's.  Over F_p, SparseMatrix reduces -v mod p.
    entries = [(i, j, k, v, -v, wb.get(j, 0)) for (i, j, k), v in t._cells.items()]
    # Only the slices that a written weight reads are built: those of the
    # other weights of an orbit never are.
    needed: dict[int, set[int]] = {}
    for i, wj in {(i, wj) for i, _, _, _, _, wj in entries}:
        for w, _ in reps:
            if w - wj in buckets:
                needed.setdefault(w - wj, set()).add(i)
    tables = _insertion_tables(t, p, wa, needed)

    def cells(w: int):
        for i, j, k, v, neg_v, wj in entries:
            table = tables.get(w - wj)
            if table is None:
                continue
            for row, col in zip(*table[i]):
                if row >= 0:
                    yield row + k, col + j, v
                else:
                    yield ~row + k, col + j, neg_v

    rows, cols = c * comb(a, p + 1), b * comb(a, p)
    written = {w for w, _ in reps}

    def space(w: int) -> SparseMatrix:
        if w not in written:
            raise ValueError(f"weight {w} is not one of the written representatives")
        return SparseMatrix(rows, cols, cells(w), t.field)

    return reps, space


def koszul_flattening(t: Tensor3, p: int) -> KoszulMatrix:
    """Flatten t against p-fold wedges of the first factor.

    For each tensor entry (i, j, k, v) and each p-subset S avoiding i, the
    value sign(i, S) * v lands at row (k, S u {i}), column (j, S).  Shape is
    c*C(a, p+1) rows by b*C(a, p) columns.  The matrix is the one weight
    space of `koszul_weight_spaces` with no grading, which checks p.
    """
    _, space = koszul_weight_spaces(t, p, None)
    return KoszulMatrix(space(0))


def classical_tensor(t: Tensor3, mode: str) -> Tensor3:
    """t with the chosen factor moved to the second place, the other two
    keeping their (A, B, C) order, so that its p = 0 wedge flattening is the
    classical flattening of t for that factor:
      mode "A": (b*c) x a, entry at row j*c + k, column i (first two factors swapped)
      mode "B": (a*c) x b, entry at row i*c + k, column j (t itself)
      mode "C": (a*b) x c, entry at row i*b + j, column k (last two factors swapped)
    """
    a, b, c = t.dims
    cells = t._cells.items()
    if mode == "A":
        return Tensor3((b, a, c), ((j, i, k, v) for (i, j, k), v in cells), t.field)
    if mode == "C":
        return Tensor3((a, c, b), ((i, k, j, v) for (i, j, k), v in cells), t.field)
    if mode != "B":
        raise InvalidDimension(f"mode must be A, B or C, got {mode!r}")
    return t


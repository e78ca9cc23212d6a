"""The wedge-power flattening, and the classical flattenings as its p = 0 case.

Basis vectors of the p-th exterior power of the first tensor factor are
labeled by strictly increasing index subsets, enumerated in
*colexicographic* order.  `koszul_flattening` computes, for each first-factor
index that occurs in the tensor, an insertion table of subset positions, so
each tensor entry is spread over its cells without any subset search and
the tables follow the entries, not the declared dimension.

The sign convention wedges the incoming vector on the left,
a_i ^ (a_{s1} ^ ... ^ a_{sp}); any consistent convention yields the same
ranks, but certificates must be bit-reproducible, so this one is fixed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .errors import InvalidDimension
from .rank_engine import SparseMatrix
from .tensor import Tensor3, mirror_grading


class WedgeRangeWarning(UserWarning):
    """p exceeds ceil(a/2) - 1: the flattening duplicates a complementary one."""


def _colex_tuples(a: int, p: int):
    if p == 0:
        yield ()
        return
    for top in range(p - 1, a):
        for rest in _colex_tuples(top, p - 1):
            yield rest + (top,)


@dataclass(frozen=True)
class KoszulMatrix:
    """Wedge-power flattening as an explicit sparse matrix with labels.

    Row index of (k, S') is colex(S')*c + k; column index of (j, S) is
    colex(S)*b + j.  At p = 0 this reproduces the classical mode-B
    flattening including its row order.  The labels are built on first
    access: rank computations never read them.

    A flattening split by mirror pairs (`koszul_flattening` with mirror)
    keeps in matrix the columns of self-mirror weight and in paired those
    of the lower weight of each mirror pair, both at their places in the
    full shape; pairs and fixed count those weight spaces.  Otherwise
    matrix is the whole flattening and paired is None.
    """

    matrix: SparseMatrix
    a: int
    b: int
    c: int
    p: int
    paired: SparseMatrix | None = None
    pairs: int = 0
    fixed: int = 0

    @property
    def parts(self) -> tuple[tuple[SparseMatrix, int], ...]:
        """(matrix, count) pairs: the flattening's rank is the sum of count *
        rank over them."""
        if self.paired is None:
            return ((self.matrix, 1),)
        return ((self.paired, 2), (self.matrix, 1))

    @property
    def rows(self) -> int:
        return self.matrix.rows

    @property
    def cols(self) -> int:
        return self.matrix.cols

    @cached_property
    def row_labels(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(k, S') per row: factor index and increasing (p+1)-subset."""
        return tuple((k, s) for s in _colex_tuples(self.a, self.p + 1) for k in range(self.c))

    @cached_property
    def col_labels(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(j, S) per column: factor index and increasing p-subset."""
        return tuple((j, s) for s in _colex_tuples(self.a, self.p) for j in range(self.b))

    def labels_json(self) -> dict:
        """Row/column labels as JSON-ready lists: [factor index, subset]."""
        return {
            "params": {"a": self.a, "b": self.b, "c": self.c, "p": self.p},
            "rows": [[k, list(s)] for k, s in self.row_labels],
            "cols": [[j, list(s)] for j, s in self.col_labels],
        }


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


def _mirror_map(subset_pairs, wb: dict[int, int], b: int) -> dict[int, int] | None:
    """sigma: weight -> mirror weight of the columns (j, S) whose j occurs,
    from the distinct (sum wA(S), sum wA(rho S)) pairs; None when one
    weight has two mirror weights."""
    sigma: dict[int, int] = {}
    for w, w_rho in subset_pairs:
        for j, wj in wb.items():
            m = wb[b - 1 - j] + w_rho
            if sigma.setdefault(wj + w, m) != m:
                return None
    return sigma


def koszul_flattening(t: Tensor3, p: int, mirror: bool = False) -> KoszulMatrix:
    """Flatten t against p-fold wedges of the first factor.

    For each tensor entry (i, j, k, v) and each p-subset S avoiding i, the
    value sign(i, S) * v lands at row (k, S u {i}), column (j, S).  Shape is
    c*C(a, p+1) rows by b*C(a, p) columns.

    With mirror set, a tensor that `mirror_grading` finds symmetric under
    the reversal rho is flattened by halves.  Column (j, S) gets the weight
    w = wB(j) + sum wA(S), and the grading makes the flattening block
    diagonal over w: the entry's row (k, S u {i}) has weight sum wA(S u {i})
    - wC(k) = w.  Its mirror weight w' is the weight of the column rho(j,
    S) = (b-1-j, {a-1-s}).  Reversing the first factor changes sign(i, S)
    by (-1)^p, so the flattening takes the cell at (rho(row), rho(col)) to
    +-1 times the cell at (row, col), one sign for all cells.  When w'
    is one value sigma(w) on every column of weight w, rho therefore maps
    the block of weight w onto that of weight sigma(w) by a signed row and
    column permutation, and the two blocks have equal ranks over every
    field.  Only the columns with w < sigma(w) (`paired`, to be counted
    twice) and with w = sigma(w) (`matrix`, counted once) are written; the
    others are their mirror images.  The tensor is flattened whole, into
    `matrix` alone, when it is not symmetric, when sigma is not a function
    of w, or when every column is its own mirror weight.
    """
    a, b, c = t.dims
    check_wedge_power(a, p)
    grading = mirror_grading(t) if mirror else None

    # Insertion table for each first-factor index i that occurs in an entry:
    # (column subset position, row subset position, sign) per p-subset S
    # avoiding i, in colex order of S.  The colex position of a subset
    # s_0 < s_1 < ... is sum_j C(s_j, j+1).  Inserting i at place pos keeps
    # the terms below pos (low), adds C(i, pos+1), and moves each term from
    # pos on one place up (high), so no table of (p+1)-subsets is built.
    # Under a grading, subset position q also records sum wA(S) in key[q],
    # and the distinct (sum wA(S), sum wA(rho S)) pairs are collected.
    used = sorted({i for i, _, _ in t._cells})
    inserts: dict[int, list[tuple[int, int, int]]] = {i: [] for i in used}
    key, subset_pairs = [], set()
    if grading is not None:
        # At p = 0 the one subset is empty: no A weight is read, and a may
        # be far larger than any table.
        wa = [grading[0].get(x, 0) for x in range(a)] if p else []
        wa_rho = wa[::-1]
    for q, s in enumerate(_colex_tuples(a, p)):
        if grading is not None:
            w = sum(map(wa.__getitem__, s))
            key.append(w)
            subset_pairs.add((w, sum(map(wa_rho.__getitem__, s))))
        low, high, pos = 0, sum(comb(x, j + 2) for j, x in enumerate(s)), 0
        for i in used:
            while pos < p and s[pos] < i:
                x = s[pos]
                low += comb(x, pos + 1)
                high -= comb(x, pos + 2)
                pos += 1
            if pos < p and s[pos] == i:
                continue
            inserts[i].append((q, low + comb(i, pos + 1) + high, -1 if pos % 2 else 1))

    # counts maps each column weight to 2 (w < sigma(w)), 1 (w = sigma(w))
    # or 0 (w > sigma(w)), over the columns whose second index occurs in an
    # entry; the others are empty.  Unsplit, every column has weight 0 and
    # counts once.
    counts, wb, groups = {0: 1}, {}, {i: {0: cells} for i, cells in inserts.items()}
    sigma = _mirror_map(subset_pairs, grading[1], b) if grading is not None else None
    if sigma is not None and any(w != m for w, m in sigma.items()):
        counts = {w: 2 if w < m else int(w == m) for w, m in sigma.items()}
        wb = grading[1]
        # Each table split by sum wA(S): one weight lookup per entry and
        # group then picks the cells of one part.
        for i, cells in inserts.items():
            groups[i] = by_key = {}
            for cell in cells:
                by_key.setdefault(key[cell[0]], []).append(cell)
    del inserts  # the flat tables of a split flattening are garbage now
    pairs = sum(n == 2 for n in counts.values())
    fixed = sum(n == 1 for n in counts.values()) if pairs else 0

    # Entry (i, j, k) and subset S fix the cell, and the cell gives back
    # S, j, k and i = S' \ S, so every cell is written at most once and
    # holds +-v: nothing accumulates and no stored zero can arise.
    # SparseMatrix still rejects duplicates, so a broken table fails loudly.
    # The entries stream into it: no list of them is ever held.
    p_mod = None if t.field.is_q else t.field.p

    def entries(part: int):
        for (i, j, k), v in t._cells.items():
            neg_v = -v if p_mod is None else p_mod - v
            wj = wb.get(j, 0)
            for w, cells in groups[i].items():
                if counts[wj + w] == part:
                    for qcol, qrow, sign in cells:
                        yield qrow * c + k, qcol * b + j, v if sign > 0 else neg_v

    rows, cols = c * comb(a, p + 1), b * comb(a, p)
    paired = SparseMatrix(rows, cols, entries(2), t.field) if pairs else None
    matrix = SparseMatrix(rows, cols, entries(1), t.field)
    return KoszulMatrix(matrix, a, b, c, p, paired, pairs, fixed)


def classical_tensor(t: Tensor3, mode: str) -> Tensor3:
    """t with the chosen factor moved to the second place, the other two
    keeping their (A, B, C) order, so that its p = 0 wedge flattening is the
    classical flattening of t for that factor (see `flatten_classical`)."""
    a, b, c = t.dims
    cells = t._cells.items()
    if mode == "A":
        return Tensor3((b, a, c), ((j, i, k, v) for (i, j, k), v in cells), t.field)
    if mode == "C":
        return Tensor3((a, c, b), ((i, k, j, v) for (i, j, k), v in cells), t.field)
    if mode != "B":
        raise InvalidDimension(f"mode must be A, B or C, got {mode!r}")
    return t


def flatten_classical(t: Tensor3, mode: str) -> SparseMatrix:
    """Classical flattening: the tensor as a linear map out of one factor's dual.

    It is the p = 0 wedge flattening of `classical_tensor(t, mode)`:
      mode "A": (b*c) x a, entry at row j*c + k, column i (first two factors swapped)
      mode "B": (a*c) x b, entry at row i*c + k, column j (t itself)
      mode "C": (a*b) x c, entry at row i*b + j, column k (last two factors swapped)
    """
    return koszul_flattening(classical_tensor(t, mode), 0).matrix

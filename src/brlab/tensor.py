"""Sparse exact 3-tensors, the matrix multiplication tensor, and the tensor
file format.

Tensors are immutable after construction; every operation returns a new
value, so sharing is safe.  Stored zeros are structurally forbidden, so
`nnz` counts exactly the nonzero entries.  Operations compute with plain
Python arithmetic and leave reduction to `FieldTag.coerce`, which the
constructor applies to every value.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .errors import (
    DimensionMismatch,
    FormatError,
    InvalidDimension,
    ZeroFactor,
    ZeroScalar,
)
from .scalars import FieldTag


class Tensor3:
    """Sparse 3-tensor with declared dims (a, b, c) and exact nonzero entries."""

    __slots__ = ("dims", "field", "_cells")

    def __init__(self, dims, entries, field: FieldTag):
        a, b, c = dims
        if a < 1 or b < 1 or c < 1:
            raise InvalidDimension(f"dims must be positive, got {dims}")
        cells = {}
        for i, j, k, v in entries:
            if not (0 <= i < a and 0 <= j < b and 0 <= k < c):
                raise InvalidDimension(f"entry ({i},{j},{k}) outside dims {dims}")
            if (i, j, k) in cells:
                raise FormatError(f"duplicate entry at ({i},{j},{k})")
            v = field.coerce(v)
            if v == 0:
                raise FormatError(f"stored zero at ({i},{j},{k})")
            cells[(i, j, k)] = v
        self.dims = (a, b, c)
        self.field = field
        self._cells = cells

    @property
    def nnz(self) -> int:
        return len(self._cells)

    def items(self) -> list[tuple[int, int, int, object]]:
        """Entries as (i, j, k, value) sorted lexicographically."""
        return [(i, j, k, self._cells[(i, j, k)]) for i, j, k in sorted(self._cells)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (self.dims, self.field, self._cells) == (other.dims, other.field, other._cells)

    def __repr__(self) -> str:
        return f"Tensor3(dims={self.dims}, nnz={self.nnz}, field={self.field})"


def matmul_tensor(m: int, n: int, l: int, field: FieldTag | None = None) -> Tensor3:
    """Structure tensor of (m x n) @ (n x l) -> (m x l) multiplication.

    Flat index conventions, fixed for bit-reproducible certificates:
      first factor   i = alpha*n + s   (row alpha of the left matrix, col s)
      second factor  j = s*l + t
      third factor   k = t*m + alpha
    All mnl structural entries equal 1.
    """
    if m < 1 or n < 1 or l < 1:
        raise InvalidDimension(f"matmul dims must be >= 1, got ({m},{n},{l})")
    field = field if field is not None else FieldTag.rationals()
    entries = [
        (alpha * n + s, s * l + t, t * m + alpha, 1)
        for alpha in range(m) for s in range(n) for t in range(l)
    ]
    return Tensor3((m * n, n * l, m * l), entries, field)


def direct_summands(t: Tensor3) -> list[tuple[Tensor3, int]]:
    """Split t into direct summands that share its first factor, with equal
    summands grouped: a list of (summand, count) pairs.

    Two entries fall in one summand when a chain of entries joins them, each
    link sharing a second- or a third-factor index (union-find over those
    indices, with the first factor shared by all).  Every wedge flattening
    of t is then block diagonal with one block per summand, so its rank is
    the sum of count * rank over the pairs.  A summand keeps dim a and
    relabels its own second and third indices 0, 1, ... in increasing
    order; its entries keep t's values.  Summands are grouped only when
    their local dims and sorted entry tuples, values included, are equal:
    the tuples are dict keys, and a dict lookup compares keys in full, so a
    hash collision cannot merge two summands.  Groups come out in order of
    their first summand's smallest second-factor index.  The cost is linear
    in nnz up to the sorts inside each summand.

    A tensor that does not split (no entries, or one summand that uses every
    second- and third-factor index) comes back as [(t, 1)] itself.
    """
    a, b, c = t.dims
    cells = t._cells
    # Second-factor index j is node j, third-factor index k is node ~k.
    parent: dict[int, int] = {}
    setdefault = parent.setdefault

    def find(x: int) -> int:
        setdefault(x, x)
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for _, j, k in cells:
        rj, rk = find(j), find(~k)
        if rj != rk:
            parent[rk] = rj
    members: dict[int, list] = {}
    for (i, j, k), v in cells.items():
        members.setdefault(find(j), []).append((i, j, k, v))
    if len(members) <= 1 and (not cells or len(parent) == b + c):
        return [(t, 1)]
    groups: dict[tuple, int] = {}
    for entries in sorted(members.values(), key=lambda es: min(e[1] for e in es)):
        js = {j: x for x, j in enumerate(sorted({e[1] for e in entries}))}
        ks = {k: x for x, k in enumerate(sorted({e[2] for e in entries}))}
        key = (len(js), len(ks),
               tuple(sorted((i, js[j], ks[k], v) for i, j, k, v in entries)))
        groups[key] = groups.get(key, 0) + 1
    return [(Tensor3((a, bs, cs), local, t.field), count)
            for (bs, cs, local), count in groups.items()]


def _symmetry_sign(t: Tensor3, move) -> int | None:
    """The sign eps = +-1 with t(move x) = eps * t(x) on every entry x, one
    sign for the whole tensor (-v is p - v over F_p), or None when there is
    none or t has no entries.  move maps cells one-to-one, so once every
    entry lands on an entry, the entries fill the image and every other
    cell maps to a zero: the identity holds on every cell."""
    cells = t._cells
    p = None if t.field.is_q else t.field.p
    flip = None
    for x, v in cells.items():
        u = cells.get(move(x))
        f = u != v  # over F_2, where -v is v, only a missing entry flips
        if f and u != (-v if p is None else p - v) or flip not in (None, f):
            return None
        flip = f
    return None if flip is None else -1 if flip else 1


def mirror_grading(t: Tensor3) -> tuple[dict[int, int], dict[int, int]] | None:
    """Weights (wA, wB) of an integer grading of t, when t is symmetric under
    the reversal rho: (i, j, k) -> (a-1-i, b-1-j, c-1-k); else None.

    Symmetric means t(rho x) = eps * t(x) on every entry, with one sign eps
    = +-1 for the whole tensor (-v is p - v over F_p).  The grading is an
    integer solution of wA(i) = wB(j) + wC(k) over the entries, taken from
    the exact kernel of that system on the indices in use: the kernel
    vectors, scaled to integers, are packed as the digits of one integer in
    a balanced base R above 2(a+3) times the largest digit.  A flattening
    column's weight sums at most a index weights, so two columns' weights
    are equal only when every digit is: they are equal exactly when every
    grading of the support makes them equal (the finest grading).  An index that no entry uses gets weight 0, which
    every equation allows.  The weights are checked on every entry before
    they are returned; wC is not returned, since a flattening reads only
    the first two factors' weights.  The cost is linear in nnz for the
    symmetry check, which a tensor without the symmetry usually fails at
    its first entry, plus an exact elimination on the a + b + c index
    system.
    """
    a, b, c = t.dims
    cells = t._cells
    if _symmetry_sign(t, lambda x: (a - 1 - x[0], b - 1 - x[1], c - 1 - x[2])) is None:
        return None
    # Unknown A_i is i, B_j is a + j, C_k is a + b + k.  pivots maps each
    # pivot unknown to its value as a combination of free unknowns, kept
    # fully reduced: no pivot unknown occurs on a right-hand side.
    pivots: dict[int, dict[int, Fraction]] = {}
    used: set[int] = set()
    for i, j, k in cells:
        eq: dict[int, Fraction] = {}
        for x, coef in ((i, 1), (a + j, -1), (a + b + k, -1)):
            used.add(x)
            for y, d in pivots.get(x, {x: 1}).items():
                eq[y] = eq.get(y, 0) + coef * d
        eq = {y: d for y, d in eq.items() if d}
        if not eq:
            continue
        x = min(eq)
        lead = eq.pop(x)
        expr = {y: -Fraction(d) / lead for y, d in eq.items()}
        for row in pivots.values():
            d = row.pop(x, 0)
            if d:
                for y, e in expr.items():
                    s = row.get(y, 0) + d * e
                    if s:
                        row[y] = s
                    else:
                        row.pop(y, None)
        pivots[x] = expr
    # One kernel vector per free unknown f: 1 at f, and at each pivot its
    # coefficient of f; scaled by the lcm of those denominators.
    free = sorted(used - pivots.keys())
    basis = []
    for f in free:
        vec = {f: Fraction(1)}
        vec.update((x, row[f]) for x, row in pivots.items() if f in row)
        scale = lcm(*(d.denominator for d in vec.values()))
        basis.append({x: int(d * scale) for x, d in vec.items()})
    top = max((abs(d) for vec in basis for d in vec.values()), default=0)
    radix = 2 * (a + 3) * top + 1
    weight = dict.fromkeys(used, 0)
    for digit, vec in enumerate(basis):
        place = radix ** digit
        for x, d in vec.items():
            weight[x] += d * place
    for i, j, k in cells:
        if weight[i] != weight[a + j] + weight[a + b + k]:
            return None
    return ({x: w for x, w in weight.items() if x < a},
            {x - a: w for x, w in weight.items() if a <= x < a + b})


def index_symmetries(t: Tensor3) -> list[tuple[dict, dict, dict, int]]:
    """Generators (piA, piB, piC, eps) of index-permutation automorphisms g
    of t: t(gx) = eps * t(x) on every cell, with one sign eps = +-1 for each
    generator (-v is p - v over F_p), gx = (piA(i), piB(j), piC(k)).  Each
    pi maps the indices in use of its factor onto themselves; an unused
    index is fixed.  The reversal rho comes first when t is symmetric under
    it (`mirror_grading`).

    The search is individualization-refinement (McKay and Piperno,
    "Practical graph isomorphism, II", 2014) on the indices in use of the
    three factors.  Colour refinement splits the indices by factor and then
    by the multiset of (value up to sign, colours of the other two indices)
    over their entries, until the colours are stable; colours are numbered
    from these signatures alone, so equal steps on isomorphic tensors give
    equal colours.  One search path individualizes the first index of the
    first cell of two or more, refines, and repeats until every index has
    its own colour.  Then, from the deepest level up, each other index w of
    that level's cell is individualized instead and followed down one path,
    which takes the first path's later choices where it can.  At each
    depth, matching its cells in order with the first path's cells of the
    same colour gives a candidate g, taken when it maps the first path's
    index to w (at the leaf, the match is leaf to leaf).  Orbit pruning
    skips each w that the generators found so far, among those that fix
    the path above that level, already map the first path's index to.
    Every candidate is verified on every entry before it is kept, so a
    generator is an automorphism whatever the search misses.  The cost is
    a few refinements per index of a cell on the path, each linear in nnz
    up to sorting.
    """
    cells = t._cells
    dims = t.dims
    used = [sorted({x[f] for x in cells}) for f in range(3)]
    labels = [(f, i) for f in range(3) for i in used[f]]
    vertex = {label: x for x, label in enumerate(labels)}
    n = len(labels)
    p = None if t.field.is_q else t.field.p
    unsigned = abs if p is None else lambda v: min(v, p - v)
    kinds = {u: e for e, u in enumerate(sorted({unsigned(v) for v in cells.values()}))}
    # near[x]: (value class, the other two indices in factor order) per entry of x.
    near: list[list[tuple[int, int, int]]] = [[] for _ in labels]
    for (i, j, k), v in cells.items():
        x, y, z, e = vertex[0, i], vertex[1, j], vertex[2, k], kinds[unsigned(v)]
        near[x].append((e, y, z))
        near[y].append((e, x, z))
        near[z].append((e, x, y))

    def refine(colour: list[int]) -> list[int]:
        count = len(set(colour))
        while True:
            sigs = [(colour[x], tuple(sorted((e, colour[y], colour[z]) for e, y, z in near[x])))
                    for x in range(n)]
            rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
            colour = [rank[s] for s in sigs]
            if len(rank) == count:
                return colour
            count = len(rank)

    def split(colour: list[int], v: int) -> list[int]:
        return refine([2 * col + (x != v) for x, col in enumerate(colour)])

    def cells_of(colour: list[int]) -> list[list[int]]:
        members: list[list[int]] = [[] for _ in range(max(colour, default=-1) + 1)]
        for x, col in enumerate(colour):
            members[col].append(x)
        return members

    def first_cell(colour: list[int]) -> list[int]:
        return next((xs for xs in cells_of(colour) if len(xs) > 1), [])

    def orbit(x: int, perms) -> set[int]:
        seen, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for perm in perms:
                if perm[y] not in seen:
                    seen.add(perm[y])
                    todo.append(perm[y])
        return seen

    def as_maps(perm: list[int]):
        maps: tuple[dict, dict, dict] = ({}, {}, {})
        for x, y in enumerate(perm):
            f, i = labels[x]
            maps[f][i] = labels[y][1]
        return maps

    def verified(perm: list[int]):
        pa, pb, pc = as_maps(perm)
        eps = _symmetry_sign(t, lambda x: (pa[x[0]], pb[x[1]], pc[x[2]]))
        return None if eps is None else (pa, pb, pc, eps)

    # Colours keep the factor order (each refinement ranks by the old
    # colour first), so matching two colourings cell by cell maps every
    # factor to itself.
    path: list[tuple[list[int], list[int]]] = []
    colour = refine([f for f, _ in labels])
    while cell := first_cell(colour):
        path.append((colour, cell))
        colour = split(colour, cell[0])
    colourings = [colour for colour, _ in path] + [colour]
    chosen = [cell[0] for _, cell in path]
    found: list[tuple[list[int], tuple]] = []
    rho = _symmetry_sign(t, lambda x: tuple(d - 1 - y for d, y in zip(dims, x)))
    if rho is not None:
        perm = [vertex[f, dims[f] - 1 - i] for f, i in labels]
        found.append((perm, as_maps(perm) + (rho,)))
    for level in range(len(path) - 1, -1, -1):
        colour, cell = path[level]
        prefix = chosen[:level]
        stab = [perm for perm, _ in found if all(perm[x] == x for x in prefix)]
        reached = orbit(chosen[level], stab)
        for w in cell:
            if w in reached:
                continue
            # Follow w down, at each depth matching its cells in order with
            # the first path's cells of the same colour: the candidate at
            # the leaf is the leaf-to-leaf match, and an earlier one that
            # verifies ends the descent.
            other = split(colour, w)
            for depth in range(level + 1, len(colourings)):
                theirs, mine = cells_of(colourings[depth]), cells_of(other)
                if list(map(len, theirs)) != list(map(len, mine)):
                    break
                perm = [0] * n
                for xs, ys in zip(theirs, mine):
                    for x, y in zip(xs, ys):
                        perm[x] = y
                g = verified(perm) if perm[chosen[level]] == w else None
                if g is not None:
                    found.append((perm, g))
                    if all(perm[x] == x for x in prefix):
                        stab.append(perm)
                        reached = orbit(chosen[level], stab)
                    break
                if depth < len(chosen):
                    deeper = mine[colourings[depth][chosen[depth]]]
                    other = split(other, chosen[depth] if chosen[depth] in deeper else deeper[0])
    return [g for _, g in found]


def rank_one_tensor(u, v, w, field: FieldTag | None = None) -> Tensor3:
    """Outer product u (x) v (x) w; factor vectors must be nonzero."""
    field = field if field is not None else FieldTag.rationals()
    u = [field.coerce(x) for x in u]
    v = [field.coerce(x) for x in v]
    w = [field.coerce(x) for x in w]
    for name, vec in (("u", u), ("v", v), ("w", w)):
        if not any(vec):
            raise ZeroFactor(f"factor {name} is zero")
    entries = []
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            uv = ui * vj
            for k, wk in enumerate(w):
                if wk:
                    entries.append((i, j, k, uv * wk))
    return Tensor3((len(u), len(v), len(w)), entries, field)


def add_tensors(s: Tensor3, t: Tensor3) -> Tensor3:
    if s.dims != t.dims:
        raise DimensionMismatch(f"dims {s.dims} != {t.dims}")
    if s.field != t.field:
        raise DimensionMismatch(f"fields {s.field} != {t.field}")
    field = s.field
    cells = dict(s._cells)
    for key, v in t._cells.items():
        x = field.coerce(cells.get(key, 0) + v)
        if x == 0:
            cells.pop(key, None)
        else:
            cells[key] = x
    return Tensor3(s.dims, ((i, j, k, v) for (i, j, k), v in cells.items()), field)


def scale_tensor(t: Tensor3, lam) -> Tensor3:
    field = t.field
    lam = field.coerce(lam)
    if lam == 0:
        raise ZeroScalar("scaling by zero is rejected (no stored zeros)")
    return Tensor3(t.dims, ((i, j, k, lam * v) for (i, j, k), v in t._cells.items()), field)


# ---------------------------------------------------------------------------
# tensor file format (JSON):
#   {"field": "Q" | "Fp:<p>", "dims": [a, b, c], "entries": [[i, j, k, "val"], ...]}
# with entries strictly lexicographically sorted by (i, j, k)
# ---------------------------------------------------------------------------

def tensor_to_json(t: Tensor3) -> dict:
    ser = t.field.serialize
    return {
        "field": str(t.field),
        "dims": list(t.dims),
        "entries": [[i, j, k, ser(v)] for i, j, k, v in t.items()],
    }


def _json_ints(xs) -> bool:
    """True when every item is a JSON integer (a bool is not one)."""
    return all(type(x) is int for x in xs)


def tensor_from_json(doc: dict) -> Tensor3:
    try:
        if not isinstance(doc["field"], str):
            raise TypeError(f"field must be a string, got {doc['field']!r}")
        field = FieldTag.from_string(doc["field"])
        dims = doc["dims"]
        raw = doc["entries"]
        if not isinstance(raw, list):
            raise TypeError(f"entries must be a list, got {type(raw).__name__}")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed tensor document: {exc}") from exc
    if not isinstance(dims, (list, tuple)) or len(dims) != 3 or not _json_ints(dims):
        raise FormatError(f"dims must be a list of 3 integers, got {dims!r}")
    entries = []
    prev = None
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 4:
            raise FormatError(f"bad entry {item!r}")
        i, j, k = item[:3]
        if not _json_ints((i, j, k)):
            raise FormatError(f"bad index in entry {item!r}")
        if prev is not None and (i, j, k) <= prev:
            raise FormatError(f"entries not strictly sorted at ({i},{j},{k})")
        prev = (i, j, k)
        entries.append((i, j, k, field.parse(str(item[3]))))
    return Tensor3(dims, entries, field)


def save_tensor(t: Tensor3, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(tensor_to_json(t), fh)
        fh.write("\n")


def load_tensor(path) -> Tensor3:
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"not an ASCII file: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise FormatError(f"not JSON: {exc}") from exc
    return tensor_from_json(doc)

"""Sparse exact 3-tensors, the matrix multiplication tensor, and flattenings.

Tensors are immutable after construction; every operation returns a new
value, so sharing (and caching of flattenings) is safe.  Stored zeros are
structurally forbidden: sparsity counts feed strategy choices downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    FormatError,
    InvalidDimension,
    ZeroFactor,
    ZeroScalar,
)
from .rank_engine import SparseMatrix
from .scalars import FieldTag


class Tensor3:
    """Sparse 3-tensor with declared dims (a, b, c) and exact nonzero entries."""

    __slots__ = ("dims", "field", "_cells")

    def __init__(self, dims, entries, field: FieldTag):
        a, b, c = dims
        if a < 1 or b < 1 or c < 1:
            raise InvalidDimension(f"dims must be positive, got {dims}")
        cells = {}
        zero = field.zero()
        for i, j, k, v in entries:
            if not (0 <= i < a and 0 <= j < b and 0 <= k < c):
                raise InvalidDimension(f"entry ({i},{j},{k}) outside dims {dims}")
            if (i, j, k) in cells:
                raise FormatError(f"duplicate entry at ({i},{j},{k})")
            v = field.coerce(v)
            if v == zero:
                raise FormatError(f"stored zero at ({i},{j},{k})")
            cells[(i, j, k)] = v
        self.dims = (a, b, c)
        self.field = field
        self._cells = cells

    @property
    def nnz(self) -> int:
        return len(self._cells)

    def is_zero(self) -> bool:
        return not self._cells

    def items(self) -> list[tuple[int, int, int, object]]:
        """Entries as (i, j, k, value) sorted lexicographically."""
        return [(i, j, k, self._cells[(i, j, k)]) for i, j, k in sorted(self._cells)]

    def value(self, i: int, j: int, k: int):
        return self._cells.get((i, j, k), self.field.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (self.dims, self.field, self._cells) == (other.dims, other.field, other._cells)

    def __repr__(self) -> str:
        return f"Tensor3(dims={self.dims}, nnz={self.nnz}, field={self.field})"


@dataclass(frozen=True)
class FactorMap:
    """Dense linear map on one tensor factor, target_dim x source_dim.

    Values are ints or Fractions; they are coerced into the tensor's field
    at application time, so one map serves both backends.
    """

    source_dim: int
    target_dim: int
    matrix: tuple[tuple[object, ...], ...]

    def __post_init__(self) -> None:
        if self.source_dim < 1 or self.target_dim < 0:
            raise InvalidDimension(
                f"bad factor-map shape {self.target_dim}x{self.source_dim}")
        if len(self.matrix) != self.target_dim or any(
                len(row) != self.source_dim for row in self.matrix):
            raise DimensionMismatch(
                f"matrix shape does not match declared {self.target_dim}x{self.source_dim}")

    @staticmethod
    def identity(n: int) -> "FactorMap":
        return FactorMap(n, n, tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(target_dim: int, source_dim: int) -> "FactorMap":
        return FactorMap(source_dim, target_dim, tuple(
            tuple(0 for _ in range(source_dim)) for _ in range(target_dim)))


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
    one = field.one()
    entries = [
        (alpha * n + s, s * l + t, t * m + alpha, one)
        for alpha in range(m) for s in range(n) for t in range(l)
    ]
    return Tensor3((m * n, n * l, m * l), entries, field)


def rank_one_tensor(u, v, w, field: FieldTag | None = None) -> Tensor3:
    """Outer product u (x) v (x) w; factor vectors must be nonzero."""
    field = field if field is not None else FieldTag.rationals()
    zero = field.zero()
    u = [field.coerce(x) for x in u]
    v = [field.coerce(x) for x in v]
    w = [field.coerce(x) for x in w]
    for name, vec in (("u", u), ("v", v), ("w", w)):
        if not vec or all(x == zero for x in vec):
            raise ZeroFactor(f"factor {name} is zero")
    mul = field.mul
    entries = []
    for i, ui in enumerate(u):
        if ui == zero:
            continue
        for j, vj in enumerate(v):
            if vj == zero:
                continue
            uv = mul(ui, vj)
            for k, wk in enumerate(w):
                if wk == zero:
                    continue
                entries.append((i, j, k, mul(uv, wk)))
    return Tensor3((len(u), len(v), len(w)), entries, field)


def add_tensors(s: Tensor3, t: Tensor3) -> Tensor3:
    if s.dims != t.dims:
        raise DimensionMismatch(f"dims {s.dims} != {t.dims}")
    if s.field != t.field:
        raise DimensionMismatch(f"fields {s.field} != {t.field}")
    field = s.field
    zero = field.zero()
    cells = dict(s._cells)
    for key, v in t._cells.items():
        x = field.add(cells.get(key, zero), v)
        if x == zero:
            cells.pop(key, None)
        else:
            cells[key] = x
    return Tensor3(s.dims, ((i, j, k, v) for (i, j, k), v in cells.items()), field)


def scale_tensor(t: Tensor3, lam) -> Tensor3:
    field = t.field
    lam = field.coerce(lam)
    if lam == field.zero():
        raise ZeroScalar("scaling by zero is rejected (no stored zeros)")
    mul = field.mul
    return Tensor3(
        t.dims,
        ((i, j, k, mul(lam, v)) for (i, j, k), v in t._cells.items()),
        field,
    )


def flatten_classical(t: Tensor3, mode: str) -> SparseMatrix:
    """Classical flattening: the tensor as a linear map out of one factor's dual.

    Row/column conventions (the remaining factors keep their (A, B, C) order):
      mode "A": (b*c) x a, entry at row j*c + k, column i
      mode "B": (a*c) x b, entry at row i*c + k, column j
      mode "C": (a*b) x c, entry at row i*b + j, column k
    """
    a, b, c = t.dims
    if mode == "A":
        shape = (b * c, a)
        place = lambda i, j, k: (j * c + k, i)
    elif mode == "B":
        shape = (a * c, b)
        place = lambda i, j, k: (i * c + k, j)
    elif mode == "C":
        shape = (a * b, c)
        place = lambda i, j, k: (i * b + j, k)
    else:
        raise InvalidDimension(f"mode must be A, B or C, got {mode!r}")
    entries = []
    for (i, j, k), v in t._cells.items():
        r, col = place(i, j, k)
        entries.append((r, col, v))
    return SparseMatrix(shape[0], shape[1], entries, t.field)


def project_factor_A(t: Tensor3, p: FactorMap) -> Tensor3:
    """Apply a linear map to the first factor: T'_{i'jk} = sum_i P_{i'i} T_{ijk}."""
    a, b, c = t.dims
    if p.source_dim != a:
        raise DimensionMismatch(
            f"projector expects source dim {p.source_dim}, tensor has a = {a}")
    if p.target_dim < 1:
        raise InvalidDimension("projected tensor would have an empty factor")
    field = t.field
    zero = field.zero()
    matrix = [[field.coerce(x) for x in row] for row in p.matrix]
    cells: dict[tuple[int, int, int], object] = {}
    for (i, j, k), v in t._cells.items():
        for i2 in range(p.target_dim):
            coeff = matrix[i2][i]
            if coeff == zero:
                continue
            key = (i2, j, k)
            x = field.add(cells.get(key, zero), field.mul(coeff, v))
            if x == zero:
                cells.pop(key, None)
            else:
                cells[key] = x
    return Tensor3(
        (p.target_dim, b, c),
        ((i, j, k, v) for (i, j, k), v in cells.items()),
        field,
    )


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


def tensor_from_json(doc: dict) -> Tensor3:
    try:
        if not isinstance(doc["field"], str):
            raise TypeError(f"field must be a string, got {doc['field']!r}")
        field = FieldTag.from_string(doc["field"])
        dims = tuple(int(x) for x in doc["dims"])
        raw = doc["entries"]
        if not isinstance(raw, list):
            raise TypeError(f"entries must be a list, got {type(raw).__name__}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed tensor document: {exc}") from exc
    if len(dims) != 3:
        raise FormatError(f"dims must have length 3, got {dims}")
    entries = []
    prev = None
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 4:
            raise FormatError(f"bad entry {item!r}")
        try:
            i, j, k = int(item[0]), int(item[1]), int(item[2])
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad index in entry {item!r}") from exc
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
        except json.JSONDecodeError as exc:
            raise FormatError(f"not JSON: {exc}") from exc
    return tensor_from_json(doc)

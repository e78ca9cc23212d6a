"""Fixed pure-Python reference workload: the unit of the `*_ref` metrics.

The host this benchmark was built on is shared, and its speed drifts by a
third or more over tens of seconds; a job's raw wall time drifts with it.
Dividing a job's time by the time of this workload, run just before and
just after the job, cancels most of that drift. The workload resembles
brlab's hot loops (a dict keyed by index pairs accumulating Fractions, then
sparse elimination mod p on dict rows) but calls no brlab code, so no
change to brlab moves it. Changing it changes the unit of every recorded
`*_ref` value.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

_P = 2_147_483_647
_DIM = 110
_TERMS = 6000


def _accumulate(rng: random.Random) -> dict[tuple[int, int], Fraction]:
    cells: dict[tuple[int, int], Fraction] = {}
    for _ in range(_TERMS):
        key = (rng.randrange(_DIM), rng.randrange(_DIM))
        value = cells.get(key, Fraction(0)) + Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if value:
            cells[key] = value
        else:
            cells.pop(key, None)
    return cells


def _rank_mod_p(rows: list[dict[int, int]]) -> int:
    rank = 0
    for c in range(_DIM):
        pivot = next((r for r in range(rank, len(rows)) if c in rows[r]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], -1, _P)
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            f = row.pop(c, 0) * inv % _P
            if not f:
                continue
            for k, v in prow.items():
                if k == c:
                    continue
                x = (row.get(k, 0) - f * v) % _P
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
        rank += 1
    return rank


def run_reference() -> tuple[float, float]:
    """(wall seconds, CPU seconds) of one run of the fixed workload."""
    # Garbage collection would also scan whatever the calling process
    # holds, which is not part of the workload.
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        cells = _accumulate(random.Random(1112_6007))
        rows: list[dict[int, int]] = [{} for _ in range(_DIM)]
        for (r, c), v in cells.items():
            x = v.numerator * pow(v.denominator, -1, _P) % _P
            if x:
                rows[r][c] = x
        _rank_mod_p(rows)
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        gc.enable()

"""Run one brlab CLI job in-process with a span around each public call.

Usage: python3 tracer.py JOB_ID BRLAB_ARG...   (brlab importable on PYTHONPATH)

Each wrapped call records one span: id, name, start, end, parent span id
and job id.  Spans stay in memory; the job's exit code, its stdout and the
spans are printed as one JSON document when the job has ended.  After the
job, the flattenings it built are re-validated and split into blocks here,
as spans of their own, so that none of that work lands inside a job span.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import brlab.binaryforms
import brlab.bounds
import brlab.cli
import brlab.exterior
import brlab.rank_engine
import brlab.repcomb
import brlab.tensor

_MODULES = (brlab.binaryforms, brlab.bounds, brlab.cli, brlab.exterior,
            brlab.rank_engine, brlab.repcomb, brlab.tensor)

# (defining module, function): the public calls on a job's path.
_TRACED = (
    (brlab.tensor, "matmul_tensor"),
    (brlab.tensor, "load_tensor"),
    (brlab.binaryforms, "restrict_matmul"),
    (brlab.exterior, "koszul_flattening"),
    (brlab.rank_engine, "rank_certified"),
    (brlab.rank_engine, "rank_mod_p"),
    (brlab.rank_engine, "rank_exact_q"),
    (brlab.bounds, "bound_koszul"),
    (brlab.bounds, "bound_matmul_restricted"),
    (brlab.repcomb, "kernel_dim_formula"),
    (brlab.repcomb, "kernel_dim_pieri"),
)


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder; one instance per traced job."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.flattenings = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "job": self.job,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter()}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        measure_rss = name in ("exterior.koszul_flattening", "rank_engine.rank_certified")

        def traced(*args, **kwargs):
            with self.span(name) as record:
                if measure_rss:
                    record["rss_before_mb"] = peak_rss_mb()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if measure_rss:
                        record["rss_after_mb"] = peak_rss_mb()
                if name == "exterior.koszul_flattening":
                    record["nnz"] = result.matrix.nnz
                    record["cells"] = result.rows * result.cols
                    self.flattenings.append(result.matrix)
            return result
        return traced

    def install(self) -> None:
        """Rebind every module-level reference to a traced function."""
        for home, attr in _TRACED:
            original = getattr(home, attr)
            wrapper = self.wrap(original, f"{home.__name__.split('.')[-1]}.{attr}")
            for module in _MODULES:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)


def count_blocks(rows: int, cols: int, entries) -> tuple[int, int]:
    """Connected components of the row/column graph of the nonzero entries:
    (number of blocks, rows in the largest block)."""
    parent = list(range(rows + cols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c, _ in entries:
        ra, rb = find(r), find(rows + c)
        if ra != rb:
            parent[ra] = rb
    block_rows: dict[int, int] = {}
    for r in {r for r, _, _ in entries}:
        root = find(r)
        block_rows[root] = block_rows.get(root, 0) + 1
    return len(block_rows), max(block_rows.values(), default=0)


def run(job: str, argv: list[str]) -> dict:
    tracer = Tracer(job)
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = brlab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # An escaped exception ends the CLI process with a traceback and
            # exit code 1; record it the same way.
            traceback.print_exc()
            code = 1
    for matrix in tracer.flattenings:
        entries = matrix.items()
        with tracer.span("rank_engine.SparseMatrix"):
            brlab.rank_engine.SparseMatrix(matrix.rows, matrix.cols, entries, matrix.field)
        with tracer.span("bench.blocks") as record:
            record["blocks"], record["max_block_rows"] = count_blocks(
                matrix.rows, matrix.cols, entries)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "spans": tracer.spans}


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1], sys.argv[2:])))

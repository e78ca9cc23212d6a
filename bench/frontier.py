"""One-off frontier probe, outside the gated benchmark: the restricted
n x n x n certificate at one n, run once as a CLI process.

Usage (from the repository root): python3 bench/frontier.py [--n 8]

Prints one JSON line: wall, CPU and peak RSS of the job process, the rank
time the certificate reports (timings_ms), and whether the certificate
passed the benchmark's check.
"""

from __future__ import annotations

import argparse
import json
import sys

import jobs
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=8)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import brlab

    workdir = run.WORK / "frontier"
    workdir.mkdir(parents=True, exist_ok=True)
    job = jobs.restricted_job(args.n)
    res = run.run_process(run.cli_argv(job.argv), workdir)
    cert = json.loads(res["stdout"]) if res["exit"] == 0 else {}
    print(json.dumps({
        "n": args.n, "verdict": jobs.verdict(job, res["exit"], res["stdout"], brlab),
        "wall_s": res["wall_s"], "cpu_s": res["cpu_s"], "peak_rss_mb": res["rss_mb"],
        "rank_s": cert.get("timings_ms", 0.0) / 1000.0, "field": cert.get("field"),
        "rows": cert.get("rows"), "cols": cert.get("cols"), "bound": cert.get("bound"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Cold start: a CLI job in a fresh interpreter loads only what it uses.

Each certificate job is one process, so the modules `import brlab` pulls in
are paid on every job.  `dataclasses` brings `inspect`, `ast`, `dis` and
`tokenize` with it, and `hashlib` is needed only for the content hash of a
tensor file.  Modules that the interpreter's own start-up already loaded
(a `site` hook, say) are not counted against the job.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brlab

# Runs `brlab.cli.main` on its arguments, then lists the loaded modules
# after a marker line.
_JOB = """
import sys
from brlab.cli import main
code = main(sys.argv[1:])
print("-- modules --")
print("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""

_NOT_LOADED = ("dataclasses", "inspect", "hashlib")


def _python(*args):
    src = str(Path(brlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _job(*argv):
    """The job's stdout and the modules it added to a bare interpreter's."""
    baseline = set(_python("-c", "import sys; print('\\n'.join(sys.modules))").split())
    out, _, modules = _python("-c", _JOB, *argv).partition("-- modules --\n")
    return out, set(modules.split()) - baseline


@pytest.mark.parametrize("argv", [
    ["bound", "--method", "koszul-restricted", "--m", "3", "--n", "3", "--l", "3"],
    ["kernel-dim", "--m", "2", "--n", "2", "--p", "1", "--l", "2", "--check", "rank"],
], ids=["restricted-333", "kernel-dim-rank"])
def test_built_in_tensor_jobs_load_neither_dataclasses_nor_hashlib(argv):
    out, added = _job(*argv)
    assert json.loads(out)
    assert "brlab.bounds" in added
    assert added.isdisjoint(_NOT_LOADED), sorted(added.intersection(_NOT_LOADED))


def test_tensor_file_job_hashes_the_file_as_before(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"field": "Q", "dims": [2, 2, 3], "entries": [[0, 0, 0, "1"], '
                    '[0, 1, 2, "-2"], [1, 0, 1, "1/3"], [1, 1, 0, "5"]]}\n', encoding="ascii")
    out, added = _job("bound", "--method", "koszul", "--p", "0", "--tensor", str(path))
    doc = json.loads(out)
    assert doc["rank"] == 2
    # The digest of the canonical JSON form, as written before hashlib was
    # imported lazily.
    assert doc["tensor_sha256"] == (
        "b3a2184ab819e8dde8e192c64968dd3c6ba25e4f85448fe35bd25a72f0047dac")
    assert added.isdisjoint({"dataclasses", "inspect"})

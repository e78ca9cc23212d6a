"""The README's CLI examples run as written and print what their comments say."""

import json
import re
import shlex
from pathlib import Path

import brlab.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples() -> list[tuple[list[str], str]]:
    """(argv, comment) for every `brlab` line of the sh block under "## CLI".

    An optional `[--flag]` group yields one example without it and one with.
    """
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if not line.startswith("brlab "):
            continue
        command, _, comment = line.partition("#")
        optional = re.search(r"\[([^\]]*)\]", command)
        variants = [command]
        if optional:
            variants = [command.replace(optional.group(0), ""),
                        command.replace(optional.group(0), optional.group(1))]
        for variant in variants:
            examples.append((shlex.split(variant)[1:], comment.strip()))
    return examples


def _check_comment(comment: str, out: str) -> None:
    """Assert the values that a comment states about the command's output."""
    if m := re.fullmatch(r"bound (\d+)", comment):
        assert json.loads(out)["bound"] == int(m.group(1))
    elif m := re.fullmatch(r"p = (\d+) case", comment):
        assert json.loads(out)["p"] == int(m.group(1))
    elif m := re.fullmatch(r"dims (\[[\d, ]*\])", comment):
        assert json.loads(out)["dims"] == json.loads(m.group(1))
    elif m := re.fullmatch(r"(\d+) three ways, agree", comment):
        doc = json.loads(out)
        value = int(m.group(1))
        assert (doc["pieri"], doc["formula"], doc["rank_based"]) == (value, value, value)
        assert doc["agree"] is True


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BRLAB_PRIMES", raising=False)
    examples = _cli_examples()
    assert len(examples) >= 10
    for argv, comment in examples:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        _check_comment(comment, captured.out)

"""The README's examples run as written: a documented flag that goes away
fails here."""
import re
import shlex
from pathlib import Path

from qrns.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _code_block(heading: str) -> str:
    """The first fenced block after the ``## heading`` line."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"^```[a-z]*\n(.*?)^```$", section, re.M | re.S).group(1)


def test_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _code_block("CLI").splitlines()
    assert lines and all(line.startswith("qrns ") for line in lines)
    selected = []
    for line in lines:
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        promised = re.match(r"\s*-> (\([\d, ]+\))", comment)
        if promised:
            selected.append(promised.group(1))
            assert out.startswith(f"selected {promised.group(1)} "), line
    assert selected == ["(5, 8, 9)", "(5, 8, 9, 17)"]


def test_library_example_runs():
    names: dict = {}
    exec(_code_block("Library"), names)
    assert names["rns"].moduli == (5, 8, 9)
    assert names["result"].reconstructed == 300

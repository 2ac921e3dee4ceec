"""README's Python examples, run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(capsys):
    # the blocks run in order in one namespace, as a reader pastes them
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) == text.count("```python")
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the last example's comment states what it prints, rounded
    energy, turns = capsys.readouterr().out.splitlines()[-1].split()
    assert float(energy) == pytest.approx(-13.13, abs=1e-9) and turns == "093"

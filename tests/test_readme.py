"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_examples() -> list[str]:
    """The ``python`` code blocks of the README's "Library" section."""
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", library, flags=re.S)


def test_the_library_section_shows_two_examples():
    assert len(_library_examples()) == 2


def test_the_run_methods_example_prints_every_method(capsys):
    exec(compile(_library_examples()[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "T0", "T0+T2", "T0+T2+T4", "T[1/1]", "T[2/1]"]


def test_the_stack_example_integrates_a_lone_row_and_a_stack():
    namespace = {}
    exec(compile(_library_examples()[1], "README.md", "exec"), namespace)
    # 4 pi int_0^2 r^2 e^-r dr = 4 pi (2 - 10 e^-2).
    assert type(namespace["count"]) is float
    assert namespace["count"] == pytest.approx(
        4.0 * np.pi * (2.0 - 10.0 * np.exp(-2.0)), rel=1e-12)
    assert namespace["poles"] == pytest.approx([1.0])
    assert namespace["both"].shape == (2,)
    assert namespace["both"][1] == pytest.approx(namespace["count"],
                                                 rel=1e-12)

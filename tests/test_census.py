"""tools/census.py's two readers of a module: its refusal sites and its
executable lines. The tool is loaded by path, as it is not a package."""

import runpy
from pathlib import Path

import pytest

CENSUS = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "census.py"))

MODULE = '''\
def refuse(x):
    if x < 0:
        raise ValueError(
            "negative")
    if x == 0:
        return None
    if x == 1:
        return
    return x


def outer():
    def inner():
        y = 1
        return y
    return inner
'''


@pytest.fixture
def module(tmp_path) -> Path:
    path = tmp_path / "m.py"
    path.write_text(MODULE, encoding="utf-8")
    return path


def test_sites_are_raises_and_returns_of_none_spanning_their_lines(module):
    path = str(module.resolve())
    assert CENSUS["sites"](module.parent) == [
        (path, 3, 4, 'raise ValueError('),
        (path, 6, 6, "return None"),
    ]


def test_executable_lines_include_nested_function_bodies(module):
    lines = CENSUS["executable_lines"](module)
    assert {3, 6, 8, 9, 14, 15, 16} <= lines
    assert {10, 11} & lines == set()  # blank

"""The README's library quick start runs and gives the values its comments state."""

from pathlib import Path

import pytest

from reformgame import SweepSeries

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python code block after the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_matches_its_comments():
    code = quick_start()
    # The values checked below are the ones the comments state.
    assert "# kappa* = 2/17, x* = 4/17" in code
    assert code.count("# 2/17") == 1 and code.count("# 2/33") == 1
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    eq = namespace["eq"]
    assert eq.kappa_star == pytest.approx(2 / 17, rel=1e-12)
    assert eq.x_star == pytest.approx(4 / 17, rel=1e-12)
    assert namespace["derived"] == pytest.approx(2 / 17, rel=1e-12)
    assert namespace["literal"] == pytest.approx(2 / 33, rel=1e-12)
    series = namespace["series"]
    assert isinstance(series, SweepSeries)
    assert series.values == (0.1, 0.3, 0.5, 0.7, 0.9)
    assert series.skipped == ()

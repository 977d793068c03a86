import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).parent / "golden" / "demos"


def test_all_demos_found():
    assert [p.name for p in DEMOS] == [
        "certify_basics.py",
        "descent_enumerators.py",
        "noncrossing.py",
        "rank_selection.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / (demo.stem + ".txt")).read_text()

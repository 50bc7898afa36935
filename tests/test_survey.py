"""The structure survey asserts the loop's figures."""

import importlib.util
from pathlib import Path

import cubicloop.moufang as M

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "survey_structure.py"


def load_survey():
    spec = importlib.util.spec_from_file_location("survey_structure", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_figures_hold(capsys):
    assert load_survey().main(["--samples", "2"]) == 0
    assert "nucleus cosets (count, size): (27, 9)" in capsys.readouterr().out


def test_survey_names_the_figure_that_differs(capsys, monkeypatch):
    monkeypatch.setattr(M, "element_orders", lambda loop: [1] + [9] * 242)
    assert load_survey().main(["--samples", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "figure differs: element orders, expected {1: 1, 3: 242}\n"

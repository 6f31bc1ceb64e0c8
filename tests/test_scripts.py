"""Smoke tests: every demo script in scripts/ runs to its closing line.

The scripts use the public API directly, so an API change that breaks one
shows up here rather than only when someone runs it by hand.
"""

import json
import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

CLOSING_LINES = {
    "run_contraction_demo.py": r"independent re-evaluation gaps: time \S+, freq \S+",
    "run_decay_sweep.py": r"\s*1\.100\s+\S+\s+(True|False)\s+(True|False)",
    "run_freq_matched_demo.py": r"\}",
    "run_threshold_table.py": r"\s*0\.95(\s+\S+){4}",
}


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(CLOSING_LINES)


@pytest.mark.parametrize("name", sorted(CLOSING_LINES))
def test_script_runs_to_its_closing_line(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    lines = capsys.readouterr().out.rstrip("\n").splitlines()
    assert re.fullmatch(CLOSING_LINES[name], lines[-1]), lines[-1]
    if name == "run_freq_matched_demo.py":
        report = json.loads("\n".join(lines[1:]))
        assert report["verdicts"]["discrete_pair"] is True

"""Acceptance gate: every criterion at its declared tolerance and budget.

Each test prints one pass/fail line; the suite is the project's exit
criterion.  Tolerances live in the acceptance module and are not adjustable
from here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pauli_lab import acceptance as acc


def _run(name):
    return acc.run_all([name])[0]


def _assert_record(rec):
    print(f"{'PASS' if rec.passed else 'FAIL'}  {rec.name}  ({rec.seconds:.2f} s)  {rec.detail}")
    assert rec.passed, f"{rec.name}: {rec.detail}"
    title, budget, _ = acc.ALL_CRITERIA[rec.name.split()[0]]
    assert rec.name.endswith(title)
    assert rec.seconds <= budget, f"{rec.name} exceeded its runtime budget: {rec.seconds:.1f} s"


def test_ac1_threshold_formulas():
    _assert_record(_run("AC-1"))


def test_ac2_optimization_oracle():
    _assert_record(_run("AC-2"))


def test_ac3_sinc_and_transform_oracles():
    _assert_record(_run("AC-3"))


def test_ac4_frequency_matched_pair():
    _assert_record(_run("AC-4"))


def test_ac5_decay_threshold_crossover():
    _assert_record(_run("AC-5"))


def test_ac5_detail_reports_closed_form():
    # each fitted rate beside b(m) = a/(a^2 + m^2), a = 0.5, and its deviation
    rows = re.findall(r"m=([\d.]+): ([\d.]+) \(b ([\d.]+), ([+-][\d.]+)\)", _run("AC-5").detail)
    assert [float(m) for m, *_ in rows] == [0.6, 0.7, 0.866, 1.0, 1.1]
    for m, rate, closed, dev in rows:
        assert float(closed) == round(0.5 / (0.25 + float(m) ** 2), 3)
        assert abs(float(rate) - float(closed) - float(dev)) <= 1.5e-3


def test_ac6_contraction_interpolation():
    _assert_record(_run("AC-6"))


def test_ac7_non_weak_pair():
    _assert_record(_run("AC-7"))


def test_ac7_evaluates_each_part_once_per_point_set(interpolant_calls):
    # construction 4 + 2 (the witness reads the frequency grid only when the
    # time grid shows none), then each part once on the window sets and once
    # on the witness grid
    assert _run("AC-7").passed
    assert interpolant_calls == {"eval": 8, "eval_hat": 6}


def test_ac8_indicator_properties():
    _assert_record(_run("AC-8"))


def test_ac9_property_suites():
    _assert_record(_run("AC-9"))


def test_run_all_reports_every_criterion():
    records = acc.run_all(["AC-1", "AC-2"])
    assert [r.name.split()[0] for r in records] == ["AC-1", "AC-2"]
    with pytest.raises(ValueError, match="unknown criterion 'AC-99'"):
        acc.run_all(["AC-99"])


def test_run_all_runs_the_criteria_one_at_a_time(monkeypatch):
    # the benchmark passes threads=1; no other count is an option
    order = []
    for name in ("AC-1", "AC-2"):
        monkeypatch.setitem(acc.ALL_CRITERIA, name,
                            (name, 1.0, lambda name=name: order.append(name) or (True, "ran")))
    assert [r.detail for r in acc.run_all(["AC-2", "AC-1"], threads=1)] == ["ran", "ran"]
    assert order == ["AC-2", "AC-1"]
    with pytest.raises(ValueError, match="the criteria run one at a time; threads must be 1, got 2"):
        acc.run_all(["AC-1", "AC-2"], threads=2)
    assert order == ["AC-2", "AC-1"]


def test_run_all_fails_a_raising_or_slow_check(monkeypatch):
    def raising():
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(acc.ALL_CRITERIA, "AC-1", ("threshold formulas", 1.0, raising))
    monkeypatch.setitem(acc.ALL_CRITERIA, "AC-2", ("slow", -1.0, lambda: (True, "done")))
    first, second = acc.run_all(["AC-1", "AC-2"])
    assert (first.name, first.passed) == ("AC-1 threshold formulas", False)
    assert first.detail == "raised ZeroDivisionError: boom"
    assert (second.name, second.passed) == ("AC-2 slow", False)
    assert second.detail == "done [over budget -1s]"


def _broken_property(rng):
    assert rng.uniform() > 2.0


def test_ac9_failed_property_names_its_line(monkeypatch):
    monkeypatch.setattr(acc, "_PROPERTIES", [("broken", _broken_property)])
    rec = _run("AC-9")
    line = _broken_property.__code__.co_firstlineno + 1
    assert not rec.passed
    assert rec.detail == f"broken: line {line}: assert rng.uniform() > 2.0"


def test_ac9_fails_without_assertions():
    # python -O strips the properties' asserts, so AC-9 cannot pass there
    src = str(Path(acc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "pauli_lab.cli", "acceptance",
                           "--only", "AC-9"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 1
    assert "FAIL  AC-9 property suites" in proc.stdout
    assert "assertions are off" in proc.stdout

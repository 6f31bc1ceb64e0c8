"""Acceptance gate: every criterion at its declared tolerance and budget.

Each test prints one pass/fail line; the suite is the project's exit
criterion.  Tolerances live in the acceptance module and are not adjustable
from here.
"""

import re

import pytest

from pauli_lab import acceptance as acc


def _assert_record(rec):
    print(f"{'PASS' if rec.passed else 'FAIL'}  {rec.name}  ({rec.seconds:.2f} s)  {rec.detail}")
    assert rec.passed, f"{rec.name}: {rec.detail}"
    assert rec.seconds <= acc.BUDGET_SECONDS[rec.name.split()[0]], \
        f"{rec.name} exceeded its runtime budget: {rec.seconds:.1f} s"


def test_ac1_threshold_formulas():
    _assert_record(acc.ac1())


def test_ac2_optimization_oracle():
    _assert_record(acc.ac2())


def test_ac3_sinc_and_transform_oracles():
    _assert_record(acc.ac3())


def test_ac4_frequency_matched_pair():
    _assert_record(acc.ac4())


def test_ac5_decay_threshold_crossover():
    _assert_record(acc.ac5())


def test_ac5_detail_reports_closed_form():
    # each fitted rate beside b(m) = a/(a^2 + m^2), a = 0.5, and its deviation
    rows = re.findall(r"m=([\d.]+): ([\d.]+) \(b ([\d.]+), ([+-][\d.]+)\)", acc.ac5().detail)
    assert [float(m) for m, *_ in rows] == [0.6, 0.7, 0.866, 1.0, 1.1]
    for m, rate, closed, dev in rows:
        assert float(closed) == round(0.5 / (0.25 + float(m) ** 2), 3)
        assert abs(float(rate) - float(closed) - float(dev)) <= 1.5e-3


def test_ac6_contraction_interpolation():
    _assert_record(acc.ac6())


def test_ac7_non_weak_pair():
    _assert_record(acc.ac7())


def test_ac7_evaluates_each_part_once_per_point_set(interpolant_calls):
    # construction 4 + 4, then each part once on the window sets and once
    # on the witness grid
    assert acc.ac7().passed
    assert interpolant_calls == {"eval": 8, "eval_hat": 8}


def test_ac8_indicator_properties():
    _assert_record(acc.ac8())


def test_ac9_property_suites():
    _assert_record(acc.run_ac9())


def test_run_all_reports_every_criterion():
    records = acc.run_all(["AC-1", "AC-2"])
    assert [r.name.split()[0] for r in records] == ["AC-1", "AC-2"]
    with pytest.raises(KeyError):
        acc.run_all(["AC-99"])

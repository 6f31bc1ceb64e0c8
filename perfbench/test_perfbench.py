"""Checks of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The runs here use ``--seconds 0``, which measures the fewest whole cycles a
run can (one untraced, or one untraced and one traced), so that their work is
fixed; they take about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def bench(*args, cwd=REPO) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def parse(proc) -> tuple[dict, dict]:
    """(last-line result, counts line) of a finished run."""
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    counts = [json.loads(l[len("counts: "):]) for l in lines if l.startswith("counts: ")]
    return json.loads(lines[-1]), (counts[0] if counts else None)


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in json.loads((REPO / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", ["product-pairs", "interp-large"])
def test_counters_repeat_for_a_seed(workload):
    runs = [bench("--workload", workload, "--seed", "11", "--seconds", "0",
                  "--trace", "1") for _ in range(2)]
    (first, counts_a), (second, counts_b) = parse(runs[0]), parse(runs[1])
    assert counts_a == counts_b
    assert first["correct"] and first["failed"] == 0
    counters = [n for n, u in declared("per_layer").items() if u == "count"]
    for name in counters:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    m = {k: v["value"] for k, v in first["metrics"].items()}
    assert m["trace.span_coverage_pct"] >= 80.0
    top = {"product-pairs": "entire_models.ProductModel.eval.self_pct",
           "interp-large": "fourier.verify_retransform.total_pct"}[workload]
    shares = {k: v for k, v in m.items() if k.endswith(("self_pct", "total_pct"))
              and not k.startswith(("layer.", "cli.", "acceptance.", "trace."))}
    assert max(shares, key=shares.get) == top


@pytest.mark.parametrize("workload", ["product-pairs", "vanishing-pairs"])
def test_end_to_end_values_are_positive(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    result, _ = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    run = json.loads(next(l[len("run: "):] for l in proc.stdout.splitlines() if l.startswith("run: ")))
    # a reference reading before the first op and after every op
    assert run["reference"]["readings"] == result["attempted"] + 1
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(declared("end_to_end"))
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracer_wraps_aliases_and_restores():
    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    try:
        import tracer as tracing
        from pauli_lab import cli, constructions, interpolation, sequences
        from pauli_lab.entire_models import ProductModel

        originals = (interpolation.assemble_vanishing_function, sequences.split_parity,
                     ProductModel.eval)
        t = tracing.Tracer()
        t.install()
        try:
            assert constructions.assemble_vanishing_function is interpolation.assemble_vanishing_function
            assert constructions.assemble_vanishing_function is not originals[0]
            assert constructions.split_parity is not originals[1]
            assert cli.generate_smooth is sequences.generate_smooth
            ProductModel(zeros=np.array([1.0])).values(0.5)
            assert t.stats["entire_models.ProductModel.values"].calls == 1
            assert t.stats["entire_models.ProductModel.eval"].calls == 1
        finally:
            t.uninstall()
        assert interpolation.assemble_vanishing_function is originals[0]
        assert constructions.assemble_vanishing_function is originals[0]
        assert constructions.split_parity is originals[1]
        assert ProductModel.eval is originals[2]
    finally:
        del sys.path[:2]


def test_fails_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "acceptance", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

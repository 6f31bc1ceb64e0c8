"""The four benchmark workloads: op plans drawn from the seed, the timed op,
and the untimed correctness check of each op's output.

Every workload repeats a fixed cycle of cells.  A cell fixes what an op does
(pair kind, decay branch, band of D/D_c, node count, criterion); the seed
draws the op's parameters inside the cell.  A run measures whole cycles, so
every run has the same mix of cells whatever its seed and length.  Why each
workload exists, and which metric each layer should move on it, is written
down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
from pathlib import Path

import numpy as np

from pauli_lab import acceptance, cli, interpolation, sequences, thresholds

# a plan holds this many cycles; runs stop long before they use them all
MAX_CYCLES = 200
WARMUP_CYCLE = 1_000_000
DISCRETE_TOL = 1e-8   # cli verify --tol-discrete default
AC6_BOUND = 1e-7      # AC-6's bound on the re-evaluation gaps of solve


@dataclasses.dataclass
class Outcome:
    """Untimed verdict on one op.

    ``verified`` ops count in the timings; a failed op carries the exit code
    (1 check failed, 2 configuration error, "raised" for an exception that
    escaped) and the exception type.  ``wrong`` is set when the program's
    output contradicts itself, which makes the whole run incorrect.
    """

    verified: bool
    residual: float | None = None
    exit: object = None
    error: str = ""
    reason: str = ""
    wrong: str = ""


class ErrorProbe:
    """Records the type of an exception a wrapped function raises, then
    re-raises it.  ``cli.main`` maps exceptions to exit codes and drops the
    type, which the failure report needs."""

    def __init__(self):
        self.last = ""

    def wrap(self, owner, name: str) -> None:
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.last = type(exc).__name__
                raise

        setattr(owner, name, probe)


# -- construct -> verify pipelines -------------------------------------------


@dataclasses.dataclass(frozen=True)
class PairCell:
    label: str
    kind: str                      # `construct` subcommand kind
    a_range: tuple[float, float]   # decay A
    f_range: tuple[float, float]   # D as a fraction of the kind's density cap


def density_cap(kind: str, a: float) -> float:
    """Half-density cap the construction compares the measured density to."""
    if kind == "time":
        return thresholds.one_sided_threshold(a) / 2.0
    if kind == "freq-matched":
        return thresholds.pauli_threshold(a) / 2.0
    return thresholds.weak_pair_threshold(a) / 2.0


_EXPECTED_KIND = {"time": "time_pair", "freq-matched": "frequency_matched",
                  "non-weak": "non_weak"}


class PairWorkload:
    """`construct` then `verify` through ``cli.main`` in-process; one op is
    the two commands together."""

    def __init__(self, name, cells, tail_pct, expected_spans, workdir: Path):
        self.name = name
        self.cells = cells
        self.tail_pct = tail_pct
        self.expected_spans = expected_spans
        self.pair_path = workdir / "pair.json"
        self.verify_path = workdir / "verify.json"
        self.errors = ErrorProbe()
        self.errors.wrap(cli, "cmd_construct")
        self.errors.wrap(cli, "cmd_verify")

    def plan(self, seed: int, cycle: int) -> list:
        rng = np.random.default_rng([seed, cycle])
        ops = []
        for cell in self.cells:
            a = float(rng.uniform(*cell.a_range))
            frac = float(rng.uniform(*cell.f_range))
            ops.append((cell, a, float(frac * density_cap(cell.kind, a)),
                        int(rng.integers(1 << 30))))
        return ops

    def warmup_params(self, seed: int):
        return self.plan(seed, WARMUP_CYCLE)[1]

    def run(self, params):
        cell, a, d, op_seed = params
        self.errors.last = ""
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = _cli_call(["construct", cell.kind, "--A", repr(a), "--D", repr(d),
                              "--seed", str(op_seed), "--out", str(self.pair_path)])
            stage = "construct"
            if code == 0:
                stage = "verify"
                code = _cli_call(["verify", "--pair", str(self.pair_path),
                                  "--out", str(self.verify_path)])
        return stage, code, self.errors.last, stderr.getvalue()

    def check(self, params, raw) -> Outcome:
        cell = params[0]
        stage, code, error, stderr = raw
        if stage == "construct":
            return Outcome(False, exit=code, error=error,
                           reason=f"{cell.label}: construct: {stderr.strip()[:160]}")
        if code not in (0, 1):
            return Outcome(False, exit=code, error=error,
                           reason=f"{cell.label}: verify: {stderr.strip()[:160]}")
        pair = json.loads(self.pair_path.read_text())
        report = json.loads(self.verify_path.read_text())
        kind = report["provenance"]["pair_kind"]
        verdicts = report["verdicts"]
        residual = max(report["residuals"]["time"], report["residuals"]["freq"])
        null_branch = pair["provenance"].get("branch") == "null_space"
        holds = verdicts["discrete_pair"] and residual <= DISCRETE_TOL
        if kind == "frequency_matched":
            holds = holds and (null_branch or verdicts["weak_pair_freq"])
        elif kind == "non_weak":
            holds = holds and (null_branch or verdicts["non_weak"])
        if kind != _EXPECTED_KIND[cell.kind]:
            return Outcome(False, wrong=f"{cell.label}: built a {kind} pair")
        if holds != (code == 0):
            return Outcome(False, wrong=f"{cell.label}: verify exit {code} but the "
                                        f"verdicts say {'pass' if holds else 'fail'}")
        if code == 1:
            return Outcome(False, exit=1, error="verdict",
                           reason=f"{cell.label}: verify: discrete residual {residual:.1e}, "
                                  f"verdicts {sorted(k for k, v in verdicts.items() if v)}")
        return Outcome(True, residual=residual)


def _cli_call(argv) -> object:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code
    except Exception:  # escaped cli.main's exit-code mapping
        return "raised"


# -- interpolation runs --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class InterpCell:
    label: str
    nodes: int
    density_range: tuple[float, float]


class InterpWorkload:
    """The library calls of `cmd_interp` on AC-6-shaped problems:
    make_problem, choose_window_cut, solve and a 257-sample eval."""

    name = "interp-large"
    samples = 257

    def __init__(self, cells, tail_pct, expected_spans):
        self.cells = cells
        self.tail_pct = tail_pct
        self.expected_spans = expected_spans

    def plan(self, seed: int, cycle: int) -> list:
        rng = np.random.default_rng([seed, cycle])
        return [(cell, float(rng.uniform(*cell.density_range)),
                 float(rng.uniform(*cell.density_range)), int(rng.integers(1 << 30)))
                for cell in self.cells]

    def warmup_params(self, seed: int):
        return self.plan(seed, WARMUP_CYCLE)[0]

    def run(self, params):
        cell, d_lam, d_mu, op_seed = params
        try:
            lam = sequences.generate_smooth(sequences.SmoothSpec(
                p=2.0, density=d_lam, count=512, halves="±", seed=op_seed))
            mu = sequences.generate_smooth(sequences.SmoothSpec(
                p=2.0, density=d_mu, count=512, halves="±", seed=op_seed + 1))
            base = interpolation.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 3.2,
                                              nodes=cell.nodes)
            cut, _ = interpolation.choose_window_cut(base)
            problem = base.restricted(cut)
            rng = np.random.default_rng(op_seed)
            alpha = rng.normal(size=len(problem.lam)) + 1j * rng.normal(size=len(problem.lam))
            beta = rng.normal(size=len(problem.mu)) + 1j * rng.normal(size=len(problem.mu))
            norm = problem.data_norm(alpha, beta)
            problem = dataclasses.replace(problem, alpha=alpha / norm, beta=beta / norm)
            res = interpolation.solve(problem, tol=1e-10)
            grid = np.linspace(-problem.outer_cut, problem.outer_cut, self.samples)
            return res, res.interpolant.eval(grid)
        except Exception as exc:
            return exc

    def check(self, params, raw) -> Outcome:
        cell = params[0]
        if isinstance(raw, Exception):
            return Outcome(False, exit="raised", error=type(raw).__name__,
                           reason=f"{cell.label}: {str(raw)[:160]}")
        res, values = raw
        if len(values) != self.samples or not np.all(np.isfinite(values)):
            return Outcome(False, wrong=f"{cell.label}: eval returned non-finite samples")
        residual = max(res.verify_time, res.verify_freq)
        if not res.state.converged or residual > AC6_BOUND:
            return Outcome(False, exit=1, error="verdict",
                           reason=f"{cell.label}: converged={res.state.converged}, "
                                  f"re-evaluation gap {residual:.1e}")
        return Outcome(True, residual=residual)


# -- acceptance suite --------------------------------------------------------


class AcceptanceWorkload:
    """AC-1..AC-9, one criterion per op, through ``acceptance.run_all`` so
    that the budgets are enforced.  The suite has a fixed internal seed, so
    the workload seed is recorded but not used."""

    name = "acceptance"

    def __init__(self, tail_pct, expected_spans):
        self.tail_pct = tail_pct
        self.expected_spans = expected_spans
        self.criteria = list(acceptance.ALL_CRITERIA)
        self.solve_gaps: list[float] = []
        solve = interpolation.solve

        @functools.wraps(solve)
        def record_gaps(*args, **kwargs):
            res = solve(*args, **kwargs)
            self.solve_gaps.append(max(res.verify_time, res.verify_freq))
            return res

        interpolation.solve = record_gaps

    def plan(self, seed: int, cycle: int) -> list:
        return list(self.criteria)

    def warmup_params(self, seed: int):
        return self.criteria[0]

    def run(self, name):
        self.solve_gaps.clear()
        return acceptance.run_all([name], threads=1)[0]

    def check(self, name, rec) -> Outcome:
        if not rec.passed:
            return Outcome(False, exit=1, error="criterion", reason=f"{name}: {rec.detail[:160]}")
        # AC-6 solves with verification; its re-evaluation gaps are the
        # suite's accuracy figure
        return Outcome(True, residual=max(self.solve_gaps) if self.solve_gaps else None)


# -- the workload table --------------------------------------------------------

TOP = (0.88, 0.97)      # A >= sqrt(3)/2: the null-space branch
MIDDLE = (0.36, 0.65)   # 1/3 <= A < sqrt(3)/2
LOW = (0.15, 0.30)      # A < 1/3

PAIR_SPANS = ["cli.construct", "cli.verify", "constructions.pair_from_json",
              "constructions.PairConstruction.to_json", "pauli_verify.pair_report",
              "entire_models.ProductModel.eval", "sequences.generate_smooth"]


def make(name: str, workdir: Path):
    """Build the named workload; raises KeyError for an unknown name."""
    if name == "product-pairs":
        cells = [PairCell(f"{kind} A {a[0]}-{a[1]} D/Dc {f[0]}-{f[1]}", kind, a, f)
                 for kind, branches in (("time", (LOW, (0.40, 0.68), (0.75, 0.97))),
                                        ("freq-matched", (LOW, (0.40, 0.80))))
                 for a in branches
                 for f in ((0.30, 0.60), (0.60, 0.85))]
        spans = PAIR_SPANS + ["constructions.build_time_pair",
                              "constructions.build_frequency_matched_pair",
                              "constructions.select_phase", "fourier.transform_values"]
        return PairWorkload(name, cells, 80, spans, workdir)
    if name == "vanishing-pairs":
        # only cells whose every op verifies: a failed op would change the
        # verified mix from seed to seed.  The regions that fail at this
        # commit (ROADMAP item 4) are listed in README.md.  Three ~1.2 s
        # non-weak ops per ~0.35 s null-space op keep the median and the
        # tail inside the non-weak cluster.
        cells = [
            PairCell("non-weak middle, low D", "non-weak", MIDDLE, (0.34, 0.48)),
            PairCell("non-weak middle, mid D", "non-weak", MIDDLE, (0.50, 0.65)),
            PairCell("non-weak top", "non-weak", TOP, (0.25, 0.55)),
            PairCell("freq-matched null space", "freq-matched", TOP, (0.25, 0.85)),
        ]
        spans = PAIR_SPANS + [
            "constructions.build_nonweak_pair", "constructions.build_frequency_matched_pair",
            "interpolation.assemble_vanishing_function", "interpolation.choose_window_cut",
            "interpolation.build_cross_matrices", "interpolation.divided_columns",
            "interpolation.AssembledInterpolant.eval", "interpolation.AssembledInterpolant.eval_hat",
            "entire_models.ProductModel.derivative_at_zero"]
        return PairWorkload(name, cells, 55, spans, workdir)
    if name == "interp-large":
        # a quarter of the ops at 2048 nodes (~0.6 s), a quarter at 4096
        # with one cut candidate (~2.0 s) and half at 4096 with a cut search
        # (~1.6 s): sorted by time, the cut-search ops hold the middle half,
        # so the median and the tail both fall well inside that one cell
        cells = [InterpCell("nodes 2048", 2048, (0.55, 0.95)),
                 InterpCell("nodes 4096, cut search", 4096, (0.86, 0.95)),
                 InterpCell("nodes 4096, one cut", 4096, (0.55, 0.80)),
                 InterpCell("nodes 4096, cut search", 4096, (0.86, 0.95))]
        spans = ["sequences.generate_smooth", "interpolation.make_problem",
                 "interpolation.choose_window_cut", "interpolation.build_cross_matrices",
                 "interpolation.divided_columns", "interpolation.solve",
                 "interpolation.AssembledInterpolant.eval", "fourier.transform",
                 "fourier.transform_values", "fourier.verify_retransform",
                 "entire_models.ProductModel.eval"]
        return InterpWorkload(cells, 60, spans)
    if name == "acceptance":
        spans = ["acceptance.run_all", "asymptotics.indicator_estimate",
                 "asymptotics.fourier_decay_predicate", "thresholds.weak_bound_oracle",
                 "sequences.generate_smooth", "sequences.density_fit",
                 "fourier.transform_values", "entire_models.ProductModel.eval",
                 "pauli_verify.sign_retrieval_check", "interpolation.solve"]
        return AcceptanceWorkload(60, spans)
    raise KeyError(name)


def residual_digits(worst: float) -> float:
    """Decimal digits of agreement: -log10 of the worst residual, with an
    exactly-zero residual read at the 1e-16 double-precision floor."""
    return -math.log10(max(worst, 1e-16))

"""Batch driver: threshold tables, sequence generation, constructions,
verification, transforms, indicator sweeps, interpolation runs, and the
acceptance suite.

Every output file starts from the run configuration and a seed, carries a
provenance header (tool version, config hash, seed), and is byte-identical
across reruns of the same configuration.  Exit codes: 0 all requested checks
passed, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import CheckFailedError, __version__
from . import acceptance as acc
from . import asymptotics as asy
from . import constructions as con
from . import fourier
from . import interpolation as itp
from . import pauli_verify as pv
from . import thresholds as th
from .entire_models import POINT_RANGE, ProductModel
from .jsonfile import json_numbers, json_text, json_value
from .sequences import SampledSet, SmoothSpec, generate_smooth


def _config_hash(args: argparse.Namespace) -> str:
    # output destinations are excluded so identical runs stay byte-identical
    skip = {"out", "out_dir"}
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    digest = hashlib.sha256(repr(payload).encode()).hexdigest()
    return digest[:12]


def _provenance(args: argparse.Namespace, seed) -> dict:
    return {"tool": f"pauli-lab {__version__}", "config": _config_hash(args), "seed": seed}


def _provenance_line(args: argparse.Namespace, seed) -> str:
    return "# {tool} config={config} seed={seed}\n".format(**_provenance(args, seed))


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_range(spec: str) -> np.ndarray:
    """start:stop:step with inclusive stop (within half a step)."""
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"range {spec!r} is not start:stop:step") from exc
    if not np.all(np.isfinite([start, stop, step])):
        raise ValueError(f"range {spec!r} needs finite values")
    if step <= 0:
        raise ValueError(f"range {spec!r} needs a positive step")
    # a reversed range would give a header-only file
    if stop < start:
        raise ValueError(f"range {spec!r} needs stop >= start")
    n = int(np.floor((stop - start) / step + 0.5)) + 1
    return start + step * np.arange(n)


def _csv(args: argparse.Namespace, seed, header: str, rows) -> str:
    """The provenance line, ``header`` and one line of ``%.17g`` values per row."""
    lines = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    return _provenance_line(args, seed) + header + "\n" + lines


# -- subcommands ---------------------------------------------------------------


def cmd_thresholds(args) -> int:
    grid = _parse_range(args.a_grid)
    grid = grid[(grid > 0) & (grid < 1)]
    if not grid.size:
        raise ValueError(f"range {args.a_grid!r} holds no decay rate in (0, 1)")
    rows = [(a, th.one_sided_threshold(a), th.weak_pair_threshold(a), th.pauli_threshold(a),
             *th.uniqueness_density_bounds(a, a)) for a in grid]
    _write(args.out, _csv(args, 0, "A,c1,c2,pauli_threshold,uniqueness_time,uniqueness_freq",
                          rows))
    return 0


def cmd_gen_seq(args) -> int:
    spec = SmoothSpec(p=args.p, density=args.density, count=args.count,
                      jitter=args.jitter, seed=args.seed, halves=args.halves)
    header = f"# p={spec.p} D={spec.density} seed={spec.seed}"
    _write(args.out, _csv(args, args.seed, header, generate_smooth(spec).points[:, None]))
    return 0


def _sampling_set(args, path: str | None, flag: str, seed: int, halves: str) -> SampledSet:
    """The set in the CSV at ``path``, else ``--count`` generated points; an
    empty set would give a pair that every check passes vacuously."""
    if path:
        sampled = SampledSet.from_csv(Path(path).read_text())
        if not sampled.points.size:
            raise ValueError(f"{flag} {path} holds no points")
        return sampled
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    return generate_smooth(SmoothSpec(p=2.0, density=args.density, count=args.count,
                                      jitter=args.jitter, seed=seed, halves=halves))


def cmd_construct(args) -> int:
    lam = _sampling_set(args, args.lam, "--lam", args.seed,
                        "+" if args.kind == "freq-matched" else "±")
    mu = SampledSet(points=np.empty(0))
    if args.kind == "freq-matched":
        pair = con.build_frequency_matched_pair(lam, args.decay)
    elif args.kind == "time":
        pair = con.build_time_pair(lam, args.decay)
    else:
        mu = _sampling_set(args, args.mu, "--mu", args.seed + 1, "±")
        pair = con.build_nonweak_pair(lam, mu, args.decay)
    pair.provenance.update(_provenance(args, args.seed),
                           lambda_points=lam.points.tolist(), mu_points=mu.points.tolist())
    _write(args.out, pair.to_json() + "\n")
    return 0


def cmd_verify(args) -> int:
    # a negative or NaN tolerance fails every check, an infinite one passes it
    for flag, tol in (("--tol-discrete", args.tol_discrete), ("--tol-weak", args.tol_weak)):
        if not 0 <= tol < np.inf:
            raise ValueError(f"{flag} must be >= 0 and finite, got {tol}")
    # the sup-on-grid verdicts need two distinct grid points
    if args.grid_points < 2:
        raise ValueError(f"--grid-points must be >= 2, got {args.grid_points}")
    if not args.grid_radius > 0:
        raise ValueError(f"--grid-radius must be > 0, got {args.grid_radius}")
    if args.radius is not None and not args.radius > 0:
        raise ValueError(f"--radius must be > 0, got {args.radius}")
    pair = con.pair_from_json(Path(args.pair).read_text())
    # the parts evaluate their models on the grid
    bound = min(POINT_RANGE, pair.phi.point_range, pair.psi.point_range)
    if not args.grid_radius <= bound:
        raise ValueError(f"--grid-radius must be finite, at most {bound!r}, "
                         f"got {args.grid_radius!r}")
    # the verdict each kind of pair must pass besides the discrete one
    kind_verdict = {"time_pair": "discrete_pair", "frequency_matched": "weak_pair_freq",
                    "non_weak": "non_weak"}
    kind = pair.provenance.get("kind")
    if kind not in list(kind_verdict):
        raise ValueError(f"the pair's provenance kind {kind!r} is none of {list(kind_verdict)}")
    # a null-space pair (g = 0) has no weak or non-weak verdict to pass
    null_branch = pair.provenance.get("branch") == "null_space"
    lam, mu = (json_numbers(pair.provenance.get(key, []), f"the pair's provenance {key!r}")
               for key in ("lambda_points", "mu_points"))
    # product pairs are checked out to 12, assembled (vanishing) parts to 3.2
    radius = args.radius or (3.2 if kind == "non_weak" or null_branch else 12.0)
    if kind == "frequency_matched":
        lam = np.unique(np.concatenate([-lam, lam]))
    points = np.abs(np.concatenate([lam, mu]))
    lam = lam[np.abs(lam) <= radius]
    mu = mu[np.abs(mu) <= radius]
    # a pair with points checked at none of them would pass vacuously
    if not points.size:
        raise ValueError(f"the pair {args.pair} holds no sampling points to check")
    if not lam.size + mu.size:
        raise ValueError(f"--radius {radius} keeps none of the pair's {points.size} points; "
                         f"the nearest is at |x| = {float(points.min())!r}")
    grid = np.linspace(-args.grid_radius, args.grid_radius, args.grid_points)
    report = pv.pair_report(pair, lam, mu, grid, grid,
                            discrete_tol=args.tol_discrete, weak_tol=args.tol_weak)
    report["provenance"] = dict(_provenance(args, pair.provenance.get("seed")), pair_kind=kind)
    _write(args.out, json_text(report) + "\n")
    verdicts = report["verdicts"]
    return 0 if verdicts["discrete_pair"] and (null_branch or verdicts[kind_verdict[kind]]) else 1


def cmd_ft(args) -> int:
    xi = _parse_range(args.xi)
    model = ProductModel.from_dict(json.loads(Path(args.model).read_text()))
    spec = fourier.QuadratureSpec(half_width=args.half_width, nodes=args.nodes)
    bound = min(POINT_RANGE, model.point_range)
    if spec.half_width > bound:
        raise ValueError(f"--half-width must be at most {bound!r}, got {spec.half_width!r}")
    res = fourier.transform(model.values, spec, xi)
    rows = zip(xi, res.values.real, res.values.imag, res.error)
    _write(args.out, _csv(args, 0, "xi,re,im,err", rows))
    return 0


def cmd_indicator(args) -> int:
    thetas = _parse_range(args.theta)
    model = ProductModel.from_dict(json.loads(Path(args.model).read_text()))
    estimates = [asy.indicator_estimate(model, theta) for theta in thetas]
    rows = [(theta, est.h_hat, est.residual, *est.window) for theta, est in zip(thetas, estimates)]
    _write(args.out, _csv(args, 0, "theta,h_hat,residual,window_lo,window_hi", rows))
    return 0


def _interp_side(cfg: dict, set_name: str, key: str) -> tuple[SampledSet, dict]:
    """One side of a problem: its set, and its data values by point from [re, im] pairs."""
    points = json_numbers(cfg[set_name], set_name)
    if np.any(np.diff(points) <= 0):
        raise ValueError(f"{set_name} must be strictly increasing")
    data = {}
    for k, v in json_value(cfg[key], dict, key).items():
        try:
            point = float(k)
        except ValueError:
            raise ValueError(f"{key} key {k!r} is not a number") from None
        if point not in points:
            raise ValueError(f"{key} key {k!r} is not a point of {set_name}")
        value = json_numbers(v, f"{key}[{k!r}]")
        if len(value) != 2:
            raise ValueError(f"{key}[{k!r}] must be [re, im], two numbers, got {v!r}")
        data[point] = complex(*value)
    return SampledSet(points=points), data


def cmd_interp(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    cfg = json_value(json.loads(Path(args.problem).read_text()), dict, "the problem file")
    unknown = set(cfg) - {"lambda", "mu", "alpha", "beta", "weight_a", "weight_b",
                          "inner_cut", "outer_radius", "nodes", "tol"}
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    cfg = {"alpha": {}, "beta": {}, "inner_cut": 0.0, "nodes": 2048, "tol": 1e-10, **cfg}
    num = {key: json_value(cfg[key], float, key)
           for key in ("weight_a", "weight_b", "outer_radius", "inner_cut", "tol")}
    for key in ("weight_a", "weight_b", "outer_radius", "tol"):
        if num[key] <= 0:
            raise ValueError(f"{key} must be positive, got {num[key]!r}")
    # the quadrature windows of interpolation.default_quads stay in the models' range
    for key in ("weight_a", "weight_b"):
        width = float(np.hypot(num["outer_radius"], np.sqrt(38.0 / (np.pi * num[key]))))
        if width > POINT_RANGE:
            name = "outer_radius" if num["outer_radius"] > POINT_RANGE else key
            raise ValueError(f"{name} {num[name]!r} widens the quadrature window to "
                             f"|x| <= {width!r}, past {POINT_RANGE:g}")
    nodes = json_value(cfg["nodes"], int, "nodes")
    lam, alpha = _interp_side(cfg, "lambda", "alpha")
    mu, beta = _interp_side(cfg, "mu", "beta")
    window = f"inner_cut {num['inner_cut']!r} < |x| <= outer_radius {num['outer_radius']!r}"
    lam_win, mu_win = (side.restricted(num["inner_cut"], num["outer_radius"]).points
                       for side in (lam, mu))
    # a window with no data point would pass vacuously with an all-zero interpolant
    if not len(lam_win) + len(mu_win):
        raise ValueError(f"the window {window} holds none of the "
                         f"{len(lam.points) + len(mu.points)} points of lambda and mu")
    for set_name, key, data, weight, points in (("lambda", "alpha", alpha, "weight_a", lam_win),
                                                 ("mu", "beta", beta, "weight_b", mu_win)):
        # the problem keeps only the data in its window
        outside = [point for point in data if point not in points]
        if outside:
            raise ValueError(f"{key} point {outside[0]!r} lies outside the window {window}")
        # the weighted norms take exp(weight pi x^2) at every window point
        past = points**2 > np.log(np.finfo(float).max) / (np.pi * num[weight])
        if past.any():
            x = float(points[np.argmax(past)])
            raise ValueError(f"{set_name} point {x!r} has the weight exp({weight} pi x^2) = "
                             f"exp({num[weight] * np.pi * x * x:.4g}) at {weight} "
                             f"{num[weight]!r}, past the double range")
    base = itp.make_problem(lam, mu,
                            (lambda v: alpha.get(float(v), 0.0)) if alpha else None,
                            (lambda v: beta.get(float(v), 0.0)) if beta else None,
                            num["weight_a"], num["weight_b"],
                            num["inner_cut"], num["outer_radius"], nodes=nodes)
    cut, _ = itp.choose_window_cut(base)
    problem = base.restricted(cut)
    total = len(base.lam) + len(base.mu)
    dropped = total - len(problem.lam) - len(problem.mu)
    if dropped:
        # the contraction certificate covers only the points outside the cut
        raise CheckFailedError(f"the window cut at |x| = {cut:.6g} drops {dropped} of the "
                               f"{total} data points, which the interpolant would not meet")
    res = itp.solve(problem, tol=num["tol"])
    # a NaN gap fails too
    if not (res.verify_time <= itp.REEVAL_GAP_TOL and res.verify_freq <= itp.REEVAL_GAP_TOL):
        raise CheckFailedError(
            f"the interpolant misses its data: re-evaluation gaps {res.verify_time:.3g} (time) "
            f"and {res.verify_freq:.3g} (frequency), bound {itp.REEVAL_GAP_TOL:g}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    history = zip(range(len(res.state.norms)), res.state.norms, [np.nan, *res.state.ratios])
    (out_dir / "residual_history.csv").write_text(_csv(args, 0, "step,norm,ratio", history))
    grid = np.linspace(-problem.outer_cut, problem.outer_cut, args.samples)
    vals = res.interpolant.eval(grid)
    (out_dir / "assembled_samples.csv").write_text(
        _csv(args, 0, "x,re,im", zip(grid, vals.real, vals.imag)))
    return 0


def cmd_acceptance(args) -> int:
    names = args.only.split(",") if args.only else None
    records = acc.run_all(names)
    lines = [_provenance_line(args, acc.SEED), "criterion,passed,seconds,detail\n"]
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status}  {rec.name}  ({rec.seconds:.2f} s)  {rec.detail}")
        detail = rec.detail.replace(",", ";")
        lines.append(f"{rec.name},{int(rec.passed)},{rec.seconds:.3f},{detail}\n")
    if args.out:
        _write(args.out, "".join(lines))
    return 0 if all(r.passed for r in records) else 1


# -- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once; ``main`` looks the subcommand up by name."""
    parser = argparse.ArgumentParser(prog="pauli-lab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="threshold table over a decay-rate grid")
    p.add_argument("--a-grid", required=True, help="start:stop:step, inclusive stop")
    p.add_argument("--out", default=None)

    p = sub.add_parser("gen-seq", help="generate a power-profile sampling sequence")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--count", type=int, default=256)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--halves", default="+", choices=["+", "-", "±"])
    p.add_argument("--out", default=None)

    p = sub.add_parser("construct", help="build a counterexample pair")
    p.add_argument("kind", choices=["time", "freq-matched", "non-weak"])
    p.add_argument("--A", dest="decay", type=float, required=True)
    p.add_argument("--D", dest="density", type=float, default=0.9)
    p.add_argument("--count", type=int, default=512)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--lam", default=None, help="CSV set for the time side")
    p.add_argument("--mu", default=None, help="CSV set for the frequency side")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="verdicts for a constructed pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--grid-radius", type=float, default=3.0)
    p.add_argument("--grid-points", type=int, default=301)
    p.add_argument("--tol-discrete", type=float, default=1e-8)
    p.add_argument("--tol-weak", type=float, default=1e-6)
    p.add_argument("--out", default=None)

    p = sub.add_parser("ft", help="numerical transform of a serialized model")
    p.add_argument("--model", required=True)
    p.add_argument("--xi", required=True, help="start:stop:step")
    p.add_argument("--half-width", type=float, default=8.0)
    p.add_argument("--nodes", type=int, default=2048)
    p.add_argument("--out", default=None)

    p = sub.add_parser("indicator", help="ray growth estimates of a serialized model")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", required=True, help="start:stop:step (radians)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("interp", help="run a windowed interpolation problem")
    p.add_argument("--problem", required=True, help="problem JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--samples", type=int, default=257)

    p = sub.add_parser("acceptance", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criterion names")
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except CheckFailedError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # MemoryError: an input too large to allocate, such as a 1e13-point range
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, warm up, measure, print a JSON line.

Started by run.py, which fixes the environment (PYTHONPATH, BLAS threads)
and passes ``--t0``, its monotonic clock reading just before it started this
process, so that set-up time counts from process start.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import pauli_lab

import tracer as tracing
import workloads

CRITERION_SPAN = "acceptance.AC-"  # per-criterion op time, not a traced function

# The machine this runs on shares its cores with other machines' work, and
# its speed switches by up to half, within seconds and between minutes.
# Timings are therefore brought to reference speed: a short reference kernel
# (vectorised complex exponentials and an interpreter-bound loop, the two
# kinds of work the ops do, nothing of pauli_lab) is timed before the first
# op and after every op, and the run's times are divided by its slowdown
# (README).
REFERENCE_S = 0.030      # the kernel's time when the reference machine ran fast
REFERENCE_TRIM = 0.9     # share of the readings, fastest first, that are averaged
# the ops slow less than the kernel when the machine slows: their time grows
# as the kernel's to this power (fitted over 40 runs of the four workloads;
# the fits per workload and metric ranged from 0.54 to 1.05)
OP_EXPONENT = 0.8
SETUP_READINGS = 3
_REF_X = np.linspace(-3.0, 3.0, 600)
_REF_Y = np.linspace(-40.0, 40.0, 500)


def reference_reading() -> float:
    """Seconds one pass of the reference kernel takes now."""
    t = time.perf_counter()
    np.exp(1j * np.outer(_REF_Y, _REF_X)).sum(axis=1)
    total, counts = 0, {}
    for i in range(75_000):
        total += i * i % 7
        counts[i % 1000] = counts.get(i % 1000, 0) + 1
    return time.perf_counter() - t


def slowdown(readings) -> float:
    """How much longer the ops took than on the reference machine at full
    speed, from the mean of the fastest readings over REFERENCE_S.  The
    slowest tenth is left out, so that a reading that was preempted does not
    count."""
    fastest = sorted(readings)[:max(1, int(REFERENCE_TRIM * len(readings)))]
    return (statistics.mean(fastest) / REFERENCE_S) ** OP_EXPONENT


def declared_metrics() -> dict:
    """BENCHMARK.json's metric lists, name -> unit, keyed by list name."""
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


@dataclasses.dataclass
class Op:
    cycle: int
    traced: bool
    seconds: float
    outcome: workloads.Outcome
    key: object


def measure(wl, plans, seconds, tracer):
    """Closed loop over whole cycles.  With a tracer, even cycles run
    untraced and odd cycles traced, so one run gives both rates.  Reference
    readings are taken before the first op and after every op, outside the
    op's and the cycle's time.  Returns the ops, each cycle's (traced, wall
    seconds), the readings and the first traced cycle's counters."""
    ops, walls, refs, counts = [], [], [reference_reading()], None
    start = time.perf_counter()
    k = 0
    while k < len(plans):
        traced = tracer is not None and k % 2 == 1
        ref_s = 0.0
        c0 = time.perf_counter()
        if traced:
            tracer.install()
        for params in plans[k]:
            t = time.perf_counter()
            raw = wl.run(params)
            dt = time.perf_counter() - t
            ops.append(Op(k, traced, dt, wl.check(params, raw), params))
            refs.append(reference_reading())
            ref_s += refs[-1]
        if traced:
            tracer.uninstall()
        cycle_s = time.perf_counter() - c0 - ref_s
        walls.append((traced, cycle_s))
        if traced and counts is None:
            counts = tracer.snapshot_counts()
        k += 1
        # stop at the cycle boundary nearest the deadline
        if k >= (2 if tracer else 1) and time.perf_counter() - start + 0.5 * cycle_s >= seconds:
            break
    return ops, walls, refs, counts


def rate(ops, walls, traced: bool) -> float:
    """Verified ops per second of wall time over the cycles that were
    (un)traced; time spent on failed ops, on checking the outputs and on
    switching the tracer counts."""
    picked = {k for k, (t, _) in enumerate(walls) if t == traced}
    verified = sum(o.outcome.verified for o in ops if o.cycle in picked)
    return verified / sum(walls[k][1] for k in picked)


def end_to_end(wl, ops, walls, slow: float) -> dict:
    """The end-to-end metrics but set-up; times are at reference speed."""
    verified = [o for o in ops if o.outcome.verified]
    times = [o.seconds / slow for o in verified]
    residuals = [o.outcome.residual for o in verified if o.outcome.residual is not None]
    if not residuals:
        raise RuntimeError("no verified op reported a residual")
    return {
        "ops_per_s": slow * rate(ops, walls, traced=False),
        "op_s.p50": statistics.median(times),
        "op_s.tail": float(np.percentile(times, wl.tail_pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verified_frac": len(verified) / len(ops),
        "residual_digits.min": workloads.residual_digits(max(residuals)),
    }


def per_layer(names, ops, walls, tracer, counts, slow: float) -> dict:
    """The value of each declared per-layer metric ``<span>.<field>``."""
    traced = [o for o in ops if o.traced]
    wall = sum(o.seconds for o in traced)
    stats = tracer.stats
    untraced_rate = slow * rate(ops, walls, traced=False)
    traced_rate = slow * rate(ops, walls, traced=True)
    out = {
        "trace.span_coverage_pct": 100.0 * tracer.covered_s / wall,
        "trace.overhead_pct": 100.0 * (untraced_rate - traced_rate) / untraced_rate,
        "trace.ops_per_s_traced": traced_rate,
        "trace.ops_per_s_untraced": untraced_rate,
    }
    for name in names:
        if name in out:
            continue
        span, field = name.rsplit(".", 1)
        st = stats.get(span)
        if span.startswith("layer."):
            layer = span[len("layer."):] + "."
            v = 100.0 * sum(s.self_s for n, s in stats.items() if n.startswith(layer)) / wall
        elif span.startswith(CRITERION_SPAN) and field == "total_pct":
            criterion = span[len("acceptance."):]
            v = 100.0 * sum(o.seconds for o in traced if o.key == criterion) / wall
        elif field == "self_pct":
            v = 100.0 * st.self_s / wall if st else 0.0
        elif field == "total_pct":
            v = 100.0 * st.total_s / wall if st else 0.0
        elif field in tracing.COUNTER_FIELDS:
            v = counts.get(span, {}).get(field, 0)
        else:
            raise ValueError(f"no way to compute per-layer metric {name}")
        out[name] = v
    return out


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def failure_summary(ops) -> list:
    """Failed ops grouped by reason, exit code and exception type."""
    groups = {}
    for o in ops:
        oc = o.outcome
        if not oc.verified and not oc.wrong:
            cell = oc.reason.split(":", 1)[0]
            key = (cell, str(oc.exit), oc.error)
            groups.setdefault(key, [0, oc.reason])[0] += 1
    return [{"cell": c, "exit": e, "error": t, "count": n, "example": r}
            for (c, e, t), (n, r) in sorted(groups.items())]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(pauli_lab.__file__).resolve().parents:
        raise SystemExit(f"pauli_lab imported from {pauli_lab.__file__}, not from {src}")
    wl = workloads.make(args.workload, Path(args.workdir))
    plans = [wl.plan(args.seed, k) for k in range(workloads.MAX_CYCLES)]
    warm = wl.warmup_params(args.seed)
    wl.check(warm, wl.run(warm))
    tracer = tracing.Tracer() if args.trace else None
    setup_s = time.monotonic() - args.t0
    # set-up at reference speed, by readings taken right after it
    setup_s /= slowdown([reference_reading() for _ in range(SETUP_READINGS)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    declared = declared_metrics()
    ops, walls, refs, counts = measure(wl, plans, args.seconds, tracer)
    slow = slowdown(refs)
    wrong = [o.outcome.wrong for o in ops if o.outcome.wrong]
    failed = sum(not o.outcome.verified for o in ops)
    if tracer:
        missing = [s for s in wl.expected_spans if tracer.stats[s].calls == 0]
        if missing:
            raise SystemExit(f"traced run recorded no calls of {missing}")
        units = declared["per_layer"]
        values = per_layer(units, ops, walls, tracer, counts, slow)
    else:
        units = declared["end_to_end"]
        values = end_to_end(wl, ops, walls, slow) | {"setup_s": setup_s}
    verified = [o.seconds / slow for o in ops if o.outcome.verified]
    tail = np.percentile(verified, wl.tail_pct) if verified else 0.0
    samples = {"verified": len(verified), "tail_pct": wl.tail_pct,
               "beyond_tail": sum(1 for t in verified if t > tail)}
    reference = {"readings": len(refs), "median_s": statistics.median(refs), "slowdown": slow}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cycles": ops[-1].cycle + 1, "samples": samples, "reference": reference,
        "attempted": len(ops), "failed": failed,
        "correct": not wrong, "wrong": wrong[:20], "failures": failure_summary(ops),
        "counts": counts, "machine": machine(), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

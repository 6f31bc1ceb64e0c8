"""pauli-lab benchmark: one workload per call, metrics as one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload product-pairs --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Lines before it record
the machine and every failed op with its exit code and exception type.  The
package is imported from ``src/`` of the current directory; the process exits
with status 2 when that is missing.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# set-up is measured this many times per run (fresh processes) and the
# median reported: the measuring process itself plus the probes
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"
WORKLOADS = ("product-pairs", "vanishing-pairs", "interp-large", "acceptance")


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PAULI_LAB_THREADS", None)  # the acceptance suite runs single-threaded
    env["PYTHONPATH"] = str(root / "src")
    # one BLAS thread: one client in one process, and on a shared machine a
    # second thread adds more run-to-run noise than speed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, root: Path, workdir: str, extra: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir, *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=root, env=worker_env(root),
                          stdout=subprocess.PIPE, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "pauli_lab" / "__init__.py").is_file():
        sys.stderr.write(f"no pauli_lab sources under {root / 'src'}\n")
        return 2

    (root / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as workdir:
        probes = []
        if not args.trace:
            probes = [run_worker(args, root, workdir, ["--setup-only"], deadline)
                      for _ in range(SETUP_PROBES)]
        result = run_worker(args, root, workdir, [], deadline)

    metrics = result["metrics"]
    setups = [p["setup_s"] for p in probes]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print("run: " + json.dumps({k: result[k] for k in ("workload", "seed", "trace", "cycles", "samples", "reference")}
                               | {"setup_samples_s": setups}))
    for fail in result["failures"]:
        print("failed: " + json.dumps(fail))
    for wrong in result["wrong"]:
        print("wrong: " + wrong)
    if args.trace:
        print("counts: " + json.dumps(result["counts"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

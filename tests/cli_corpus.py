"""Run the CLI byte list in-process, and compare two such runs number by number.

    PYTHONPATH=src python tests/cli_corpus.py OUT_DIR
    python tests/cli_corpus.py --compare DIR_A DIR_B

The first form runs every command of ``commands()`` once through
``pauli_lab.cli.main`` and writes into OUT_DIR each command's output files
and a ``<label>.run.json`` with its argv, exit code, stdout, stderr and
warnings.  It runs with OUT_DIR as the working directory and relative paths,
so the ``--pair``, ``--model`` and ``--problem`` paths, which the config hash
includes, are the same in every run.  The acceptance suite's seconds are
masked, in its CSV and in its stdout.  The package is imported from the
Python path (PYTHONPATH first), else from this checkout's ``src/``.

The second form compares two such directories file by file.  A file whose
bytes match reads ``identical``.  Otherwise every number in it is compared
under its key (a JSON path, a CSV column, or ``text``): the key reads
``identical``, or the largest move in ulps and in relative terms.  All text
between the numbers, exit codes included, must match exactly; a key where it
does not reads ``text differs``.  Exits 0 when every file is identical, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import struct
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))

# construct + verify cells: kind, A, D, seed
PAIR_CELLS = [("time", 0.5, 0.9, 7), ("time", 0.2, 3.0, 5),
              ("freq-matched", 0.5, 0.9, 7), ("freq-matched", 0.9, 0.5, 3),
              ("non-weak", 0.5, 0.9, 3), ("non-weak", 0.9, 0.6, 3),
              ("non-weak", 0.7, 0.5, 4), ("non-weak", 0.6, 0.7, 5)]
INTERP_CUTS = [0.0, 1.0, 1.8]
SECONDS = re.compile(r"\(\d+\.\d+ s\)")
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])"
                    r"|(?<![\w.])[-+]?(?:inf|nan)(?![\w.])")


# -- the byte list ------------------------------------------------------------


def _inputs() -> dict[str, str]:
    """The input files the commands read, by name: two models and the interp problems."""
    import numpy as np

    from pauli_lab.entire_models import profile_product, sinc_product
    from pauli_lab.sequences import SmoothSpec, generate_smooth

    files = {"sinc.model.json": json.dumps(sinc_product(30).to_dict()),
             "quartic.model.json": json.dumps(profile_product(
                 np.sqrt(np.arange(1, 31) / 0.45), 0.45, gauss_rate=0.3).to_dict())}
    # AC-6's shape at 64 points a side: density 0.8, seeds 1 and 2, window 3.2
    lam, mu = (generate_smooth(SmoothSpec(p=2.0, density=0.8, count=64, halves="±",
                                          seed=seed)).points for seed in (1, 2))
    rng = np.random.default_rng(0)
    for cut in INTERP_CUTS:
        def data(points):
            window = points[(np.abs(points) > cut) & (np.abs(points) <= 3.2)]
            return {repr(float(x)): [float(v) for v in rng.normal(size=2)] for x in window}

        files[f"interp-{cut}.problem.json"] = json.dumps({
            "lambda": lam.tolist(), "mu": mu.tolist(), "alpha": data(lam), "beta": data(mu),
            "weight_a": 0.5, "weight_b": 0.5, "inner_cut": cut, "outer_radius": 3.2,
            "nodes": 2048})
    return files


def commands() -> list[tuple[str, list[str]]]:
    """(label, argv) of every command in the byte list, in run order."""
    out = []
    for kind, a, d, seed in PAIR_CELLS:
        label = f"{kind}-{a}-{d}-{seed}"
        out.append((f"construct-{label}", ["construct", kind, "--A", str(a), "--D", str(d),
                                           "--seed", str(seed), "--out", f"{label}.pair.json"]))
        out.append((f"verify-{label}", ["verify", "--pair", f"{label}.pair.json",
                                        "--out", f"{label}.report.json"]))
    for model in ("sinc", "quartic"):
        out.append((f"ft-{model}", ["ft", "--model", f"{model}.model.json", "--xi", "0:3:0.25",
                                    "--out", f"{model}.ft.csv"]))
        out.append((f"indicator-{model}", ["indicator", "--model", f"{model}.model.json",
                                           "--theta", "0:1.5:0.25",
                                           "--out", f"{model}.indicator.csv"]))
    for cut in INTERP_CUTS:
        out.append((f"interp-{cut}", ["interp", "--problem", f"interp-{cut}.problem.json",
                                      "--out-dir", f"interp-{cut}"]))
    out.append(("thresholds", ["thresholds", "--a-grid", "0.05:0.95:0.05",
                               "--out", "thresholds.csv"]))
    out.append(("gen-seq", ["gen-seq", "--density", "0.8", "--count", "64", "--seed", "1",
                            "--halves", "±", "--out", "gen-seq.csv"]))
    out.append(("acceptance", ["acceptance", "--out", "acceptance.csv"]))
    return out


def _mask_acceptance(out_dir: Path, record: dict) -> None:
    record["stdout"] = SECONDS.sub("(- s)", record["stdout"])
    path = out_dir / "acceptance.csv"
    if path.exists():
        lines = path.read_text().splitlines(keepends=True)
        rows = [line.split(",", 3) for line in lines[2:]]
        path.write_text("".join(lines[:2] + [",".join(r[:2] + ["-"] + r[3:]) for r in rows]))


def run_corpus(out_dir: Path) -> None:
    """Write every output of the byte list, and a run record per command, into out_dir."""
    from pauli_lab import cli

    out_dir = out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in _inputs().items():
        (out_dir / name).write_text(text)
    home = Path.cwd()
    os.chdir(out_dir)
    try:
        for label, argv in commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = cli.main(argv)
            record = {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
                      "stderr": stderr.getvalue(),
                      "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}
            if label == "acceptance":
                _mask_acceptance(out_dir, record)
            Path(f"{label}.run.json").write_text(json.dumps(record, indent=2) + "\n")
    finally:
        os.chdir(home)


# -- comparison ---------------------------------------------------------------


def _ordered(x: float) -> int:
    """x's position among the doubles, so that neighbours differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def number_move(a: str, b: str) -> tuple[float, float]:
    """(ulps, relative) between two numbers written as text; nan and inf
    compare equal only to themselves, and otherwise read inf."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf, math.inf
    return float(abs(_ordered(x) - _ordered(y))), abs(x - y) / max(abs(x), abs(y))


def _text_tokens(key: str, text: str) -> list[tuple[str, str, str]]:
    out, last = [], 0
    for m in NUMBER.finditer(text):
        out.append((key, "text", text[last:m.start()]))
        out.append((key, "num", m.group()))
        last = m.end()
    out.append((key, "text", text[last:]))
    return out


def _json_tokens(node, key: str) -> list[tuple[str, str, str]]:
    if isinstance(node, dict):
        out = [(key, "text", "{" + ",".join(map(json.dumps, node)) + "}")]
        for k, v in node.items():
            out += _json_tokens(v, f"{key}.{k}" if key else k)
        return out
    if isinstance(node, list):
        out = [(key, "text", f"[{len(node)}]")]
        for v in node:
            out += _json_tokens(v, key)
        return out
    if isinstance(node, _Number):
        return [(key, "num", node.text)]
    if isinstance(node, str):
        return _text_tokens(key, node)
    return [(key, "text", json.dumps(node))]


class _Number:
    """A JSON number kept as the text the file holds."""

    def __init__(self, text: str):
        self.text = text


def tokens(name: str, text: str) -> list[tuple[str, str, str]]:
    """(key, kind, text) of a file's pieces: kind "num" for a number, else "text"."""
    if name.endswith(".json"):
        try:
            node = json.loads(text, parse_float=_Number, parse_int=_Number,
                              parse_constant=_Number)
        except ValueError:
            return _text_tokens("text", text)
        return _json_tokens(node, "")
    if name.endswith(".csv"):
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        out = _text_tokens("header", "\n".join(comments + body[:1]))
        columns = body[0].split(",") if body else []
        for line in body[1:]:
            cells = line.split(",")
            out.append(("row", "text", str(len(cells))))
            for i, cell in enumerate(cells):
                out += _text_tokens(columns[i] if i < len(columns) else "text", cell)
        return out
    return _text_tokens("text", text)


def compare_file(name: str, a: str, b: str) -> dict[str, tuple | str]:
    """Per key: "identical", "text differs", or the largest (ulps, relative) move."""
    ta, tb = tokens(name, a), tokens(name, b)
    keys = {key: "identical" for key, _, _ in ta + tb}
    if [(k, kind) for k, kind, _ in ta] != [(k, kind) for k, kind, _ in tb]:
        return {"<structure>": "text differs"}
    for (key, kind, x), (_, _, y) in zip(ta, tb):
        if x == y or keys[key] == "text differs":
            continue
        if kind == "text":
            keys[key] = "text differs"
            continue
        ulps, rel = number_move(x, y)
        old = keys[key] if isinstance(keys[key], tuple) else (0.0, 0.0)
        keys[key] = (max(old[0], ulps), max(old[1], rel))
    return keys


def compare(dir_a: Path, dir_b: Path, stream=sys.stdout) -> bool:
    """Print the per-file, per-key report; True when every file is identical."""
    names = sorted({str(p.relative_to(d)) for d in (dir_a, dir_b)
                    for p in d.rglob("*") if p.is_file()})
    same = True
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            stream.write(f"only in {dir_a if pa.exists() else dir_b}  {name}\n")
            same = False
            continue
        a, b = pa.read_text(), pb.read_text()
        if a == b:
            stream.write(f"identical  {name}\n")
            continue
        same = False
        stream.write(f"differs    {name}\n")
        for key, verdict in compare_file(name, a, b).items():
            if isinstance(verdict, tuple):
                verdict = f"{verdict[0]:.0f} ulps, relative {verdict[1]:.3g}"
            if verdict != "identical":
                stream.write(f"    {key or '<top>'}: {verdict}\n")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", type=Path, help="directory to write the run into")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if args.out_dir is None:
        parser.error("give an output directory or --compare A B")
    run_corpus(args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())

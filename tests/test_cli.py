import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pauli_lab import CheckFailedError, cli, fourier
from pauli_lab import constructions as con
from pauli_lab import interpolation as itp
from pauli_lab import pauli_verify as pv
from pauli_lab.entire_models import ProductModel, profile_product, sinc_product
from pauli_lab.thresholds import pauli_threshold, weak_pair_threshold


def run(argv):
    return cli.main(argv)


def run_warnings_as_errors(argv):
    """The CLI in its own interpreter under -W error::RuntimeWarning, which
    shows warnings where pytest's warning capture would not."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "pauli_lab.cli",
                           *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


@pytest.fixture(scope="module")
def nonweak_file(tmp_path_factory):
    """The non-weak pair of `construct non-weak --A 0.5 --D 0.9 --seed 3`."""
    pair_file = tmp_path_factory.mktemp("nonweak") / "pair.json"
    assert run(["construct", "non-weak", "--A", "0.5", "--D", "0.9", "--seed", "3",
                "--out", str(pair_file)]) == 0
    return pair_file


class TestThresholdTable:
    def test_nineteen_rows_and_values(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert run(["thresholds", "--a-grid", "0.05:0.95:0.05", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# pauli-lab")
        assert lines[1] == "A,c1,c2,pauli_threshold,uniqueness_time,uniqueness_freq"
        rows = lines[2:]
        assert len(rows) == 19
        row_half = [r for r in rows if r.startswith("0.5,")][0]
        assert float(row_half.split(",")[1]) == pytest.approx(4.0, abs=1e-12)

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["thresholds", "--a-grid", "0.1:0.9:0.1", "--out", str(a)])
        run(["thresholds", "--a-grid", "0.1:0.9:0.1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestGenSeq:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "seq.csv"
        assert run(["gen-seq", "--density", "1.5", "--count", "32", "--seed", "3",
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert "D=1.5" in text and "seed=3" in text
        values = [float(v) for v in text.splitlines() if not v.startswith("#")]
        assert values == sorted(values)
        assert values[0] == pytest.approx(np.sqrt(1 / 1.5), abs=1e-12)

    def test_header_from_flags(self, tmp_path):
        # the second line records the generator's flags; readers skip it as a comment
        out = tmp_path / "seq.csv"
        assert run(["gen-seq", "--density", "0.9", "--count", "4", "--seed", "7",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# pauli-lab ") and lines[0].endswith(" seed=7")
        assert lines[1] == "# p=2.0 D=0.9 seed=7"
        assert len(lines) == 6


class TestConstructVerify:
    def test_freq_matched_pipeline(self, tmp_path):
        pair_file = tmp_path / "pair.json"
        report_file = tmp_path / "report.json"
        assert run(["construct", "freq-matched", "--A", "0.5", "--D", "0.9",
                    "--seed", "7", "--out", str(pair_file)]) == 0
        payload = json.loads(pair_file.read_text())
        assert {"phi", "psi", "vartheta", "provenance"} <= set(payload)
        assert run(["verify", "--pair", str(pair_file), "--out", str(report_file)]) == 0
        report = json.loads(report_file.read_text())
        assert report["verdicts"]["weak_pair_freq"] is True
        assert report["verdicts"]["discrete_pair"] is True
        assert report["verdicts"]["weak_pair_time"] is False
        assert report["gaps"]["time"] >= 1e-3

    def test_vanishing_density_exit_one(self, tmp_path):
        # a valid sub-threshold input that the non-weak split cannot host is a
        # failed check, not a configuration error
        code = run(["construct", "non-weak", "--A", "0.3", "--D", "0.9", "--seed", "3",
                    "--out", str(tmp_path / "x.json")])
        assert code == 1

    @pytest.mark.parametrize("kind, decay, density", [
        ("non-weak", 0.5, 1.35), ("non-weak", 0.7, 0.3),
        ("non-weak", 0.34, round(0.9 * weak_pair_threshold(0.34) / 2.0, 6)),
        ("non-weak", 0.9, round(0.7 * weak_pair_threshold(0.9) / 2.0, 6)),
        ("freq-matched", 0.9, round(0.2 * pauli_threshold(0.9) / 2.0, 6)),
    ], ids=["non-weak-0.5-1.35", "non-weak-0.7-0.3", "non-weak-0.34-0.9cap",
            "non-weak-0.9-0.7cap", "freq-matched-0.9-0.2cap"])
    def test_reach_construct_then_verify(self, tmp_path, kind, decay, density):
        # cells where one carrier per vanishing function suffices: too few
        # midgaps or set points for a carrier per interior point once failed
        # them at construct time
        pair_file = tmp_path / "pair.json"
        assert run(["construct", kind, "--A", str(decay), "--D", str(density), "--seed", "3",
                    "--out", str(pair_file)]) == 0
        assert run(["verify", "--pair", str(pair_file), "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("kind", ["time", "freq-matched", "non-weak"])
    def test_set_past_the_point_range_exits_1(self, tmp_path, capsys, kind):
        # at D = 1e-300 the points lie near 1e150, where a quartic zero's pole
        # rho^4 overflows: such a time pair once exited 0 with parts that read
        # NaN, and verify --radius 1e200 passed it with NaN gaps
        out = tmp_path / "pair.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["construct", kind, "--A", "0.5", "--D", "1e-300", "--count", "16",
                        "--out", str(out)]) == 1
        found = re.fullmatch(r"check failed: the time set holds the point (\S+), past the range "
                             r"\|x\| <= 1e\+75 of the models\n", capsys.readouterr().err)
        assert found and abs(float(found[1])) > 1e75
        assert not out.exists()

    def test_pair_with_a_zero_past_the_double_range_rejected(self, tmp_path, capsys):
        # the zero's pole rho^4 overflowed, with numpy warnings and NaN factors
        pair_file = tmp_path / "pair.json"
        assert run(["construct", "time", "--A", "0.5", "--count", "16",
                    "--out", str(pair_file)]) == 0
        payload = json.loads(pair_file.read_text())
        payload["phi"]["model"]["zeros"][-1] = 1e100
        pair_file.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["verify", "--pair", str(pair_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: the zero 1e+100 has the factor pole inf; a pole and its "
            "reciprocal must be finite doubles\n")
        assert not out.exists()

    def test_headroom_failure_message_holds(self, tmp_path, capsys):
        code = run(["construct", "time", "--A", "0.5", "--D", "1.9", "--seed", "3",
                    "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 1
        found = re.search(r"clears the ([\d.]+) headroom margin: ([\d.]+) x half density "
                          r"([\d.]+) = ([\d.]+) >= ([\d.]+)", err)
        assert found, err
        margin, factor, density, need, best = (float(v) for v in found.groups())
        assert margin == factor == 1.1
        assert need == pytest.approx(margin * density, abs=1e-4)
        assert need >= best

    @pytest.mark.parametrize("kind, density", [("time", "2.1"), ("freq-matched", "2.5")])
    def test_supercritical_message_holds(self, tmp_path, capsys, kind, density):
        code = run(["construct", kind, "--A", "0.5", "--D", density, "--seed", "3",
                    "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 1
        found = re.fullmatch(r"check failed: half density ([\d.]+) >= threshold ([\d.]+)\n", err)
        assert found, err
        half, cap = (float(v) for v in found.groups())
        assert half >= cap == 2.0

    @pytest.mark.parametrize("density", ["300", "1e9", "1e16"])
    @pytest.mark.parametrize("kind", ["time", "freq-matched", "non-weak"])
    def test_far_supercritical_sets_fail_naming_the_density(self, tmp_path, capsys, kind,
                                                            density):
        # the density fit keeps its r^2 column for radii near 1e-8, and no
        # check of the failure builds a model of the set
        out = tmp_path / "x.json"
        code = run(["construct", kind, "--A", "0.5", "--D", density, "--seed", "3",
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        found = re.search(r"half density ([\d.]+) >= threshold ([\d.]+)", err)
        assert found, err
        half, cap = (float(v) for v in found.groups())
        assert half == pytest.approx(float(density), rel=1e-3) and cap < 2.5

    @pytest.mark.parametrize("density, message", [
        ("1.1", "half density 1.100 reaches the cap 1.000"),
        ("0.97", "half density 0.970 leaves no rate headroom")], ids=["cap", "headroom"])
    @pytest.mark.parametrize("kind", ["non-weak", "freq-matched"])
    def test_null_space_density_failures(self, tmp_path, capsys, kind, density, message):
        # at A = 0.9 both kinds take the null-space branch, whose cap is 1
        out = tmp_path / "x.json"
        assert run(["construct", kind, "--A", "0.9", "--D", density, "--seed", "3",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"check failed: {message}\n"
        assert not out.exists()

    def test_null_space_verify_evaluates_the_shared_part_once(self, tmp_path,
                                                                interpolant_calls):
        pair_file = tmp_path / "pair.json"
        assert run(["construct", "freq-matched", "--A", "0.9", "--D", "0.5", "--seed", "3",
                    "--out", str(pair_file)]) == 0
        interpolant_calls.update(eval=0, eval_hat=0)
        assert run(["verify", "--pair", str(pair_file), "--out", str(tmp_path / "r.json")]) == 0
        # the retained set and the time grid, then the frequency grid
        assert interpolant_calls == {"eval": 2, "eval_hat": 1}

    @pytest.mark.parametrize("kind, decay", [("time", "0.5"), ("freq-matched", "0.6")])
    @pytest.mark.parametrize("points", ["0\n", "0\n0.7\n1.1\n1.5\n"], ids=["zero", "zero-first"])
    def test_point_zero_in_product_pair(self, tmp_path, kind, decay, points):
        # 0 is the odd part's first point, where the odd factor already vanishes
        lam, pair_file, report = tmp_path / "lam.csv", tmp_path / "pair.json", tmp_path / "r.json"
        lam.write_text(points)
        assert run(["construct", kind, "--A", decay, "--lam", str(lam), "--out", str(pair_file)]) == 0
        assert run(["verify", "--pair", str(pair_file), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["residuals"] == {"freq": 0.0, "time": 0.0}

    @pytest.mark.parametrize("kind, decay", [("non-weak", "0.5"), ("non-weak", "0.9"),
                                             ("freq-matched", "0.9")])
    def test_point_zero_in_vanishing_pair_exit_one(self, tmp_path, capsys, kind, decay):
        lam = tmp_path / "lam.csv"
        lam.write_text("0\n")
        assert run(["construct", kind, "--A", decay, "--lam", str(lam),
                    "--out", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == ("check failed: the time set holds the point 0, where "
                                           "the even vanishing generators cannot vanish\n")
        assert not (tmp_path / "x.json").exists()

    def test_one_point_time_pair(self, tmp_path):
        # the symmetrized point +-x goes to the odd part, so the even part is
        # the plain Gaussian with no zeros and no tail
        pair_file = tmp_path / "pair.json"
        assert run(["construct", "time", "--A", "0.5", "--count", "1",
                    "--out", str(pair_file)]) == 0
        pair = json.loads(pair_file.read_text())
        phi, psi = pair["phi"]["model"], pair["psi"]["model"]
        assert phi["zeros"] == [] and phi["tail_start"] == 0 and phi["sigma"] == 0
        assert psi["zeros"] == pair["provenance"]["lambda_points"][1:] and psi["sigma"] == 1
        assert run(["verify", "--pair", str(pair_file), "--out", str(tmp_path / "r.json")]) == 0

    def test_time_pair_verify_builds_one_chirp_plan(self, tmp_path):
        # both parts share one quadrature and one frequency grid
        pair_file = tmp_path / "pair.json"
        assert run(["construct", "time", "--A", "0.5", "--count", "64",
                    "--out", str(pair_file)]) == 0
        fourier._chirp_plan.cache_clear()
        assert run(["verify", "--pair", str(pair_file), "--out", str(tmp_path / "r.json")]) == 0
        info = fourier._chirp_plan.cache_info()
        assert info.misses == 1 and info.hits >= 1

    def test_infeasible_density_exit_one(self, tmp_path):
        code = run(["construct", "freq-matched", "--A", "0.5", "--D", "2.5",
                    "--count", "256", "--out", str(tmp_path / "x.json")])
        assert code == 1


class TestModelTools:
    @pytest.fixture()
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(ProductModel(gauss_rate=1.0).to_dict(), indent=2, sort_keys=True))
        return path

    def test_ft_oracle(self, tmp_path, model_file):
        out = tmp_path / "ft.csv"
        assert run(["ft", "--model", str(model_file), "--xi=0:2:0.5", "--out", str(out)]) == 0
        rows = [r for r in out.read_text().splitlines()[2:]]
        for row in rows:
            xi, re, im, err = (float(v) for v in row.split(","))
            assert re == pytest.approx(np.exp(-np.pi * xi * xi), abs=1e-10)
            assert abs(im) < 1e-12 and err < 1e-9

    @pytest.mark.parametrize("model", [
        sinc_product(30),
        profile_product(np.sqrt(np.arange(1, 31) / 0.45), 0.45, gauss_rate=0.3),
    ], ids=["sinc", "quartic"])
    @pytest.mark.parametrize("half_width, code", [
        ("1e75", 0), (repr(float(np.nextafter(1e75, np.inf))), 2), ("1e160", 2)])
    def test_ft_half_width_in_the_point_range(self, tmp_path, capsys, model, half_width, code):
        # the model's Gaussian factor squares the window's points; past 1.3e154
        # the square overflowed with numpy warnings and ft still wrote rows
        path, out = tmp_path / "model.json", tmp_path / "ft.csv"
        path.write_text(json.dumps(model.to_dict()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["ft", "--model", str(path), "--xi=0:1:0.5", "--half-width", half_width,
                        "--nodes", "64", "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (f"configuration error: --half-width must be at most 1e+75, "
                           f"got {float(half_width)!r}\n")
            assert not out.exists()
        else:
            assert err == "" and len(out.read_text().splitlines()) == 5

    def test_indicator_sweep(self, tmp_path, model_file):
        out = tmp_path / "ind.csv"
        assert run(["indicator", "--model", str(model_file), "--theta=0:1.5707963:0.19634954",
                    "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 9
        for row in rows:
            theta, h_hat, resid, *_ = (float(v) for v in row.split(","))
            assert h_hat == pytest.approx(-np.pi * np.cos(2 * theta), abs=1e-8)

    def test_model_json_round_trip(self, model_file):
        back = ProductModel.from_dict(json.loads(model_file.read_text()))
        assert back.gauss_rate == 1.0

    @pytest.mark.parametrize("command, flag", [("ft", "--xi=0:2:0.5"),
                                               ("indicator", "--theta=0:1:0.5")])
    @pytest.mark.parametrize("key, value", [("c_re", 2.0), ("c_im", 0.5), ("theta", 0.7)])
    def test_scaled_or_rotated_model_rejected(self, tmp_path, capsys, model_file, command, flag,
                                              key, value):
        # the models are real; a file with another constant factor is not read as c = 1
        obj = json.loads(model_file.read_text())
        obj[key] = value
        model_file.write_text(json.dumps(obj))
        out = tmp_path / "out.csv"
        assert run([command, "--model", str(model_file), flag, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: model JSON sets") and f"'{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("vartheta, code", [(0.0, 0), (0.7, 2)])
    def test_verify_reads_unrotated_pairs_only(self, tmp_path, capsys, vartheta, code):
        # phi even and psi odd: the moduli of phi +- psi agree at the point 0
        part = {"type": "product_model", "quad": {"half_width": 4.0, "nodes": 64}}
        payload = {"phi": dict(part, model=ProductModel(gauss_rate=1.0).to_dict()),
                   "psi": dict(part, model=ProductModel(gauss_rate=1.0, parity=1).to_dict()),
                   "vartheta": vartheta,
                   "provenance": {"kind": "time_pair", "lambda_points": [0.0]}}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        assert run(["verify", "--pair", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("configuration error: pair JSON sets 'vartheta' to 0.7")
            assert not out.exists()
        else:
            assert err == "" and json.loads(out.read_text())["verdicts"]["discrete_pair"]

    def test_verify_rejects_truncated_tail_pair(self, tmp_path, capsys):
        # a time pair written before the exact tails: models carry T2/T4
        model = ('{"T2": 0.0001, "T4": 1e-12, "c_im": 0.0, "c_re": 1.0, "gamma": 1.0, '
                 '"meta": {"quartic": true, "tail_next_zero": 2.5}, "sigma": 0, "theta": 0.0, '
                 '"zeros": [1.0, 2.0]}')
        part = f'{{"type": "product_model", "model": {model}, "quad": {{"half_width": 4.0, "nodes": 64}}}}'
        path = tmp_path / "old.json"
        path.write_text(f'{{"phi": {part}, "psi": {part}, "vartheta": 0.0, '
                        '"provenance": {"kind": "time_pair"}}')
        assert run(["verify", "--pair", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "'T2'" in err and "construct" in err

    def test_verify_rejects_scaled_part(self, tmp_path, capsys):
        # a null-space pair written while its parts were stored as f/2 wrappers
        part = '{"type": "scaled", "factor_re": 0.5, "factor_im": 0.0, "base": {}}'
        path = tmp_path / "old.json"
        path.write_text(f'{{"phi": {part}, "psi": {part}, "vartheta": 0.0, '
                        '"provenance": {"kind": "frequency_matched", "branch": "null_space"}}')
        assert run(["verify", "--pair", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "'scaled'" in err
        assert "rebuild the pair with `construct`" in err

    def test_verify_rejects_complex_coefficient_pair(self, nonweak_file, tmp_path, capsys):
        # a non-weak pair written while interpolant parts stored complex coefficients
        payload = json.loads(nonweak_file.read_text())
        for key in ("phi", "psi"):
            part = payload[key]
            for name in ("alpha", "beta"):
                values = part.pop(name)
                part[f"{name}_re"], part[f"{name}_im"] = values, [0.0] * len(values)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        assert run(["verify", "--pair", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: the pair part 'phi' of type 'interpolant' is in an old or "
            "unknown format; rebuild the pair with `construct`\n")
        assert not out.exists()

    _PART = {"type": "product_model", "quad": {"half_width": 4.0, "nodes": 64},
             "model": ProductModel(gauss_rate=1.0).to_dict()}

    @pytest.mark.parametrize("command, text, message", [
        ("ft", "[1, 2]", "a model must be a JSON object, not list"),
        ("indicator", json.dumps(dict(sinc_product(30).to_dict(), meta=1)),
         "a model's meta must be a JSON object, not int"),
        ("verify", "[0]", "a pair file must be a JSON object, not list"),
        ("verify", '{"phi": 1, "psi": 2, "vartheta": 0.0}',
         "the pair part 'phi' must be a JSON object, not int"),
        ("verify", json.dumps({"phi": dict(_PART, quad=[4.0, 64]), "psi": 2, "vartheta": 0.0}),
         "the 'phi' part's 'quad' must be a JSON object, not list"),
        ("verify", json.dumps({"phi": _PART, "psi": _PART, "vartheta": 0.0, "provenance": 1}),
         "the pair's provenance must be a JSON object, not int"),
    ], ids=["ft-list", "indicator-meta", "verify-list", "verify-parts", "verify-quad",
            "verify-provenance"])
    def test_file_not_an_object_rejected(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        flag = {"ft": ["--model", str(path), "--xi=0:1:0.5"],
                "indicator": ["--model", str(path), "--theta=0:1:0.5"],
                "verify": ["--pair", str(path)]}[command]
        out = tmp_path / "out"
        assert run([command, *flag, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    _TIME_PAIR = {"phi": dict(_PART), "vartheta": 0.0,
                  "psi": dict(_PART, model=ProductModel(gauss_rate=1.0, parity=1).to_dict()),
                  "provenance": {"kind": "time_pair", "lambda_points": [0.0]}}

    @pytest.mark.parametrize("base, keys, value, message", [
        ("model", ["gamma"], None, "a model's 'gamma' must be a number, not NoneType"),
        ("model", ["sigma"], True, "a model's 'sigma' must be an integer, not bool"),
        ("model", ["tail_start"], 31.5, "a model's 'tail_start' must be an integer, not float"),
        ("model", ["c_re"], True, "a model's 'c_re' must be a number, not bool"),
        ("model", ["zeros"], [1.0, False], "a model's 'zeros' must be a list of numbers"),
        ("model", ["meta", "quartic"], 0, "a model's meta 'quartic' must be true or false, not int"),
        ("pair", ["phi", "model", "zeros"], None, "a model's 'zeros' must be a list of numbers"),
        ("pair", ["phi", "quad", "half_width"], "4.0",
         "the 'phi' part's 'quad' half_width must be a number, not str"),
        ("pair", ["psi", "quad", "nodes"], 64.0,
         "the 'psi' part's 'quad' nodes must be an integer, not float"),
        ("pair", ["vartheta"], False, "a pair's 'vartheta' must be a number, not bool"),
        ("pair", ["provenance", "lambda_points"], {"a": 1},
         "the pair's provenance 'lambda_points' must be a list of numbers"),
        ("nonweak", ["phi", "weight_a"], None,
         "the 'phi' part's 'weight_a' must be a number, not NoneType"),
        ("nonweak", ["psi", "beta"], "0", "the 'psi' part's 'beta' must be a list of numbers"),
        ("problem", ["lambda"], [-1.0, True], "lambda must be a list of numbers"),
    ], ids=["gamma-null", "sigma-bool", "tail-start-float", "c-re-bool", "zeros-bool",
            "quartic-int", "part-zeros-null", "half-width-string", "nodes-float",
            "vartheta-bool", "lambda-points-object", "weight-null", "beta-string",
            "interp-lambda-bool"])
    def test_field_of_wrong_json_type_rejected(self, tmp_path, capsys, nonweak_file, base, keys,
                                               value, message):
        # read as a configuration error naming the field, not a traceback;
        # JSON true and false are neither numbers nor integers
        obj = {"model": sinc_product(30).to_dict(), "pair": self._TIME_PAIR,
               "nonweak": json.loads(nonweak_file.read_text()),
               "problem": TestInterp.README_PROBLEM}[base]
        obj = json.loads(json.dumps(obj))
        target = obj
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path, out = tmp_path / "in.json", tmp_path / "out"
        path.write_text(json.dumps(obj))
        argv = {"model": ["ft", "--model", str(path), "--xi=0:1:0.5", "--out", str(out)],
                "problem": ["interp", "--problem", str(path), "--out-dir", str(out)]}.get(
                    base, ["verify", "--pair", str(path), "--out", str(out)])
        assert run(argv) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("base, keys, value, message", [
        ("model", ["gamma"], float("nan"), "a model's 'gamma' must be a finite double, got nan"),
        ("model", ["gamma"], float("inf"), "a model's 'gamma' must be a finite double, got inf"),
        ("model", ["gamma"], 10 ** 400,
         f"a model's 'gamma' must be a finite double, got {10 ** 400}"),
        ("model", ["zeros", 0], float("nan"),
         "a model's 'zeros' must hold only finite doubles, got nan"),
        ("nonweak", ["phi", "weight_a"], float("inf"),
         "the 'phi' part's 'weight_a' must be a finite double, got inf"),
        ("nonweak", ["provenance", "lambda_points", 0], float("nan"),
         "the pair's provenance 'lambda_points' must hold only finite doubles, got nan"),
        ("nonweak", ["phi", "alpha", 0], float("nan"),
         "the 'phi' part's 'alpha' must hold only finite doubles, got nan"),
        ("pair", ["psi", "model", "gamma"], float("nan"),
         "a model's 'gamma' must be a finite double, got nan"),
        ("problem", ["alpha", "1.0", 0], float("nan"),
         "alpha['1.0'] must hold only finite doubles, got nan"),
        ("problem", ["tol"], 10 ** 400, f"tol must be a finite double, got {10 ** 400}"),
    ], ids=["gamma-nan", "gamma-infinity", "gamma-int-1e400", "zeros-nan", "weight-infinity",
            "lambda-points-nan", "alpha-nan", "time-pair-gamma-nan", "interp-alpha-nan",
            "interp-tol-int-1e400"])
    def test_number_not_a_finite_double_rejected(self, tmp_path, capsys, nonweak_file, base,
                                                 keys, value, message):
        # Python's json reads NaN, Infinity and integers past the double
        # range; these once exited 0 with NaN columns or a dropped point, 1
        # as a failed check or with a traceback, or 2 naming no field
        self.test_field_of_wrong_json_type_rejected(tmp_path, capsys, nonweak_file, base, keys,
                                                    value, message)

    @pytest.mark.parametrize("kind, shown", [(None, "None"), ("weak", "'weak'"),
                                             (["non_weak"], "['non_weak']")],
                             ids=["missing", "unknown", "list"])
    def test_verify_needs_a_known_pair_kind(self, nonweak_file, tmp_path, capsys, kind, shown):
        # no kind, no rule for which verdicts the pair must pass
        payload = json.loads(nonweak_file.read_text())
        if kind is None:
            del payload["provenance"]["kind"]
        else:
            payload["provenance"]["kind"] = kind
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        assert run(["verify", "--pair", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: the pair's provenance kind {shown} is none of "
            "['time_pair', 'frequency_matched', 'non_weak']\n")
        assert not out.exists()


class TestInterp:
    PROBLEM = {
        "lambda": [-2.0, -1.4142, -1.0, 1.0, 1.4142, 2.0],
        "mu": [-1.7, -1.2, 1.2, 1.7],
        "alpha": {"1.0": [1.0, 0.0], "-1.0": [1.0, 0.0]},
        "weight_a": 0.5, "weight_b": 0.5,
        "outer_radius": 2.5, "nodes": 1024,
    }

    def test_run_writes_artifacts(self, tmp_path):
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(self.PROBLEM))
        out_dir = tmp_path / "run"
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == 0
        hist = (out_dir / "residual_history.csv").read_text().splitlines()
        assert hist[1] == "step,norm,ratio"
        norms = [float(r.split(",")[1]) for r in hist[2:]]
        assert norms[-1] < norms[0]
        assert (out_dir / "assembled_samples.csv").exists()

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({"lambda": [1.0], "mu": [], "weight_a": 0.5,
                                   "weight_b": 0.5, "outer_radius": 2.0,
                                   "bogus": 1}))
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "configuration error: unknown problem keys: ['bogus']\n"

    @pytest.mark.parametrize("key, value, message", [
        pytest.param(key, value, message, id=f"{key}-{value}") for key, value, message in [
            ("weight_a", 0, "must be positive, got 0.0"),
            ("weight_b", -0.5, "must be positive, got -0.5"),
            ("weight_a", float("nan"), "must be a finite double, got nan"),
            ("weight_b", "0.5", "must be a number, not str"),
            ("tol", -1, "must be positive, got -1.0"), ("tol", 0.0, "must be positive, got 0.0"),
            ("tol", float("inf"), "must be a finite double, got inf"),
            ("weight_a", True, "must be a number, not bool"),
            ("weight_b", True, "must be a number, not bool"),
            ("tol", True, "must be a number, not bool"),
            ("outer_radius", "abc", "must be a number, not str"),
            ("outer_radius", None, "must be a number, not NoneType"),
            ("outer_radius", 0, "must be positive, got 0.0"),
            ("outer_radius", float("inf"), "must be a finite double, got inf"),
            ("outer_radius", 2 ** 1024, f"must be a finite double, got {2 ** 1024}"),
            ("outer_radius", True, "must be a number, not bool"),
            ("inner_cut", "x", "must be a number, not str"),
            ("inner_cut", None, "must be a number, not NoneType"),
            ("inner_cut", float("nan"), "must be a finite double, got nan"),
            ("inner_cut", float("-inf"), "must be a finite double, got -inf"),
            ("inner_cut", False, "must be a number, not bool"),
            # interpolation.default_quads squares the radius and divides by the
            # rates, and its window must lie in the models' point range
            ("outer_radius", 1e300,
             "1e+300 widens the quadrature window to |x| <= 1e+300, past 1e+75"),
            ("weight_a", 1e-320, "1e-320 widens the quadrature window to |x| <= inf, past 1e+75"),
            ("weight_b", 1e-320,
             "1e-320 widens the quadrature window to |x| <= inf, past 1e+75")]])
    def test_bad_rate_or_tolerance_rejected(self, tmp_path, capsys, monkeypatch, key, value,
                                            message):
        # weight_a 0 once escaped as a ZeroDivisionError, tol -1 exited 1
        # after 60 steps of a converging iteration, and a non-numeric radius
        # ended in a traceback with exit 1
        monkeypatch.setattr(itp, "make_problem",
                            lambda *args, **kwargs: pytest.fail("computed before the check"))
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({**self.PROBLEM, key: value}))
        out_dir = tmp_path / "run"
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"configuration error: {key} {message}\n"
        assert not out_dir.exists()

    # alpha 1 on lambda +-1, +-2 and beta 0.5 on mu +-1.7: at 64 nodes the
    # quadrature is too coarse for the frequency data, at 1024 it is not
    GAPS = {
        "lambda": [-2.0, -1.0, 1.0, 2.0], "mu": [-1.7, 1.7],
        "alpha": {"-2.0": [1, 0], "-1.0": [1, 0], "1.0": [1, 0], "2.0": [1, 0]},
        "beta": {"-1.7": [0.5, 0], "1.7": [0.5, 0]},
        "weight_a": 0.5, "weight_b": 0.5, "outer_radius": 2.5,
    }

    def test_failed_reevaluation_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({**self.GAPS, "nodes": 64}))
        out_dir = tmp_path / "run"
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        gaps = re.search(r"gaps (\S+) \(time\) and (\S+) \(frequency\), bound 1e-07", err)
        assert err.startswith("check failed:") and gaps
        assert float(gaps[1]) <= itp.REEVAL_GAP_TOL < float(gaps[2])
        assert not out_dir.exists()
        cfg.write_text(json.dumps({**self.GAPS, "nodes": 1024}))
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == 0

    @pytest.mark.parametrize("nodes", [16, 32])
    def test_cut_that_drops_data_exits_1(self, tmp_path, capsys, nodes):
        # at these node counts the contracting window starts past 1.7: only
        # lambda +-2 stay, and the data at +-1 and +-1.7 would go unmet
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({**self.GAPS, "nodes": nodes}))
        out_dir = tmp_path / "run"
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            "check failed: the window cut at |x| = 1.85 drops 4 of the 6 data points, "
            "which the interpolant would not meet\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_below_one_rejected(self, tmp_path, capsys, samples):
        # --samples 0 once exited 0 with a header-only assembled_samples.csv,
        # and -1 ran the whole solve before numpy refused the sample count
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(self.PROBLEM))
        out_dir = tmp_path / "run"
        argv = ["interp", "--problem", str(cfg), "--out-dir", str(out_dir), f"--samples={samples}"]
        message = f"configuration error: --samples must be >= 1, got {samples}\n"
        assert run(argv) == 2
        assert capsys.readouterr().err == message
        assert not out_dir.exists()
        # the count is checked before the problem file is read
        argv[2] = str(tmp_path / "missing.json")
        assert run(argv) == 2
        assert capsys.readouterr().err == message

    def test_one_sample(self, tmp_path):
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(self.PROBLEM))
        out_dir = tmp_path / "run"
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir),
                    "--samples", "1"]) == 0
        rows = (out_dir / "assembled_samples.csv").read_text().splitlines()
        assert rows[1] == "x,re,im" and len(rows) == 3

    @pytest.mark.parametrize("change, message", [
        ({"alpha": {"1.5": [1.0, 0.0]}}, "alpha key '1.5' is not a point of lambda"),
        ({"beta": {"1.0": [1.0, 0.0]}}, "beta key '1.0' is not a point of mu"),
        ({"alpha": {"1.0": [1.0]}}, "alpha['1.0'] must be [re, im], two numbers, got [1.0]"),
        ({"nodes": 1e9}, "nodes must be an integer, not float"),
        # these once read "could not convert string to float: 'abc'" and
        # "points must be strictly increasing", naming no key
        ({"alpha": {"abc": [1, 0]}}, "alpha key 'abc' is not a number"),
        ({"beta": {"": [1, 0]}}, "beta key '' is not a number"),
        ({"lambda": [1.0, -1.0]}, "lambda must be strictly increasing"),
        ({"mu": [-1.5, 1.5, 1.5]}, "mu must be strictly increasing"),
        # data outside the window once went unmet without a word, with exit 0
        ({"lambda": [*PROBLEM["lambda"], 3.0], "alpha": {"3.0": [5.0, 0.0]}},
         "alpha point 3.0 lies outside the window inner_cut 0.0 < |x| <= outer_radius 2.5"),
        ({"inner_cut": 1.2},
         "alpha point 1.0 lies outside the window inner_cut 1.2 < |x| <= outer_radius 2.5"),
    ], ids=["alpha-key", "beta-key", "entry", "nodes", "alpha-key-not-a-number",
            "beta-key-not-a-number", "lambda-unsorted", "mu-repeated", "alpha-past-the-window",
            "alpha-inside-the-cut"])
    def test_malformed_problem_rejected(self, tmp_path, capsys, change, message):
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({**self.PROBLEM, **change}))
        out_dir = tmp_path / "run"
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("change, count", [
        ({"lambda": [], "mu": [], "alpha": {}}, 0),
        ({"lambda": [5.0], "mu": [-6.0], "alpha": {}, "outer_radius": 3}, 2),
        ({"inner_cut": 2.0}, 10),
    ], ids=["empty", "outside", "inside-the-cut"])
    def test_window_without_points_rejected(self, tmp_path, capsys, change, count):
        # an empty window once exited 0 with an all-zero assembled_samples.csv
        problem = {**self.PROBLEM, **change}
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(problem))
        out_dir = tmp_path / "run"
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: the window inner_cut {float(problem.get('inner_cut', 0))!r} "
            f"< |x| <= outer_radius {float(problem['outer_radius'])!r} holds none of the "
            f"{count} points of lambda and mu\n")
        assert not out_dir.exists()

    # the problem README.md shows
    README_PROBLEM = {"lambda": [-2.0, -1.0, 1.0, 2.0], "mu": [-1.5, 1.5],
                      "alpha": {"1.0": [1.0, 0.0]}, "weight_a": 0.5, "weight_b": 0.5,
                      "outer_radius": 2.5}

    @pytest.mark.parametrize("key, value, shown", [
        ("lambda", float("inf"), "inf"), ("mu", float("nan"), "nan"),
        ("mu", float("-inf"), "-inf")])
    def test_non_finite_point_rejected(self, tmp_path, capsys, key, value, shown):
        # JSON Infinity in lambda once warned, then exited 1 on a window cut
        # that dropped 4 of the 6 data points
        problem = {**self.README_PROBLEM, key: self.README_PROBLEM[key] + [value]}
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(problem))
        assert "Infinity" in cfg.read_text() or "NaN" in cfg.read_text()
        out_dir = tmp_path / "run"
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {key} must hold only finite doubles, got {shown}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, name", [("lambda", "time"), ("mu", "frequency")])
    def test_point_zero_exit_one(self, tmp_path, capsys, key, name):
        # exited 2 with the generator's internal "zeros must be strictly
        # increasing and positive"
        problem = {**self.README_PROBLEM, key: sorted(self.README_PROBLEM[key] + [0.0])}
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps(problem))
        out_dir = tmp_path / "run"
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"check failed: the {name} set holds the point 0, where the even vanishing "
            "generators cannot vanish\n")
        assert not out_dir.exists()

    def test_problem_not_an_object_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "problem.json"
        cfg.write_text("3")
        assert run(["interp", "--problem", str(cfg), "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: the problem file must be a JSON object, not int\n")

    CUT_MESSAGE = ("check failed: the window cut at |x| = 1.75 drops 4 of the {} data points, "
                   "which the interpolant would not meet\n")

    @pytest.mark.parametrize("weight, code", [pytest.param(1e-100, 1, id="1e-100"),
                                              pytest.param(1e-300, 2, id="1e-300")])
    def test_tiny_weight_prints_only_the_check(self, tmp_path, weight, code):
        # the quadrature spans sqrt(38/(w pi)): at 1e-100 a chunk of the
        # generator's product overflowed in numpy's reduce, and numpy's
        # warnings reached stderr; at 1e-300 z^4 itself overflowed, and that
        # window reaches past the models' point range, which interp rejects
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({**self.README_PROBLEM, "weight_a": weight}))
        proc = run_warnings_as_errors(["interp", "--problem", str(cfg),
                                       "--out-dir", str(tmp_path / "run")])
        assert proc.returncode == code
        assert proc.stderr == (self.CUT_MESSAGE.format(6) if code == 1 else (
            "configuration error: weight_a 1e-300 widens the quadrature window to "
            "|x| <= 3.477898169151024e+150, past 1e+75\n"))

    @pytest.mark.parametrize("x, code", [(21.0, 1), (22.0, 2)])
    def test_weight_past_the_double_range_named(self, tmp_path, x, code):
        # at |x| = 22, weight_a pi x^2 = 760 > 709.8: the weights overflowed,
        # their NaN columns warned twice more, and under -W error the run
        # ended in a traceback; at 21 it runs cleanly
        lam = [-x, -2.0, -1.0, 1.0, 2.0, x]
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({**self.README_PROBLEM, "lambda": lam, "outer_radius": 25.0}))
        proc = run_warnings_as_errors(["interp", "--problem", str(cfg),
                                       "--out-dir", str(tmp_path / "run")])
        assert proc.returncode == code
        assert proc.stderr == (self.CUT_MESSAGE.format(8) if code == 1 else (
            "configuration error: lambda point -22.0 has the weight exp(weight_a pi x^2) = "
            "exp(760.3) at weight_a 0.5, past the double range\n"))

    PAST_RANGE = float(np.nextafter(1e75, np.inf))

    @pytest.mark.parametrize("change, code, message", [
        ({"outer_radius": 1e75}, 1, CUT_MESSAGE.format(6)),
        ({"outer_radius": PAST_RANGE}, 2,
         f"configuration error: outer_radius {PAST_RANGE!r} widens the quadrature window to "
         f"|x| <= {PAST_RANGE!r}, past 1e+75\n"),
        # the window's half-width sqrt(2.5^2 + 38/(w pi)) reaches 1e75 at w = 1.2096e-149
        ({"weight_b": 1.21e-149}, 1, CUT_MESSAGE.format(6)),
        ({"weight_b": 1.2e-149}, 2,
         "configuration error: weight_b 1.2e-149 widens the quadrature window to "
         "|x| <= 1.0039827220867252e+75, past 1e+75\n"),
        ({"mu": [-1.5, 1.5, 1e75]}, 0, ""),
        ({"mu": [-1.5, 1.5, 1e100]}, 1,
         "check failed: the frequency set holds the point 1e+100, past the range |x| <= 1e+75 "
         "of the models\n"),
    ], ids=["radius-at-range", "radius-past-range", "weight-at-range", "weight-past-range",
            "point-at-range", "point-past-range"])
    def test_window_and_points_in_the_point_range(self, tmp_path, capsys, change, code,
                                                  message):
        # a lambda or mu point past the range once gave the generator NaN factors
        cfg = tmp_path / "problem.json"
        cfg.write_text(json.dumps({**self.README_PROBLEM, **change}))
        out_dir = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["interp", "--problem", str(cfg), "--out-dir", str(out_dir)]) == code
        assert capsys.readouterr().err == message
        assert out_dir.exists() == (code == 0)


class TestAcceptanceCommand:
    def test_fast_subset(self, tmp_path, capsys):
        out = tmp_path / "acc.csv"
        assert run(["acceptance", "--only", "AC-1,AC-2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed and "AC-1" in printed
        rows = out.read_text().splitlines()
        assert rows[1] == "criterion,passed,seconds,detail"
        assert len(rows) == 4

    def test_unknown_criterion(self):
        assert run(["acceptance", "--only", "AC-99"]) == 2


class TestUsageErrors:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_bad_range(self, capsys):
        assert run(["thresholds", "--a-grid", "nonsense"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: range 'nonsense' is not start:stop:step\n")
        assert run(["thresholds", "--a-grid", "0.1:0.5:0"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: range '0.1:0.5:0' needs a positive step\n")
        assert run(["thresholds", "--a-grid", "0:inf:0.1"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: range '0:inf:0.1' needs finite values\n")
        # reversed ranges and a grid with no rate in (0, 1) once wrote header-only
        # files; the range is checked before the (here missing) model file is read
        for spec, argv in (("0.5:0.4:0.1", ["thresholds", "--a-grid", "0.5:0.4:0.1"]),
                           ("4:-4:0.05", ["ft", "--model", "absent.json", "--xi=4:-4:0.05"]),
                           ("1:0:0.1", ["indicator", "--model", "absent.json", "--theta=1:0:0.1"])):
            assert run(argv) == 2
            assert capsys.readouterr().err == (
                f"configuration error: range {spec!r} needs stop >= start\n")
        assert run(["thresholds", "--a-grid", "2:3:0.5"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: range '2:3:0.5' holds no decay rate in (0, 1)\n")

    @pytest.mark.parametrize("argv, count", [
        (["gen-seq", "--count", "-3"], -3),
        (["construct", "time", "--A", "0.5", "--count", "-4"], -4)])
    def test_negative_count(self, tmp_path, capsys, argv, count):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        # construct names its flag, and rejects 0 as well (below)
        message = (f"--count must be >= 1, got {count}" if argv[0] == "construct"
                   else f"count must be >= 0, got {count}")
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["time", "freq-matched", "non-weak"])
    def test_construct_zero_count_rejected(self, tmp_path, capsys, kind):
        # --count 0 once wrote a pair with empty sampling sets (half_density
        # 0.0 whatever --D asked), which verify then passed with nothing checked
        out = tmp_path / "pair.json"
        assert run(["construct", kind, "--A", "0.5", "--count", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "configuration error: --count must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--lam", "--mu"])
    def test_construct_empty_set_file_rejected(self, tmp_path, capsys, flag):
        empty = tmp_path / "empty.csv"
        empty.write_text("# no points\n")
        out = tmp_path / "pair.json"
        assert run(["construct", "non-weak", "--A", "0.5", "--count", "16", flag, str(empty),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {flag} {empty} holds no points\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["time", "non-weak"])
    @pytest.mark.parametrize("points, shown", [("1.0\ninf\n", "inf"), ("1.0\nnan\n2.0\n", "nan"),
                                               ("-inf\n1.0\n", "-inf")])
    def test_construct_non_finite_point_rejected(self, tmp_path, capsys, kind, points, shown):
        # inf once ended in "cannot convert float NaN to integer", nan in
        # "points must be strictly increasing"
        lam = tmp_path / "lam.csv"
        lam.write_text(points)
        out = tmp_path / "pair.json"
        assert run(["construct", kind, "--A", "0.5", "--lam", str(lam), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: points must be finite, got {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["time", "freq-matched", "non-weak"])
    @pytest.mark.parametrize("decay", ["0", "1", "1.5", "nan"])
    def test_construct_decay_outside_unit_interval(self, tmp_path, capsys, kind, decay):
        # the builder's threshold function is the one check of the rate
        out = tmp_path / "pair.json"
        assert run(["construct", kind, "--A", decay, "--count", "8", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: decay rate must lie in (0, 1), got {float(decay)}\n")
        assert not out.exists()

    def test_verify_pair_without_points_rejected(self, time_pair, tmp_path, capsys):
        payload = json.loads(time_pair.read_text())
        payload["provenance"]["lambda_points"] = []
        empty = tmp_path / "empty_pair.json"
        empty.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        assert run(["verify", "--pair", str(empty), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: the pair {empty} holds no sampling points to check\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["ft", "--xi=0:1:0.5", "--half-width", "nan"], "half_width must be positive and finite, got nan"),
        (["ft", "--xi=0:1:0.5", "--half-width", "inf"], "half_width must be positive and finite, got inf"),
        (["gen-seq", "--density", "nan"], "density must be positive and finite, got nan"),
        (["gen-seq", "--density", "inf"], "density must be positive and finite, got inf"),
        (["gen-seq", "--p", "nan"], "exponent p must be finite and >= 1, got nan"),
        (["gen-seq", "--p", "inf"], "exponent p must be finite and >= 1, got inf")])
    def test_non_finite_parameter_rejected(self, tmp_path, capsys, argv, message):
        # each of these once exited 0 with rows of nan, or exited 2 with a
        # message about the generated points instead of the parameter
        model = tmp_path / "model.json"
        model.write_text(json.dumps(ProductModel(gauss_rate=1.0).to_dict()))
        if argv[0] == "ft":
            argv = argv + ["--model", str(model)]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.fixture(scope="class")
    def time_pair(self, tmp_path_factory):
        pair_file = tmp_path_factory.mktemp("pair") / "pair.json"
        assert run(["construct", "time", "--A", "0.5", "--count", "64",
                    "--out", str(pair_file)]) == 0
        return pair_file

    def test_zero_grid_points(self, time_pair, capsys):
        assert run(["verify", "--pair", str(time_pair), "--grid-points", "0"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: --grid-points must be >= 2, got 0\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid-points", "1", "must be >= 2, got 1"),
        ("--grid-radius", "0", "must be > 0, got 0.0"),
        ("--grid-radius", "-3", "must be > 0, got -3.0"),
        ("--grid-radius", "inf", "must be finite, at most 1e+75, got inf"),
        ("--radius", "0", "must be > 0, got 0.0"),
        ("--radius", "-1", "must be > 0, got -1.0"),
        ("--radius", "nan", "must be > 0, got nan")])
    def test_degenerate_sampling_rejected(self, time_pair, tmp_path, capsys, flag, value,
                                          message):
        # each of these once exited 0 with passing verdicts from no points,
        # or from one grid point
        out = tmp_path / "report.json"
        assert run(["verify", "--pair", str(time_pair), flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {flag} {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("radius, code", [
        ("1e75", 0), (repr(float(np.nextafter(1e75, np.inf))), 2), ("1e160", 2)])
    def test_grid_radius_in_the_point_range(self, time_pair, tmp_path, capsys, radius, code):
        # --grid-radius 1e160 once exited 2 with "the tail's log-Gamma has no
        # finite value at z = -1e+160", naming no flag
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["verify", "--pair", str(time_pair), "--grid-radius", radius,
                        "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (f"configuration error: --grid-radius must be finite, at most 1e+75, "
                           f"got {float(radius)!r}\n")
            assert not out.exists()
        else:
            assert err == "" and out.exists()

    @pytest.fixture(scope="class")
    def small_range_pair(self, tmp_path_factory):
        # the odd part's quartic model vanishes at 0.001, so its range is
        # (1e304 * 0.001^4)^(1/4) = 1e73, inside the point range 1e75
        root = tmp_path_factory.mktemp("small_range")
        (root / "lam.csv").write_text("0.001\n1.0\n1.7\n2.2\n")
        assert run(["construct", "freq-matched", "--A", "0.5", "--lam", str(root / "lam.csv"),
                    "--out", str(root / "pair.json")]) == 0
        psi = json.loads((root / "pair.json").read_text())["psi"]["model"]
        (root / "psi.json").write_text(json.dumps(psi))
        return root

    @pytest.mark.parametrize("radius, code", [("1e75", 2), ("1e74", 2), ("1e73", 1)])
    def test_grid_radius_in_the_models_range(self, small_range_pair, tmp_path, capsys,
                                             radius, code):
        # past 1e73 the flag once passed its 1e75 cap and the model's own
        # check rejected the point -1e+75, naming no flag
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["verify", "--pair", str(small_range_pair / "pair.json"),
                        "--grid-radius", radius, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == (f"configuration error: --grid-radius must be finite, at most 1e+73, "
                           f"got {float(radius)!r}\n")
            assert not out.exists()
        else:
            # the grid is evaluated; the time verdicts fail on it
            assert err == "" and out.exists()

    @pytest.mark.parametrize("half_width, code", [("1e74", 2), ("1e73", 0)])
    def test_ft_half_width_in_the_models_range(self, small_range_pair, tmp_path, capsys,
                                               half_width, code):
        out = tmp_path / "ft.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["ft", "--model", str(small_range_pair / "psi.json"), "--xi=0:1:0.5",
                        "--half-width", half_width, "--nodes", "64", "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("configuration error: --half-width must be at most 1e+73, "
                           f"got {float(half_width)!r}\n")
            assert not out.exists()
        else:
            assert err == "" and out.exists()

    @pytest.mark.parametrize("flag", ["--tol-discrete", "--tol-weak"])
    @pytest.mark.parametrize("value, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
    def test_tolerance_out_of_range_rejected(self, time_pair, tmp_path, capsys, flag, value,
                                             shown):
        # each once became verdicts: -1 and nan failed checks this pair meets
        # by default (exit 1 for --tol-discrete), and inf passed them vacuously
        out = tmp_path / "report.json"
        message = f"configuration error: {flag} must be >= 0 and finite, got {shown}\n"
        assert run(["verify", "--pair", str(time_pair), f"{flag}={value}",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()
        # the tolerance is checked before the pair file is read
        assert run(["verify", "--pair", str(tmp_path / "missing.json"), f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("flag", ["--tol-discrete", "--tol-weak"])
    def test_zero_tolerance_accepted(self, time_pair, tmp_path, flag):
        out = tmp_path / "report.json"
        assert run(["verify", "--pair", str(time_pair), flag, "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["verdicts"]["discrete_pair"]

    def test_radius_inside_the_first_point_rejected(self, time_pair, tmp_path, capsys):
        # a positive radius below the pair's smallest |point| leaves nothing
        # to check; the pass it gave was vacuous
        points = np.abs(json.loads(time_pair.read_text())["provenance"]["lambda_points"])
        out = tmp_path / "report.json"
        assert run(["verify", "--pair", str(time_pair), "--radius", "0.5",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: --radius 0.5 keeps none of the pair's {points.size} "
            f"points; the nearest is at |x| = {float(points.min())!r}\n")
        assert not out.exists()
        assert points.min() > 0.5
        assert run(["verify", "--pair", str(time_pair), "--radius", repr(float(points.min())),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["grids"]["lambda_count"] == 2


class TestExitCodes:
    @pytest.mark.parametrize("exc", [
        type("CustomCheckFailed", (CheckFailedError,), {})("custom"),
        con.DensityTooHighError("density"), con.ParameterInfeasibleError("headroom"),
        itp.NoFeasibleWindowError([(0.0, 0.7, 0.6)]), itp.SolverFailedError("solver"),
        con.DegeneratePhaseError("phase"), pv.PreconditionError("squared samples")])
    def test_check_failed_exits_one(self, monkeypatch, capsys, exc):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_thresholds", fail)
        assert run(["thresholds", "--a-grid", "0.1:0.2:0.1"]) == 1
        assert capsys.readouterr().err == f"check failed: {exc}\n"

    def test_plain_value_error_exits_two(self, monkeypatch, capsys):
        def fail(args):
            raise ValueError("bad value")

        monkeypatch.setattr(cli, "cmd_thresholds", fail)
        assert run(["thresholds", "--a-grid", "0.1:0.2:0.1"]) == 2
        assert capsys.readouterr().err == "configuration error: bad value\n"

    def test_input_too_large_to_allocate_exits_two(self, monkeypatch, capsys):
        # --a-grid 0:1:1e-13 asks numpy for 1e13 points; numpy raises a
        # MemoryError subclass before allocating anything
        def too_large(spec):
            assert spec == "0:1:1e-13"
            raise MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000001,)")

        monkeypatch.setattr(cli, "_parse_range", too_large)
        assert run(["thresholds", "--a-grid", "0:1:1e-13"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: Unable to allocate 72.8 TiB for an array with shape "
            "(10000000000001,)\n")

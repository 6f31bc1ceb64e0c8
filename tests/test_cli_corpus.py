import io

import cli_corpus


def _write(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def test_compare_reports_bytes_ulps_and_text(tmp_path):
    a = _write(tmp_path / "a", {"same.txt": "exit 0\n",
                                "r.json": '{"gap": [1.0, 2.5], "note": "at x 3"}\n',
                                "t.csv": "# h\nx,re\n0,1.5\n1,2.0\n",
                                "only_a.txt": ""})
    b = _write(tmp_path / "b", {"same.txt": "exit 0\n",
                                "r.json": '{"gap": [1.0000000000000002, 2.5], "note": "at y 3"}\n',
                                "t.csv": "# h\nx,re\n0,1.5\n1,2.0000000000000004\n"})
    out = io.StringIO()
    assert not cli_corpus.compare(a, b, out)
    assert out.getvalue().splitlines() == [
        f"only in {a}  only_a.txt",
        "differs    r.json",
        "    gap: 1 ulps, relative 2.22e-16",
        "    note: text differs",
        "identical  same.txt",
        "differs    t.csv",
        "    re: 1 ulps, relative 2.22e-16"]
    assert cli_corpus.compare(a, a, io.StringIO())


def test_number_moves():
    assert cli_corpus.number_move("0.0", "-0.0") == (0.0, 0.0)
    # across zero: twice the doubles between 0 and 1e-300
    assert cli_corpus.number_move("-1e-300", "1e-300")[0] == float(2 * cli_corpus._ordered(1e-300))
    assert cli_corpus.number_move("nan", "nan") == (0.0, 0.0)
    assert cli_corpus.number_move("inf", "1.0") == (float("inf"), float("inf"))


def test_byte_list_runs_each_pair_cell_twice():
    labels = [label for label, _ in cli_corpus.commands()]
    for kind, a, d, seed in cli_corpus.PAIR_CELLS:
        assert f"construct-{kind}-{a}-{d}-{seed}" in labels
        assert f"verify-{kind}-{a}-{d}-{seed}" in labels
    assert len(labels) == len(set(labels))

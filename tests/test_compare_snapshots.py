import importlib.util
import json
import os

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "compare_snapshots", os.path.join(REPO_ROOT, "tools", "compare_snapshots.py"))
compare_snapshots = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_snapshots)


def _tree(root, report: dict, norms: list) -> str:
    os.makedirs(os.path.join(root, "run"))
    with open(os.path.join(root, "run", "report.json"), "w") as fh:
        json.dump(report, fh)
    with open(os.path.join(root, "run", "series.csv"), "w") as fh:
        fh.write("k,norm\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(norms)))
    with open(os.path.join(root, "exit_codes.txt"), "w") as fh:
        fh.write("run 0\n")
    return str(root)


def test_moved_floats_pass_and_show_their_size(tmp_path, capsys):
    # sigma2 moves by one unit in the last place, a norm at the floor by 1e-17
    old = _tree(tmp_path / "old", {"sigma2": 1.0, "verdict": "pass"}, [1.0, 3e-17])
    new = _tree(tmp_path / "new", {"sigma2": 1.0 + 2**-52, "verdict": "pass"},
                [1.0, 4e-17])
    assert compare_snapshots.main(["compare", old, new]) == 0
    out = capsys.readouterr().out
    assert "run/report.json: max rel 2.22e-16" in out
    assert "run/series.csv: max rel 0.00e+00 (|x| > 1e-15), max abs 1.00e-17" in out


def test_changed_verdict_fails(tmp_path, capsys):
    old = _tree(tmp_path / "old", {"sigma2": 2.5, "verdict": "pass"}, [1.0])
    new = _tree(tmp_path / "new", {"sigma2": 2.5, "verdict": "fail"}, [1.0])
    assert compare_snapshots.main(["compare", old, new]) == 1
    assert "run/report.json: CHANGED /verdict: 'pass' -> 'fail'" in capsys.readouterr().out


def test_changed_keys_are_listed_and_shared_values_still_compared(tmp_path, capsys):
    # a key is swapped for another; the shared keys' values are compared
    # all the same, so a moved float and a changed verdict after it both show
    old = _tree(tmp_path / "old", {"holds": True, "sigma2": 1.0, "verdict": "pass"}, [1.0])
    new = _tree(tmp_path / "new", {"check": {"ok": True}, "sigma2": 1.0 + 2**-52,
                                   "verdict": "fail"}, [1.0])
    assert compare_snapshots.main(["compare", old, new]) == 1
    out = capsys.readouterr().out
    assert "run/report.json: CHANGED /: keys added ['check'], removed ['holds']" in out
    assert "run/report.json: CHANGED /verdict: 'pass' -> 'fail'" in out
    assert "run/report.json: max rel 2.22e-16" in out


def test_largest_change_names_its_key_path_and_csv_cell(tmp_path, capsys):
    # the second report's statistic moves most in the JSON file, and row 2's
    # norm (the header is row 0) most in the CSV file; smaller moves elsewhere
    # must not take the location
    report = {"reports": [{"check": {"statistic": 1.0, "margin": 2.0}},
                          {"check": {"statistic": 3.0, "margin": 4.0}}]}
    moved = {"reports": [{"check": {"statistic": 1.0, "margin": 2.0 + 2**-51}},
                         {"check": {"statistic": 3.0 + 2**-48, "margin": 4.0}}]}
    old = _tree(tmp_path / "old", report, [1.0, 2.0, 4e-17])
    new = _tree(tmp_path / "new", moved, [1.0 + 2**-52, 2.0 + 2**-48, 5e-17])
    assert compare_snapshots.main(["compare", old, new]) == 0
    out = capsys.readouterr().out
    assert ("run/report.json: max rel 1.18e-15 at /reports[1]/check/statistic "
            "(|x| > 1e-15), max abs 0.00e+00 (|x| <= 1e-15)") in out
    assert ("run/series.csv: max rel 1.78e-15 at [2][1] (|x| > 1e-15), "
            "max abs 1.00e-17 at [3][1] (|x| <= 1e-15)") in out

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from qlab import cli, experiments
from qlab.cli import list_experiments, main

from conftest import MODELS_DIR, REPO_ROOT, SUITES_DIR


def _model(name: str) -> str:
    return os.path.join(MODELS_DIR, name)


def test_registry_names_and_size():
    names = [name for name, _ in list_experiments()]
    assert "quenched-clt" in names
    assert "markov-check" in names
    assert len(names) >= 10


_MARKOV_ONLY = ["doob", "markov-check", "hopf", "weak-l2"]


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "quenched-clt" in out and "markov-check" in out
    # the registry marks exactly the markov-only experiments
    marked = [line.split(":")[0] for line in out.splitlines() if line.endswith(" (markov)")]
    assert marked == _MARKOV_ONLY


def test_malformed_model_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["sigma2", "--model", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "not valid JSON" in capsys.readouterr().err


def test_malformed_model_json_counts_crlf_as_one_character(tmp_path, capsys):
    # the position is that of a text-mode read, which turns "\r\n" into "\n"
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"type": "linear",\r\n "coeffs": [1.0,\r\n ]}\r\n')
    assert main(["sigma2", "--model", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.endswith(
        "is not valid JSON: Expecting value: line 3 column 2 (char 37)\n")


def test_missing_model_file(tmp_path, capsys):
    code = main(["sigma2", "--model", str(tmp_path / "nope.json"), "--seed", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "cannot read model file" in capsys.readouterr().err


def test_invalid_model_contents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "markov", "P": [[1.0, 0.0], [0.0, 1.0]],
                               "g": [1.0, -1.0]}))
    code = main(["sigma2", "--model", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "failed validation" in capsys.readouterr().err


def test_unknown_experiment(capsys):
    code = main(["frobnicate", "--model", _model("linear_identity.json"),
                 "--seed", "1"])
    assert code == 3
    assert "unknown experiment" in capsys.readouterr().err


def test_seed_is_mandatory(capsys):
    code = main(["sigma2", "--model", _model("linear_identity.json")])
    assert code == 3
    assert "seed" in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path, capsys):
    code = main(["sigma2", "--model", _model("linear_identity.json"),
                 "--seed", "-4", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "nonnegative" in capsys.readouterr().err


def test_summability_refusal_is_invalid_input(tmp_path, capsys):
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps({
        "type": "linear", "coeffs": [1.0 / (j + 1) for j in range(301)],
        "tail_bound": 0.1,
        "innovation": {"kind": "gaussian", "variance": 1.0}}))
    code = main(["sigma2", "--model", str(slow), "--seed", "2",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "refused" in capsys.readouterr().err


def test_markov_only_command_on_linear_model(tmp_path, capsys):
    # one case per experiment that the registry marks markov-only
    for name in _MARKOV_ONLY:
        out = tmp_path / name
        code = main([name, "--model", _model("linear_rho05.json"), "--seed", "1",
                     "--out", str(out)])
        assert code == 3, name
        assert capsys.readouterr().err == f"qlab: experiment {name!r} requires a markov model\n"
        assert not out.exists(), name


def test_identity_strest_run(tmp_path):
    out = tmp_path / "run"
    code = main(["strest", "--model", _model("linear_identity.json"),
                 "--seed", "9", "--n", "64", "--reps", "40", "--fixtures", "2",
                 "--Ns", "16,64", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "pass"
    for rep in report["reports"]:
        assert rep["estimates"] == [0.0, 0.0]
    assert report["config_digest"]
    assert report["seed"] == 9


def test_statistical_failure_exits_two(tmp_path):
    # far from the limit (n = 16) the supremum law is visibly non-Brownian
    code = main(["quenched-wip", "--model", _model("markov_2state.json"),
                 "--functional", "supremum", "--n", "16", "--reps", "2000",
                 "--fixtures", "2", "--seed", "5", "--out", str(tmp_path / "o")])
    assert code == 2


def test_sampling_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "clt"
    code = main(["quenched-clt", "--model", _model("linear_rho05.json"),
                 "--seed", "3", "--n", "128", "--reps", "300", "--fixtures", "2",
                 "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    sample = (out / "sample.csv").read_text().splitlines()
    assert sample[0] == "replication,value"
    assert len(sample) == 301
    cdf = (out / "cdf.csv").read_text().splitlines()
    assert cdf[0] == "x,ecdf,ref_cdf"
    report = json.loads((out / "report.json").read_text())
    assert report["reports"][0]["seed_path"] == [3, 1, 0]


def test_mw_series_writes_the_bias_that_decided_it(tmp_path):
    # a linear model's mw terms carry the bias tail_bound * sigma_eps / sqrt(k)
    out = tmp_path / "mw"
    assert main(["mw", "--model", _model("linear_rho05.json"), "--seed", "1",
                 "--K", "50", "--out", str(out)]) == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "k,norm,bias" and len(lines) == 51
    sigma_eps = math.sqrt(_RHO05["innovation"]["variance"])
    for line in lines[1:]:
        k, _, bias = line.split(",")
        assert float(bias) == pytest.approx(_RHO05["tail_bound"] * sigma_eps / math.sqrt(int(k)),
                                            rel=1e-12, abs=0)


def test_series_commands_write_csv(tmp_path):
    out = tmp_path / "hannan"
    code = main(["hannan", "--model", _model("linear_rho05.json"), "--seed", "1",
                 "--K", "50", "--out", str(out)])
    assert code == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "k,norm,bias"
    assert len(lines) == 52
    report = json.loads((out / "report.json").read_text())
    assert report["reports"][0]["verdict"] == "summable"


@pytest.fixture
def parses(monkeypatch):
    """The paths whose bytes ``cli`` parses into a model during the test,
    which starts from an empty model cache."""
    monkeypatch.setattr(cli, "_MODELS", {})
    parsed = []
    parse_model = cli._parse_model

    def spy(data, path):
        parsed.append(path)
        return parse_model(data, path)

    monkeypatch.setattr(cli, "_parse_model", spy)
    return parsed


_FLIP = {"type": "markov", "P": [[0.7, 0.3], [0.3, 0.7]], "g": [1.0, -1.0]}


def test_same_bytes_give_one_model_parsed_once(tmp_path, parses):
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for path in paths:
        with open(path, "w") as fh:
            json.dump(_FLIP, fh)
    model = cli.load_model(paths[0])
    assert cli.load_model(paths[1]) is model
    assert cli.load_model(paths[0]) is model
    assert parses == paths[:1]


def _model_digest_of_run(path: str, out) -> str:
    config = cli.RunConfig(experiment="sigma2", model_path=path, seed=1, out=str(out))
    assert cli.run(config) == 0
    return json.loads((out / "report.json").read_text())["model_digest"]


def check_rewritten_model_is_read_anew(tmp_path):
    """A model file rewritten in place, to the same size and with its mtime
    restored, runs as the new model."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_FLIP))
    before = _model_digest_of_run(str(path), tmp_path / "before")
    stat = os.stat(path)
    path.write_text(json.dumps({**_FLIP, "P": [[0.6, 0.4], [0.4, 0.6]]}))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
    assert _model_digest_of_run(str(path), tmp_path / "after") != before


def test_rewritten_model_is_read_anew(tmp_path):
    check_rewritten_model_is_read_anew(tmp_path)


def check_models_report_their_own_digests(tmp_path):
    """Two model files run in one process each report the digest of their
    own description, computed afresh."""
    for name in ("markov_2state.json", "linear_identity.json"):
        cold = experiments.digest_of(cli.load_model(_model(name)).describe())
        assert _model_digest_of_run(_model(name), tmp_path / name) == cold


def test_models_report_their_own_digests(tmp_path):
    check_models_report_their_own_digests(tmp_path)


def test_refused_model_is_refused_until_fixed(tmp_path, parses):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**_FLIP, "P": [[1.0, 0.0], [0.0, 1.0]]}))
    for _ in range(2):
        with pytest.raises(cli.CLIError, match="must be irreducible"):
            cli.load_model(str(path))
    path.write_text(json.dumps(_FLIP))
    assert cli.load_model(str(path)).n_states == 2
    assert len(parses) == 3


def test_shared_model_arrays_are_read_only():
    chain = cli.load_model(_model("markov_3state.json"))
    linear = cli.load_model(_model("linear_rho05.json"))
    for values in (chain.transition, chain.observable, chain.stationary,
                   chain._thresholds, chain._guide, linear.coeffs):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = values[0]
        with pytest.raises(ValueError, match="read-only"):
            values *= 2


@pytest.mark.parametrize("model, named", [
    ({"type": "linear", "coeffs": [1.0, 0.5], "innovaton": {"kind": "rademacher"},
      "tail_bnd": 0.1}, "unknown keys ['innovaton', 'tail_bnd']"),
    ({"type": "linear", "coeffs": [1.0], "innovation": {"kind": "rademacher",
                                                        "varaince": 2.0}},
     "unknown innovation keys ['varaince']"),
    ({**_FLIP, "coeffs": [1.0]}, "unknown keys ['coeffs']"),
], ids=["linear", "innovation", "markov"])
def test_unknown_model_key_is_named(model, named, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["sigma2", "--model", str(path), "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        f"qlab: model file {str(path)!r} failed validation: {named}\n")
    assert not (tmp_path / "o").exists()


def test_run_all_rejects_bad_suite(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": []}))
    assert main(["run-all", "--suite", str(suite), "--out", str(tmp_path / "o")]) == 3
    suite.write_text(json.dumps({"runs": [{"experiment": "sigma2",
                                           "model": "x.json"}]}))
    assert main(["run-all", "--suite", str(suite), "--out", str(tmp_path / "o")]) == 3
    assert "suite run 'run-000': invalid config: seed is required" in capsys.readouterr().err


def test_run_all_smoke_suite(tmp_path):
    out = tmp_path / "smoke"
    code = main(["run-all", "--suite", os.path.join(SUITES_DIR, "smoke.json"),
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit"] == 0
    assert len(summary["runs"]) == 7


def test_run_all_acceptance_suite_under_ten_minutes(tmp_path, parses):
    start = time.perf_counter()
    code = main(["run-all", "--suite", os.path.join(SUITES_DIR, "acceptance.json"),
                 "--out", str(tmp_path / "acc")])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 600.0
    # its 21 entries name 4 model files, and each is parsed once
    assert len(json.loads((tmp_path / "acc" / "summary.json").read_text())["runs"]) == 21
    assert sorted(map(os.path.basename, parses)) == [
        "linear_identity.json", "linear_rho05.json", "markov_2state.json",
        "markov_3state.json"]


_RUN = {"experiment": "sigma2", "model": _model("linear_identity.json")}
_MISSING = _model("missing.json")
with open(_model("linear_rho05.json")) as _fh:
    _RHO05 = json.load(_fh)


def _resolve(args, tmp_path) -> list:
    """``args`` with each model file name replaced by its path, and bytes or
    any other non-string argument written to a file, as they are or as JSON,
    and replaced by the file's path."""
    def resolve(arg):
        if isinstance(arg, bytes):
            raw = tmp_path / "raw.json"
            raw.write_bytes(arg)
            return str(raw)
        if not isinstance(arg, str):
            suite = tmp_path / "suite.json"
            suite.write_text(json.dumps(arg))
            return str(suite)
        return _model(arg) if arg.endswith(".json") else arg

    return [resolve(a) for a in args]


@pytest.mark.parametrize("args", [
    ["run-all", "--suite", {"seed": 1, "runs": [{**_RUN, "bogus": 1}]}],
    ["drift", "--model", "linear_identity.json", "--Ns", "1,x"],
    ["project-norms", "--model", "linear_identity.json", "--K", "-3"],
    ["strest", "--model", "linear_identity.json", "--r", "-1", "--Ns", "16,64",
     "--reps", "40", "--fixtures", "1"],
    ["quenched-clt", "--model", "linear_identity.json", "--reps", "5",
     "--n", "16", "--fixtures", "1"],
    ["quenched-clt", "--model", "linear_identity.json", "--alpha", "2",
     "--n", "16", "--reps", "20", "--fixtures", "1"],
    ["sigma2", "--model", "linear_identity.json", "--n", "abc"],
    ["sigma2", "--model", "linear_identity.json", "--alpha", "x"],
    ["quenched-wip", "--model", "linear_identity.json", "--functional", "bogus"],
    ["sigma2", "--model", "linear_identity.json", "--bogus", "1"],
    ["quenched-wip", "--model", "linear_identity.json", "--functional", "supremum",
     "--d-threshold", "-1"],
    ["run-all", "--suite", {"seed": "42", "runs": [_RUN]}],
    ["run-all", "--suite", {"seed": 1, "runs": [{**_RUN, "n": "16"}]}],
    ["run-all", "--suite", {"seed": 1, "runs": [{**_RUN, "Ns": 5}]}],
    ["run-all", "--suite", {"seed": 1, "runs": [{**_RUN, "r": 2.5}]}],
    ["run-all", "--suite", [_RUN]],
    ["run-all", "--suite", {"seed": 1, "runs": ["sigma2"]}],
    ["sigma2", "--model", b"[1, 2]"],
    ["sigma2", "--model", b'"markov"'],
    ["sigma2", "--model", b'{"type": "linear", "coeffs": [1.0], "name": "caf\xe9"}'],
    ["run-all", "--suite", b'{"seed": 1, "runs": [], "name": "caf\xe9"}'],
    ["sigma2", "--model", b'{"type": "markov", "P": [[0.7, 0.3], [0.3, 0.7]], '
                          b'"g": [NaN, -1.0]}'],
    ["sigma2", "--model", b'{"type": "markov", "P": [[NaN, 0.3], [0.3, 0.7]], '
                          b'"g": [1.0, -1.0]}'],
    ["quenched-clt", "--model", "linear_rho05.json", "--functional", "supremum",
     "--n", "16", "--reps", "20", "--fixtures", "1"],
    ["sigma2", "--model", json.dumps({**_RHO05, "tail_bound": math.inf}).encode()],
    ["sigma2", "--model", b'{"type": "linear", "coeffs": [1.0, true]}'],
    ["sigma2", "--model", b'{"type": "linear", "coeffs": ["1", 0.5]}'],
    ["sigma2", "--model", b'{"type": "markov", "P": [["0.7", 0.3], [0.3, 0.7]], '
                          b'"g": [1.0, -1.0]}'],
    ["sigma2", "--model", b'{"type": "markov", "P": [[0.7, 0.3], [0.3, 0.7]], '
                          b'"g": [true, -1]}'],
    ["sigma2", "--model", b'{"type": "linear", "coeffs": [1.0], "tail_bound": "0"}'],
    ["sigma2", "--model", b'{"type": "linear", "coeffs": [1.0], '
                          b'"innovation": {"kind": "gaussian", "variance": true}}'],
    ["sigma2", "--model", b'{"type": "linear", "coeffs": [1.0, 0.5], '
                          b'"innovaton": {"kind": "rademacher"}, "tail_bnd": 0.1}'],
    ["sigma2", "--model", b'{"type": "linear", "coeffs": [1.0], '
                          b'"innovation": {"kind": "rademacher", "varaince": 2.0}}'],
    ["sigma2", "--model", b'{"type": "markov", "P": [[0.7, 0.3], [0.3, 0.7]], '
                          b'"g": [1.0, -1.0], "coeffs": [1.0]}'],
    ["sigma2", "--model", b'{"type": "linear", "coeffs": [1.0], "innovation": "gaussian"}'],
    ["sigma2", "--model", b'{"type": ["linear"], "coeffs": [1.0]}'],
    ["drift", "--model", "markov_2state.json", "--fixtures", "2", "--Ns", "256,1024"],
    ["drift", "--model", "markov_2state.json", "--fixtures", "2", "--Ns", "256"],
    ["strest", "--model", "linear_rho05.json", "--fixtures", "1", "--reps", "200",
     "--Ns", "256,256,1024"],
    ["drift", "--model", "markov_2state.json", "--fixtures", "2", "--Ns", "256,256,4096"],
    ["strest", "--model", "linear_rho05.json", "--Ns", "256", "--reps", "200",
     "--fixtures", "1"],
    ["mw", "--model", "markov_3state.json", "--K", "0"],
], ids=["unknown-suite-key", "bad-Ns", "negative-K", "negative-r", "tiny-reps",
        "alpha-above-one", "n-not-int", "alpha-not-float", "unknown-functional",
        "unknown-flag", "negative-d-threshold", "suite-seed-string",
        "suite-n-string", "suite-Ns-scalar", "suite-r-fraction", "suite-top-level-list",
        "suite-run-not-object", "model-json-list", "model-json-string",
        "model-not-utf8", "suite-not-utf8", "model-g-nan", "model-P-nan",
        "clt-non-endpoint-functional", "model-tail-inf", "model-coeff-bool",
        "model-coeff-string", "model-P-string", "model-g-bool", "model-tail-string",
        "model-variance-bool", "model-unknown-keys", "model-unknown-innovation-key",
        "markov-model-unknown-key", "model-innovation-not-object", "model-type-list",
        "drift-Ns-4-fold", "drift-single-N",
        "strest-Ns-repeated", "drift-Ns-repeated", "strest-single-N", "mw-K-zero"])
def test_invalid_input_exits_three_with_one_line(args, tmp_path, capsys):
    # in-process: an exception that main lets through fails the test
    code = main([*_resolve(args, tmp_path), "--seed", "1", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qlab: "), err


@pytest.mark.parametrize("model", [
    {"type": "linear", "coeffs": [1e300]},
    {"type": "linear", "coeffs": [1e200, 1e200]},
    {"type": "linear", "coeffs": [1e154],
     "innovation": {"kind": "gaussian", "variance": 1e10}},
], ids=["square-overflows", "sum-overflows", "variance-overflows"])
@pytest.mark.parametrize("experiment", ["quenched-clt", "sigma2", "mw"])
def test_overflowing_linear_model_refused_at_load(model, experiment, tmp_path, capsys):
    # sigma2 = (sum a_j)^2 v or the projection norms would overflow in the
    # run, so the model is refused at load, with one line
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code = main([experiment, "--model", str(path), "--n", "16", "--reps", "20",
                 "--fixtures", "1", "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == (
        f"qlab: model file {str(path)!r} failed validation: "
        "sum a_j^2 * variance and (sum a_j)^2 * variance must be finite\n")
    assert not (tmp_path / "o").exists()


def check_infinite_report_refused(tmp_path, capsys):
    """A report that would hold an infinity exits 3 with one line, and no
    report.json is written: here the identity check's allowance
    n * tail_bound * sigma overflows."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "linear", "coeffs": [1.0], "tail_bound": 1e308}))
    out = tmp_path / "o"
    code = main(["identity", "--model", str(path), "--n", "64", "--fixtures", "1",
                 "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("qlab: refused to write report.json: ") and err.count("\n") == 1
    assert not (out / "report.json").exists()


def test_infinite_report_refused(tmp_path, capsys):
    check_infinite_report_refused(tmp_path, capsys)


def test_module_entry_point_refuses_with_one_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "qlab.cli", "mw", "--model",
                           _model("markov_3state.json"), "--K", "0", "--seed", "1",
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "qlab: experiment refused: K must be >= 1\n"


# each refusal names the flag or suite key that was set, and a refusal
# inside run-all names its run
@pytest.mark.parametrize("args, line", [
    (["run-all", "--suite", {"seed": 1, "runs": [{**_RUN, "name": "first"},
                                                 {**_RUN, "name": "second", "n": "16"}]}],
     "suite run 'second': invalid config: n must be of type int, got '16'"),
    (["run-all", "--suite", {"seed": 1, "runs": [
        {"name": "mw-K-zero", "experiment": "mw", "model": _model("markov_3state.json"),
         "K": 0}]}],
     "suite run 'mw-K-zero': experiment refused: K must be >= 1"),
    (["mw", "--model", "markov_3state.json", "--K", "0"],
     "experiment refused: K must be >= 1"),
    (["doob", "--model", "markov_2state.json", "--n", "0", "--reps", "8",
      "--fixtures", "1"], "experiment refused: need n >= 1 and reps >= 2"),
    (["sigma2", "--model", "linear_rho05.json", "--seed", "-4"],
     "experiment refused: seed must be a nonnegative integer"),
    (["quenched-clt", "--model", "linear_rho05.json", "--n", "16", "--reps", "5",
      "--fixtures", "1"], "experiment refused: one-sample KS requires reps >= 10"),
    (["doob", "--model", "linear_rho05.json", "--n", "8", "--reps", "8", "--fixtures", "1"],
     "experiment 'doob' requires a markov model"),
    (["run-all", "--suite", {"seed": 1, "runs": [{"experiment": "sigma2", "model": 5}]}],
     "suite run 'run-000': invalid config: model must be of type str, got 5"),
    (["run-all", "--suite", {"seed": 1, "runs": [{"experiment": "sigma2"}]}],
     "suite run 'run-000': invalid config: missing --model (a suite entry's \"model\")"),
    # the model a run names is read and checked before the first run too
    (["run-all", "--suite", {"seed": 1, "runs": [
        {**_RUN, "name": "first"}, {**_RUN, "name": "second", "model": _MISSING}]}],
     f"suite run 'second': cannot read model file {_MISSING!r}: [Errno 2] No such file "
     f"or directory: {_MISSING!r}"),
    (["run-all", "--suite", {"seed": 1, "runs": [
        {**_RUN, "name": "first"},
        {"name": "second", "experiment": "hopf", "model": _model("linear_rho05.json")}]}],
     "suite run 'second': experiment 'hopf' requires a markov model"),
    # a run's name is its directory under --out: one a run would overwrite,
    # or that would leave --out, is refused
    (["run-all", "--suite", {"seed": 1, "runs": [{**_RUN, "name": "a"},
                                                 {**_RUN, "name": "a"}]}],
     "suite run 'a': name is already used by an earlier run"),
    (["run-all", "--suite", {"seed": 1, "runs": [{**_RUN, "name": "../escaped"}]}],
     "suite run '../escaped': name must be one plain path component other than "
     "'summary.json'"),
    (["run-all", "--suite", {"seed": 1, "runs": [{**_RUN, "name": "summary.json"}]}],
     "suite run 'summary.json': name must be one plain path component other than "
     "'summary.json'"),
], ids=["suite-second-run-n-string", "suite-mw-K-zero", "mw-K-zero", "doob-n-zero",
        "negative-seed", "clt-tiny-reps", "doob-linear-model", "suite-model-int",
        "suite-model-missing", "suite-second-model-file-missing",
        "suite-second-hopf-on-linear", "suite-name-repeated", "suite-name-leaves-out",
        "suite-name-summary"])
def test_refusal_names_the_run_and_the_flag(args, line, tmp_path, capsys):
    code = main(["--seed", "1", *_resolve(args, tmp_path), "--out", str(tmp_path / "o")])
    assert code == 3
    # a suite is checked whole before its first run: a refusal leaves no run
    # line and no --out tree
    assert capsys.readouterr() == ("", f"qlab: {line}\n")
    assert not (tmp_path / "o").exists()


def test_summary_that_cannot_be_written_exits_three_with_one_line(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"seed": 1, "runs": [{**_RUN, "name": "a"}]}))
    (tmp_path / "o" / "summary.json").mkdir(parents=True)
    assert main(["run-all", "--suite", str(suite), "--out", str(tmp_path / "o")]) == 3
    out, err = capsys.readouterr()
    assert out == "a: pass\n"
    assert err.startswith("qlab: cannot write the suite summary under ")
    assert len(err.splitlines()) == 1


_TOP = {"config", "config_digest", "model_digest", "reports", "seed", "seed_path",
        "verdict"}
_CONFIG = {"K", "Ns", "alpha", "d_threshold", "experiment", "fixtures", "functional",
           "model", "n", "r", "reps", "seed"}
_VERDICT = {"rule", "statistic", "threshold", "margin", "ok"}
_FIXTURE_REPORT = {"details", "estimate", "experiment", "fixture_digest", "model_digest",
                   "n", "p_value", "reps", "seed_path", "statistic", "std_error",
                   "test_statistic", "verdict", "check"}


def _verdicts(node) -> list:
    """Every Verdict in a parsed report: the value of each ``check`` key and
    each entry of each ``checks`` list, at any depth."""
    if isinstance(node, list):
        return [v for entry in node for v in _verdicts(entry)]
    if not isinstance(node, dict):
        return []
    found = [node["check"]] if "check" in node else []
    found += node.get("checks", [])
    return found + [v for key, value in node.items() if key not in ("check", "checks")
                    for v in _verdicts(value)]


# one run of each of the 13 experiments: its top-level keys, the keys of its
# first report and how many Verdicts the report holds
@pytest.mark.parametrize("args, top, first, count", [
    (["doob", "--model", "markov_2state.json", "--n", "8", "--reps", "8",
      "--fixtures", "1"], _TOP,
     {"check", "fixture", "lhs", "relative_se", "rhs"}, 1),
    (["hannan", "--model", "markov_2state.json", "--K", "64"], _TOP,
     {"check", "fitted_tail", "partial_sum", "tail_fit", "verdict"}, 1),
    (["hopf", "--model", "markov_2state.json"], _TOP | {"truncation"},
     {"check", "function"}, 21),
    (["markov-check", "--model", "markov_2state.json"], _TOP,
     {"cesaro_error_at_1000", "checks"}, 2),
    (["strest", "--model", "linear_identity.json", "--reps", "8", "--fixtures", "1",
      "--Ns", "4,8"], _TOP,
     {"Ns", "check", "estimates", "experiment", "fixture_digest", "model_digest", "r",
      "reps", "seed_path", "std_errors"}, 1),
    # a sampling run is decided by one more Verdict: its fraction of failed fixtures
    (["quenched-clt", "--model", "linear_rho05.json", "--n", "16", "--reps", "20",
      "--fixtures", "1"], _TOP | {"check"}, _FIXTURE_REPORT, 2),
    (["identity", "--model", "markov_2state.json", "--n", "8", "--fixtures", "1"], _TOP,
     {"allowance", "check", "fixture", "reps", "residual"}, 1),
    (["sigma2", "--model", "linear_rho05.json"], _TOP, {"sigma2", "verdict"}, 0),
    (["quenched-wip", "--model", "markov_2state.json", "--functional", "supremum",
      "--n", "16", "--reps", "2000", "--fixtures", "2"], _TOP | {"check"},
     _FIXTURE_REPORT, 3),
    (["drift", "--model", "markov_2state.json", "--fixtures", "2", "--Ns", "16,256"],
     _TOP, {"Ns", "checks", "ratios", "verdicts"}, 2),
    (["project-norms", "--model", "markov_2state.json", "--K", "8"], _TOP,
     {"K", "partial_sum", "verdict"}, 0),
    (["mw", "--model", "markov_3state.json", "--K", "8"], _TOP,
     {"check", "partial_sum", "verdict"}, 1),
    (["weak-l2", "--model", "markov_2state.json"], _TOP, {"verdict", "weak_l2_tail"}, 0),
], ids=["doob", "hannan", "hopf", "markov-check", "strest", "quenched-clt", "identity",
        "sigma2", "quenched-wip", "drift", "project-norms", "mw", "weak-l2"])
def test_report_schema(args, top, first, count, tmp_path):
    out = tmp_path / "o"
    args = [_model(a) if a.endswith(".json") else a for a in args]
    code = main([*args, "--seed", "1", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert set(report) == top
    assert set(report["config"]) == _CONFIG
    assert set(report["reports"][0]) == first
    verdicts = _verdicts(report)
    assert len(verdicts) == count
    assert all(set(v) == _VERDICT for v in verdicts)
    # the top-level Verdict of a sampling run decides it; elsewhere every one does
    deciding = [report["check"]] if "check" in report else verdicts
    assert code == (0 if all(v["ok"] for v in deciding) else 2)
    assert report["verdict"] == ("pass" if code == 0 else "fail")


# one small run of each experiment, and a value out of range in a field that
# experiment does not read: the value changes neither the exit code nor a refusal
@pytest.mark.parametrize("args, ignored", [
    (["quenched-clt", "--model", "linear_rho05.json", "--n", "16", "--reps", "20",
      "--fixtures", "1"], ["--K", "-1", "--d-threshold", "2"]),
    (["quenched-wip", "--model", "markov_2state.json", "--functional", "supremum",
      "--n", "16", "--reps", "20", "--fixtures", "1"], ["--Ns", "256,256", "--alpha", "2"]),
    (["strest", "--model", "linear_identity.json", "--reps", "8", "--fixtures", "1",
      "--Ns", "4,8"], ["--n", "0"]),
    (["drift", "--model", "markov_2state.json", "--fixtures", "2", "--Ns", "16,256"],
     ["--alpha", "2"]),
    (["doob", "--model", "markov_2state.json", "--n", "8", "--reps", "8",
      "--fixtures", "1"], ["--K", "-1"]),
    (["identity", "--model", "markov_2state.json", "--n", "8", "--fixtures", "1"],
     ["--reps", "0"]),
    (["project-norms", "--model", "markov_2state.json", "--K", "8"], ["--n", "0"]),
    (["hannan", "--model", "markov_2state.json", "--K", "64"], ["--reps", "0"]),
    (["mw", "--model", "markov_3state.json", "--K", "8"], ["--d-threshold", "2"]),
    (["sigma2", "--model", "linear_rho05.json"], ["--Ns", "256,256"]),
    (["markov-check", "--model", "markov_2state.json"], ["--r", "-1"]),
    (["hopf", "--model", "markov_2state.json"], ["--n", "0"]),
    (["weak-l2", "--model", "markov_2state.json"], ["--alpha", "0"]),
], ids=["quenched-clt", "quenched-wip", "strest", "drift", "doob", "identity",
        "project-norms", "hannan", "mw", "sigma2", "markov-check", "hopf", "weak-l2"])
def test_a_field_the_experiment_does_not_read_is_never_refused(args, ignored, tmp_path):
    args = [_model(a) if a.endswith(".json") else a for a in args]
    codes = [main([*args, *extra, "--seed", "1", "--out", str(tmp_path / str(i))])
             for i, extra in enumerate([[], ignored])]
    assert codes[0] == codes[1] != 3


def test_r_inf_reads_the_same_from_a_flag_and_a_suite_entry(tmp_path):
    run = {"experiment": "strest", "model": _model("linear_identity.json"), "reps": 8,
           "fixtures": 1, "Ns": [4, 8]}
    args = ["strest", "--model", run["model"], "--reps", "8", "--fixtures", "1",
            "--Ns", "4,8", "--seed", "1"]
    assert main([*args, "--out", str(tmp_path / "default")]) == 0
    assert main([*args, "--r", "inf", "--out", str(tmp_path / "flag")]) == 0
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"seed": 1, "runs": [{**run, "name": "entry", "r": "inf"}]}))
    assert main(["run-all", "--suite", str(suite), "--out", str(tmp_path)]) == 0
    reports = [json.loads((tmp_path / name / "report.json").read_text())
               for name in ("default", "flag", "entry")]
    assert reports[0]["config"] == reports[1]["config"] == reports[2]["config"]
    assert {report["reports"][0]["r"] for report in reports} == {"inf"}


def test_doob_iid_chain_holds(tmp_path):
    # on the i.i.d. chain S_k is a simple random walk: E max_{k<=N} S_k^2
    # exceeds N, and its root at N = 256 is about 21.2, under 2 sqrt(256)
    model = tmp_path / "iid.json"
    model.write_text(json.dumps({"type": "markov", "P": [[0.5, 0.5], [0.5, 0.5]],
                                 "g": [1.0, -1.0]}))
    out = tmp_path / "o"
    assert main(["doob", "--model", str(model), "--n", "256", "--reps", "20000",
                 "--seed", "42", "--out", str(out)]) == 0
    reports = json.loads((out / "report.json").read_text())["reports"]
    assert {r["rhs"] for r in reports} == {32.0}
    assert all(16.0 < r["lhs"] < 32.0 for r in reports)


def test_diverging_series_verdict_fails(tmp_path):
    # harmonic coefficients a_k = 1 / (k + 1): the projection norms are not
    # summable, and a diverging verdict exits 2
    model = tmp_path / "harmonic.json"
    model.write_text(json.dumps({"type": "linear", "tail_bound": 0.005,
                                 "coeffs": [1.0 / (k + 1) for k in range(200)]}))
    out = tmp_path / "o"
    assert main(["hannan", "--model", str(model), "--K", "1000", "--seed", "1",
                 "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["reports"][0]["verdict"] == "diverging"
    assert report["verdict"] == "fail"


def test_degenerate_quenched_run(tmp_path):
    # f = eps_0 - eps_{-1} is a coboundary, so sigma^2 = 0 and the limit law
    # is the point mass at 0
    model = tmp_path / "coboundary.json"
    model.write_text(json.dumps({"type": "linear", "coeffs": [1.0, -1.0]}))
    out = tmp_path / "o"
    code = main(["quenched-clt", "--model", str(model), "--n", "64", "--reps", "200",
                 "--fixtures", "2", "--seed", "4", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [(r["verdict"], r["p_value"]) for r in report["reports"]] == [
        ("degenerate", None)] * 2
    rows = [[float(v) for v in line.split(",")]
            for line in (out / "cdf.csv").read_text().splitlines()[1:]]
    assert len(rows) == 200
    assert all(ref == (1.0 if x >= 0 else 0.0) for x, _, ref in rows)
    assert {ref for _, _, ref in rows} == {0.0, 1.0}


@pytest.mark.parametrize("name", ["markov_dense64.json", "markov_lazy_cycle64.json"])
def test_markov_check_runs_on_64_state_chains_in_small_memory(name, tmp_path):
    # markov-check decides on its two operator checks alone and enumerates no
    # paths; its tracemalloc peak measured 1.65 MiB on the dense chain and
    # 1.51 MiB on the lazy cycle, and 4 MiB is about 2.4 times the larger
    model = os.path.join(REPO_ROOT, "bench", "models", name)
    tracemalloc.start()
    try:
        code = main(["markov-check", "--model", model, "--seed", "42",
                     "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20

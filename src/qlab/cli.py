"""Batch experiment runner.

``qlab <experiment> --model m.json --seed 42 [flags] --out dir/`` runs one
experiment and writes ``report.json`` plus CSV dumps; ``qlab run-all
--suite suite.json --out dir/`` runs a whole suite.  Exit codes: 0 all
verdicts pass, 2 statistical failure, 3 invalid input.  Outputs carry the
config digest and seed and are byte-identical for identical (config,
seed), whatever the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .experiments import (decomposition_identity_check, digest_of,
                          doob_bound_check, quenched_wip_experiment,
                          strest_experiment, uncentered_drift_check,
                          worker_pool)
from .markov_ops import (MaximalFunction, cesaro_average, duality_check, hopf_check,
                         maximal_function, verify_dunford_schwartz, weak_l2_tail)
from .models import (LinearModel, MarkovFunctionalModel, sample_fixture)
from .paths import FUNCTIONAL_KINDS, PathFunctional
from .projections import hannan_sum, mw_criterion, projection_norms, sigma_squared
from .stats import Verdict
from .streams import InnovationDistribution, RandomStream

FAIL_FRACTION = 0.1     # of a sampling run's fixtures
# the Python types each RunConfig annotation accepts; bool is never a number
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "list": (list,)}


class CLIError(Exception):
    """An invalid input or a refused experiment; ``main`` exits 3."""


@dataclass
class RunConfig:
    experiment: str
    model_path: str
    seed: int
    n: int = 4096
    reps: int = 5000
    fixtures: int = 10
    functional: str = "endpoint"
    Ns: list = field(default_factory=lambda: [256, 1024, 4096])
    r: float = math.inf
    K: int = 64
    alpha: float = 0.01
    d_threshold: float = 0.03
    workers: int = 1
    out: str = "out"
    name: str = ""

    def __post_init__(self):
        """Refuse what only the CLI can check; the library refuses the rest."""
        if self.r == "inf":
            self.r = math.inf
        if self.seed is None:
            raise CLIError("invalid config: seed is required (no clock default)")
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) not in _FIELD_TYPES[f.type]:
                # model_path is set by --model, or a suite entry's "model"
                raise CLIError(f"invalid config: {f.name.removesuffix('_path')} must be "
                               f"of type {f.type}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise CLIError(f"unknown experiment name: {self.experiment!r}")
        if not self.model_path:
            raise CLIError("invalid config: missing --model (a suite entry's \"model\")")
        if min(self.fixtures, self.workers) < 1:
            raise CLIError("invalid config: fixtures and workers must be >= 1")
        if any(type(v) is not int for v in self.Ns):
            raise CLIError("invalid config: Ns must be integers")
        if self.r != math.inf and type(self.r) is not int:
            raise CLIError("invalid config: r must be an integer or 'inf'")

    def describe(self) -> dict:
        """The fields that decide the results, by name; the model by file name."""
        described = {f.name: getattr(self, f.name) for f in fields(self)
                     if f.name not in ("model_path", "workers", "out", "name")}
        return {**described, "model": os.path.basename(self.model_path),
                "r": self.r if self.r != math.inf else "inf"}


_NOT_NUMBERS = {bool, str}     # JSON values that NumPy would read as numbers
_MODEL_KEYS = {"linear": {"type", "coeffs", "innovation", "tail_bound"},
               "markov": {"type", "P", "g"}}
_INNOVATION_KEYS = {"kind", "variance"}
# every validated model of the process, by the bytes of its file; a refusal
# is never kept, so a file is refused until its bytes change
_MODELS = {}


def _numbers(value):
    """``value`` itself, once it is checked a row at a time: a bool or a
    string in it, or in a list in it, is refused, not read as a number.
    Deeper lists fit no field's shape, and the model refuses them."""
    rows = value if isinstance(value, list) and list in set(map(type, value)) else [value]
    for row in rows:
        entries = row if isinstance(row, list) else [row]
        if not _NOT_NUMBERS.isdisjoint(map(type, entries)):
            bad = next(entry for entry in entries if type(entry) in _NOT_NUMBERS)
            raise TypeError(f"expected a JSON number, got {bad!r}")
    return value


def _known_keys(raw: dict, known: set, what: str):
    """Refuse, by name, a key of ``raw`` outside ``known``."""
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown {what}keys {unknown}")


def _read(path: str, what: str) -> bytes:
    """The bytes of a model or suite file; ``what`` names which."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CLIError(f"cannot read {what} file {path!r}: {exc}") from exc


def _parse_json(data: bytes, path: str, what: str):
    """The parsed contents of a file's bytes, decoded as a text-mode read
    decodes them: strict UTF-8, with universal newlines."""
    try:
        return json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CLIError(f"{what} file {path!r} is not valid JSON: {exc}") from exc


def _parse_model(data: bytes, path: str):
    """Parse and validate the bytes of a model definition file."""
    raw = _parse_json(data, path, "model")
    if not isinstance(raw, dict):
        raise CLIError(f"model file {path!r} is not a JSON object: {type(raw).__name__}")
    kind = raw.get("type")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise CLIError(f"model file {path!r}: unknown type {kind!r}")
    try:
        _known_keys(raw, _MODEL_KEYS[kind], "")
        if kind == "linear":
            innovation = raw.get("innovation", {"kind": "gaussian", "variance": 1.0})
            if not isinstance(innovation, dict):
                raise TypeError(f"innovation must be a JSON object, got {innovation!r}")
            _known_keys(innovation, _INNOVATION_KEYS, "innovation ")
            return LinearModel(
                coeffs=np.asarray(_numbers(raw["coeffs"]), dtype=float),
                innovation=InnovationDistribution(
                    innovation["kind"], _numbers(innovation.get("variance", 1.0))),
                tail_bound=float(_numbers(raw.get("tail_bound", 0.0))))
        return MarkovFunctionalModel(np.asarray(_numbers(raw["P"]), dtype=float),
                                     np.asarray(_numbers(raw["g"]), dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(f"model file {path!r} failed validation: {exc}") from exc


def load_model(path: str):
    """The model a definition file holds.  Every call reads the file; each
    distinct content is parsed and validated once per process, and its model,
    whose arrays are read-only and which keeps its digest, is shared by every
    file that holds those bytes."""
    data = _read(path, "model")
    if data not in _MODELS:
        _MODELS[data] = _parse_model(data, path)
    return _MODELS[data]


# --- output helpers -------------------------------------------------------

def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: str, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _series_file(first: int, norms, bias) -> list:
    return [("series.csv", "k,norm,bias",
             ((k, float(a), float(b)) for k, (a, b) in enumerate(zip(norms, bias), first)))]


# --- experiment runners ---------------------------------------------------
# each returns the report's payload, the Verdicts that decide the run and
# the CSV files to write, as (file name, header, rows)

def _sampled_fixtures(model, base, count) -> list:
    """(fixture, run stream) pairs: fixture i is drawn from the child (0, i)
    of ``base`` and run from its child (1, i)."""
    return [(sample_fixture(model, base.child(0, i)), base.child(1, i)) for i in range(count)]


def _run_wip(config: RunConfig, model, base):
    fixtures, streams = zip(*_sampled_fixtures(model, base, config.fixtures))
    first_sample = {}
    reports = quenched_wip_experiment(model, fixtures, PathFunctional(config.functional),
                                      config.n, config.reps, streams, alpha=config.alpha,
                                      d_threshold=config.d_threshold, sample_sink=first_sample)
    failed = sum(not report.check.ok for report in reports) / len(reports)
    check = Verdict.at_most(f"failed fraction <= {FAIL_FRACTION}", failed, FAIL_FRACTION)
    payload = {"reports": [{**asdict(report), "experiment": config.experiment}
                           for report in reports], "check": asdict(check)}
    values = first_sample["values"]
    xs = np.sort(values)
    ecdf = np.arange(1, xs.size + 1) / xs.size
    ref = np.asarray(first_sample["ref_cdf"](xs), dtype=float)
    return payload, [check], [
        ("sample.csv", "replication,value", ((i, float(v)) for i, v in enumerate(values))),
        ("cdf.csv", "x,ecdf,ref_cdf",
         ((float(x), float(e), float(r)) for x, e, r in zip(xs, ecdf, ref)))]


def _run_clt(config: RunConfig, model, base):
    if config.functional != "endpoint":
        raise CLIError("invalid config: quenched-clt tests the endpoint only; "
                       f"use quenched-wip for functional {config.functional!r}")
    return _run_wip(config, model, base)


def _run_strest(config: RunConfig, model, base):
    reports = [strest_experiment(model, fixture, config.r, config.Ns, config.reps, stream)
               for fixture, stream in _sampled_fixtures(model, base, config.fixtures)]
    return ({"reports": [{**asdict(report), "experiment": config.experiment,
                          "r": config.describe()["r"]} for report in reports]},
            [report.check for report in reports], [])


def _run_drift(config: RunConfig, model, base):
    fixtures = [fixture for fixture, _ in _sampled_fixtures(model, base, config.fixtures)]
    report = uncentered_drift_check(model, fixtures, config.Ns)
    payload = {"Ns": report.Ns,
               "ratios": [[float(v) for v in row] for row in report.table],
               "verdicts": report.verdicts, "checks": [asdict(c) for c in report.checks]}
    return {"reports": [payload]}, report.checks, []


def _per_fixture(config: RunConfig, model, base, check, *args):
    fixtures = _sampled_fixtures(model, base, config.fixtures)
    reports = [check(model, fixture, *args, stream) for fixture, stream in fixtures]
    return ({"reports": [{"fixture": fixture.describe(), **asdict(report)}
                         for (fixture, _), report in zip(fixtures, reports)]},
            [report.check for report in reports], [])


def _run_doob(config: RunConfig, model, base):
    return _per_fixture(config, model, base, doob_bound_check, config.n, config.reps)


def _run_identity(config: RunConfig, model, base):
    return _per_fixture(config, model, base, decomposition_identity_check, config.n)


def _run_project_norms(config: RunConfig, model, base):
    series = projection_norms(model, config.K)
    block = {"partial_sum": float(series.norms.sum()), "K": config.K, "verdict": "computed"}
    return {"reports": [block]}, [], _series_file(0, series.norms, series.bias)


def _run_hannan(config: RunConfig, model, base):
    series = projection_norms(model, config.K)
    rep = hannan_sum(series)
    block = {"partial_sum": float(rep.partial_sums[-1]), "tail_fit": rep.tail_fit,
             "fitted_tail": rep.fitted_tail, "verdict": rep.verdict, "check": asdict(rep.check)}
    return {"reports": [block]}, [rep.check], _series_file(0, series.norms, series.bias)


def _run_mw(config: RunConfig, model, base):
    rep = mw_criterion(model, config.K)
    block = {"partial_sum": float(rep.partial_sums[-1]), "verdict": rep.verdict,
             "check": asdict(rep.check)}
    return {"reports": [block]}, [rep.check], _series_file(1, rep.terms, rep.bias)


def _run_sigma2(config: RunConfig, model, base):
    series = projection_norms(model, config.K)
    block = {"sigma2": sigma_squared(model), "verdict": "computed"}
    return {"reports": [block]}, [], _series_file(0, series.norms, series.bias)


def _run_markov_check(config: RunConfig, model, base):
    S = model.n_states
    rng = base.child(0)
    funcs = [rng.normal(S) for _ in range(100)]
    pairs = [(rng.normal(S), rng.normal(S)) for _ in range(50)]
    checks = [verify_dunford_schwartz(model, funcs), duality_check(model, pairs)]
    ces = cesaro_average(model, model.observable, 1000)
    payload = {"checks": [asdict(c) for c in checks],
               "cesaro_error_at_1000": float(np.max(np.abs(
                   ces - float(model.stationary @ model.observable))))}
    return {"reports": [payload]}, checks, []


def _run_hopf(config: RunConfig, model, base):
    N = 1000
    rng = base.child(0)
    # the functions are the columns of one stack, stepped through one pass
    H = np.column_stack([np.abs(model.observable),
                         *(rng.normal(model.n_states) for _ in range(20))])
    maxima = maximal_function(model, H, N).values
    checks = [hopf_check(model, MaximalFunction(values=maxima[:, j], base=H[:, j]))
              for j in range(H.shape[1])]
    reports = [{"function": idx, "check": asdict(c)} for idx, c in enumerate(checks)]
    return {"reports": reports, "truncation": N}, checks, []


def _run_weak_l2(config: RunConfig, model, base):
    value = weak_l2_tail(model.observable, model.stationary)
    return {"reports": [{"weak_l2_tail": value, "verdict": "computed"}]}, [], []


# name: (description, runner, whether it needs a markov model)
EXPERIMENTS = {
    "quenched-clt": ("KS of the centered endpoint law against its normal limit", _run_clt,
                     False),
    "quenched-wip": ("KS of a path functional against its Brownian limit", _run_wip, False),
    "strest": ("decay of the maximal squared martingale-approximation error", _run_strest,
               False),
    "drift": ("exact vanishing check of the conditional drift over sqrt(N)", _run_drift,
              False),
    "doob": ("Monte Carlo maximum of the centered sum vs its exact Doob bound", _run_doob,
             True),
    "identity": ("pathwise check of the centered-sum decomposition", _run_identity, False),
    "project-norms": ("closed-form projection norms as CSV", _run_project_norms, False),
    "hannan": ("projection-norm summability verdict", _run_hannan, False),
    "mw": ("summability of conditional norms over sqrt(n)", _run_mw, False),
    "sigma2": ("long-run variance from the martingale increment", _run_sigma2, False),
    "markov-check": ("operator contraction and duality", _run_markov_check, True),
    "hopf": ("maximal-function level inequality in exact arithmetic", _run_hopf, True),
    "weak-l2": ("weak-L2 tail functional of the observable", _run_weak_l2, True),
}


def list_experiments() -> list[tuple[str, str]]:
    return [(name, desc + " (markov)" * markov)
            for name, (desc, _, markov) in EXPERIMENTS.items()]


def _model_of(config: RunConfig):
    """The model ``config`` names, refused if its experiment needs a markov one."""
    model = load_model(config.model_path)
    if EXPERIMENTS[config.experiment][2] and not isinstance(model, MarkovFunctionalModel):
        raise CLIError(f"experiment {config.experiment!r} requires a markov model")
    return model


def run(config: RunConfig, base_path=()) -> int:
    """Execute one configured experiment, writing artifacts to config.out."""
    return _run_on(config, _model_of(config), base_path)


def _run_on(config: RunConfig, model, base_path) -> int:
    runner = EXPERIMENTS[config.experiment][1]
    try:
        base = RandomStream(config.seed, base_path)
        with worker_pool(config.workers):
            payload, checks, files = runner(config, model, base)
    except ValueError as exc:   # HannanDivergesError and every library refusal
        raise CLIError(f"experiment refused: {exc}") from exc
    passed = all(check.ok for check in checks)
    try:
        os.makedirs(config.out, exist_ok=True)
        document = {
            "config": config.describe(),
            "config_digest": digest_of(config.describe()),
            "seed": config.seed,
            "seed_path": [config.seed, *base_path],
            "model_digest": digest_of(model),
            "verdict": "pass" if passed else "fail",
            **payload,
        }
        _write_json(os.path.join(config.out, "report.json"), document)
        for name, header, rows in files:
            _write_csv(os.path.join(config.out, name), header, rows)
    except OSError as exc:
        raise CLIError(f"cannot write outputs under {config.out!r}: {exc}") from exc
    return 0 if passed else 2


# a suite entry's keys: RunConfig's fields, with ``model`` for model_path,
# except those run-all sets itself
_SUITE_KEYS = {f.name for f in fields(RunConfig)} - {"model_path", "out", "workers"} | {"model"}


def run_suite(suite_path: str, out_root: str, workers: int = 1) -> int:
    """Run every entry of a suite file; exit 0 only if every run passes."""
    suite = _parse_json(_read(suite_path, "suite"), suite_path, "suite")
    runs = suite.get("runs") if isinstance(suite, dict) else None
    if not isinstance(runs, list) or not runs:
        raise CLIError(f"suite file {suite_path!r} has no runs")
    base_dir = os.path.dirname(os.path.abspath(suite_path))
    # every entry, and the model it names, is checked before the first run
    checked = []
    for index, entry in enumerate(runs):
        if not isinstance(entry, dict):
            raise CLIError(f"suite run {index}: expected an object, got {entry!r}")
        settings = {"experiment": None, "model": "", "seed": suite.get("seed"),
                    "name": f"run-{index:03d}", **entry}
        try:
            unknown = sorted(set(settings) - _SUITE_KEYS)
            if unknown:
                raise CLIError(f"unknown keys {unknown}")
            config = RunConfig(model_path=settings.pop("model"), workers=workers, **settings)
            # each run writes to its own directory, named by the run, in --out
            if config.name in ("", ".", "..", "summary.json") or os.path.split(config.name)[0]:
                raise CLIError("name must be one plain path component other than 'summary.json'")
            if any(earlier.name == config.name for earlier, _ in checked):
                raise CLIError("name is already used by an earlier run")
            # the paths join once RunConfig has checked that they are strings
            config.model_path = os.path.join(base_dir, config.model_path)
            config.out = os.path.join(out_root, config.name)
            checked.append((config, _model_of(config)))
        except CLIError as exc:
            raise CLIError(f"suite run {settings['name']!r}: {exc}") from exc
    summary, worst = [], 0
    for index, (config, model) in enumerate(checked):
        try:
            code = _run_on(config, model, (index,))
        except CLIError as exc:
            raise CLIError(f"suite run {config.name!r}: {exc}") from exc
        summary.append({"name": config.name, "experiment": config.experiment, "exit": code})
        worst = max(worst, code)
        print(f"{config.name}: {'pass' if code == 0 else 'FAIL'}")
    try:
        os.makedirs(out_root, exist_ok=True)
        _write_json(os.path.join(out_root, "summary.json"),
                    {"runs": summary, "exit": worst})
    except OSError as exc:
        raise CLIError(f"cannot write the suite summary under {out_root!r}: {exc}") from exc
    return worst


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(f"invalid arguments: {message}")


def _int(text: str, expected: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None


def _int_list(text: str) -> list:
    return [_int(v, "comma-separated integers") for v in text.split(",") if v]


def _int_or_inf(text: str):
    return text if text == "inf" else _int(text, "an integer or 'inf'")


def _build_parser() -> argparse.ArgumentParser:
    # a flag left out stays out of the namespace, so RunConfig's default holds
    parser = _Parser(prog="qlab", argument_default=argparse.SUPPRESS,
                     description="stochastic-limit-theorem verification lab")
    parser.add_argument("experiment", help="experiment name, 'run-all' or 'list'")
    parser.add_argument("--model", dest="model_path", help="model definition JSON file")
    parser.add_argument("--seed", type=int, help="master seed (required)")
    parser.add_argument("--n", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--fixtures", type=int)
    parser.add_argument("--functional", choices=FUNCTIONAL_KINDS)
    parser.add_argument("--Ns", type=_int_list,
                        help="comma-separated horizons for strest/drift")
    parser.add_argument("--r", type=_int_or_inf,
                        help="martingale truncation order (integer or 'inf')")
    parser.add_argument("--K", type=int, help="projection horizon")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--d-threshold", type=float,
                        help="KS distance bound for the supremum verdict")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--suite", help="suite file for run-all")
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        if args["experiment"] == "list":
            for name, desc in list_experiments():
                print(f"{name}: {desc}")
            return 0
        if args["experiment"] == "run-all":
            if "suite" not in args:
                raise CLIError("run-all requires --suite")
            return run_suite(args["suite"], args.get("out", RunConfig.out),
                             workers=args.get("workers", RunConfig.workers))
        args.pop("suite", None)
        return run(RunConfig(**{"model_path": "", "seed": None, **args}))
    except CLIError as exc:
        print(f"qlab: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

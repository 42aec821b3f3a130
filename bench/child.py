"""One workload process of the benchmark: set up, run, check, report.

    python3 bench/child.py REQUEST.json

``run.py`` writes the request and starts this script in a fresh process
with ``src`` on PYTHONPATH.  The process imports qlab, loads and validates
every model file of the workload (set-up), then drives each entry of the
workload through ``qlab.cli.run(RunConfig(...))`` and writes a result file:
timings, resource use, per-operation outcomes, output digests and, when
traced, the span summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

from workloads import WORKLOADS, model_paths, operations


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _digest_tree(root: str) -> tuple[dict, int]:
    digests, size = {}, 0
    for folder, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            digests[os.path.relpath(path, root)] = hashlib.sha256(blob).hexdigest()
            size += len(blob)
    return digests, size


def _check_report(op: dict, report: dict, code: int) -> list:
    """Consistency of one written report with its exit code and config."""
    problems = []
    if report.get("verdict") != ("pass" if code == 0 else "fail"):
        problems.append(f"exit {code} but report verdict {report.get('verdict')!r}")
    if op["experiment"] not in ("quenched-clt", "quenched-wip"):
        return problems
    reports = report.get("reports", [])
    if len(reports) != op["fixtures"]:
        problems.append(f"{len(reports)} fixture reports for {op['fixtures']} fixtures")
    for rep in reports:
        if (rep["n"], rep["reps"]) != (op["n"], op["reps"]):
            problems.append(f"report scale {rep['n']}x{rep['reps']} differs from config")
        if rep["verdict"] not in ("pass", "fail", "degenerate"):
            problems.append(f"unknown verdict {rep['verdict']!r}")
        p = rep["p_value"]
        if p is not None and not 0.0 <= p <= 1.0:
            problems.append(f"p-value {p} outside [0, 1]")
        # the conditionally centered endpoint has mean exactly 0; a miss by
        # six standard errors has probability below 1e-8
        if (rep["statistic"] == "endpoint" and rep["verdict"] != "degenerate"
                and abs(rep["estimate"]) > 6.0 * rep["std_error"]):
            problems.append(f"endpoint mean {rep['estimate']:.4g} is not centered "
                            f"(standard error {rep['std_error']:.3g})")
    return problems


def _outcome(op: dict, out: str, raised) -> dict:
    """Tally one run into operations attempted, failed and checks broken."""
    attempted = operations(op)
    result = {"name": op["name"], "attempted": attempted, "failed": 0,
              "errors": 0, "refused": False, "hannan_refusal": False,
              "problems": []}
    if isinstance(raised, BaseException):
        from qlab.cli import CLIError
        from qlab.projections import HannanDivergesError
        result["failed"] = attempted
        if isinstance(raised, CLIError):
            result["refused"] = True
            result["hannan_refusal"] = isinstance(raised.__cause__, HannanDivergesError)
            result["message"] = str(raised)
        else:
            result["errors"] = attempted
            result["message"] = "".join(traceback.format_exception(raised))
        return result
    code = raised
    try:
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        result["problems"].append(f"unreadable report.json: {exc}")
        result["failed"] = result["errors"] = attempted
        return result
    result["problems"] = _check_report(op, report, code)
    if op["experiment"] in ("quenched-clt", "quenched-wip"):
        result["failed"] = sum(r["verdict"] == "fail" for r in report["reports"])
    else:
        result["failed"] = int(code != 0)
    return result


def main(argv) -> int:
    with open(argv[1]) as fh:
        request = json.load(fh)
    root = request["root"]
    import qlab.cli as cli
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    for path in model_paths(request["workload"]):
        cli.load_model(os.path.join(root, path))
    setup_done = time.monotonic()
    import numpy
    import scipy
    result = {"setup_done": setup_done, "python": sys.version.split()[0],
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if request["setup_only"]:
        _write(request["result_path"], result)
        return 0

    ops = WORKLOADS[request["workload"]]
    out_root = request["out_dir"]
    raised = []
    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    for index, op in enumerate(ops):
        params = {k: v for k, v in op.items() if k not in ("name", "model")}
        if request.get("workers"):
            params["workers"] = request["workers"]
        config = cli.RunConfig(model_path=os.path.join(root, op["model"]),
                               seed=request["seed"], name=op["name"],
                               out=os.path.join(out_root, op["name"]), **params)
        if tracer is not None:
            tracer.run_id = index
        try:
            raised.append(cli.run(config, base_path=(index,)))
        except Exception as exc:   # tallied as a failed operation
            raised.append(exc)
    wall = time.perf_counter() - t0
    cpu1, peak = _rusage()
    if tracer is not None:
        tracer.run_id = -1

    outcomes = [_outcome(op, os.path.join(out_root, op["name"]), r)
                for op, r in zip(ops, raised)]
    digests, out_bytes = _digest_tree(out_root)
    shutil.rmtree(out_root, ignore_errors=True)
    result.update({
        "wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak,
        "outcomes": outcomes, "digests": digests, "out_bytes": out_bytes,
    })
    if tracer is not None:
        result["trace"] = {"summary": tracer.summary(), "counters": tracer.counters}
        tracer.write(request["span_path"])
    _write(request["result_path"], result)
    return 0


def _write(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, allow_nan=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

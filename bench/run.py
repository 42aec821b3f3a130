"""The qlab benchmark.

    python3 bench/run.py --workload NAME [--seed 42] [--seconds 25] [--trace 0|1]

Run from the root of a checkout; workloads are listed in ``workloads.py``.
Each workload run is a fresh Python process (``child.py``) with ``src`` on
PYTHONPATH and BLAS threads pinned to 1.  It imports qlab, loads every model
file of the workload and then drives each entry through
``qlab.cli.run(RunConfig(...))``, the call ``qlab run-all`` makes per suite
entry.  The seed becomes the master seed of every run.

``--trace 0`` repeats the workload in fresh processes for ``--seconds``
(at least twice, never starting a repeat that would end after the budget)
and prints the end-to-end metrics, each the median over the repeats:

* ``setup_s``: process start until qlab is imported and the workload's model
  files are loaded and validated, over every process of the run, topped up
  with set-up-only processes to at least three;
* ``wall_s``: first ``cli.run`` call until the last verdict is written;
* ``cpu_s``: user plus system time of the process and its pool children
  over that same interval;
* ``peak_rss_mb``: the larger ``ru_maxrss`` of the process and its children.

It also prints ``fail_frac``, the failed share of operations.  An operation
is one fixture verdict of a sampling run and one run of an exact check; a
statistical fail, a refusal (``CLIError``, exit 3) and an exception all count.
Refusals and statistical fails are outcomes of the lab, not benchmark
errors: the result line's ``failed`` counts only operations that raised an
unexpected exception or left no readable report.

``--trace 1`` runs the workload traced twice and untraced once, and prints
the per-layer metrics (see ``tracer.py``): counts from the first traced run,
times as the mean of the two, and ``trace.overhead_s``, the traced minus the
untraced ``wall_s``.  Pool children are not traced.  ``*.self_s`` is span
time minus child-span time, summed over the process, set-up included (so
``models.load.self_s`` counts the set-up loads).  Less obvious ones:
``streams.uniform_open.*`` includes the calls made inside ``normal``;
``streams.draws_per_call`` is uniform plus integer draws per call;
``models.markov_transitions_per_s`` divides by the inclusive time of
``sample_quenched_paths`` on Markov models (step loop with its draws) and
``models.fir_outputs_per_s`` by its self time on linear models (the filter
without the innovation draws); ``paths.of_grid.values`` counts grid values
read; ``experiments.blocks`` counts tasks given to ``_map_ordered``;
``experiments.pool_s`` runs from pool start to shutdown; ``cli.out_bytes``
is the size of everything written under ``--out``.

Output checks, any of which makes the run fail with exit code 1:

* every repeat at one seed writes byte-identical ``report.json`` and CSVs,
  traced or not, with the same verdicts;
* each report agrees with its exit code and its configuration, and every
  centered endpoint mean lies within six standard errors of 0;
* ``chain-clt-par`` writes the same bytes at ``workers = 1`` (an extra,
  untimed process);
* traced runs: every count repeats exactly between the two traced runs, and
  the self times of the spans add up to the traced ``wall_s`` within 5%.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of the traced runs are
written to ``.bench_out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, model_paths

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_out")
RUN_LIMIT_S = 175.0        # the whole invocation must end within 180 s
MIN_REPEATS = 2            # byte-identity across repeats needs two
SETUP_SAMPLES = 3
SELF_TIME_TOLERANCE = 0.05
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# figures from ROADMAP's Baseline section, compared against the traced run
BASELINE_SAMPLER_SHARE = 0.90          # chain-clt: sample_quenched_paths / wall
BASELINE_NORMAL_S = 0.75               # linear CLT fixture, n=4096, M=5000
BASELINE_FIR_S = 0.58
BASELINE_TOLERANCE = 0.25

class BenchError(Exception):
    pass


class Runner:
    """Starts workload processes one at a time and stops them on exit."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.dir = os.path.join(WORK, f"{workload}-s{seed}-{os.getpid()}")
        self.count = 0
        self.proc = None
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        **{name: "1" for name in BLAS_THREAD_VARS})

    def spawn(self, trace=False, setup_only=False, workers=None) -> dict:
        self.count += 1
        tag = f"{self.count:03d}"
        os.makedirs(self.dir, exist_ok=True)
        request = {"root": ROOT, "workload": self.workload, "seed": self.seed,
                   "trace": trace, "setup_only": setup_only, "workers": workers,
                   "out_dir": os.path.join(self.dir, f"out-{tag}"),
                   "result_path": os.path.join(self.dir, f"result-{tag}.json"),
                   "span_path": os.path.join(WORK, "spans", f"{self.workload}-{tag}.csv")}
        if trace:
            os.makedirs(os.path.dirname(request["span_path"]), exist_ok=True)
        request_path = os.path.join(self.dir, f"request-{tag}.json")
        with open(request_path, "w") as fh:
            json.dump(request, fh)
        started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "child.py"), request_path],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            start_new_session=True)
        try:
            code = self.proc.wait(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload process exceeded the {RUN_LIMIT_S:.0f} s limit")
        finally:
            self.stop()
        if code != 0:
            raise BenchError(f"workload process exited with code {code}")
        with open(request["result_path"]) as fh:
            result = json.load(fh)
        result["setup_s"] = result["setup_done"] - started
        result["process_s"] = time.monotonic() - started
        return result

    def stop(self):
        """Kill the current process group, pool workers included, and wait."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc = None

    def cleanup(self):
        self.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


# --- checks ------------------------------------------------------------------

def _tally(result: dict) -> tuple:
    return tuple((o["name"], o["attempted"], o["failed"], o["refused"])
                 for o in result["outcomes"])


def check_repeats(results: list, label: str) -> list:
    """Outputs and verdicts of every repeat at one seed must be identical."""
    problems = []
    first = results[0]
    for k, other in enumerate(results[1:], start=2):
        if other["digests"] != first["digests"]:
            changed = sorted(name for name in set(first["digests"]) | set(other["digests"])
                             if first["digests"].get(name) != other["digests"].get(name))
            problems.append(f"{label} {k}: outputs differ from run 1: {changed[:5]}")
        if _tally(other) != _tally(first):
            problems.append(f"{label} {k}: verdicts differ from run 1")
    for k, result in enumerate(results, start=1):
        for outcome in result["outcomes"]:
            problems += [f"{label} {k}: {outcome['name']}: {p}"
                         for p in outcome["problems"]]
    return problems


def failure_counts(result: dict) -> tuple[int, int, int]:
    """(operations attempted, failed, errored) in one workload process."""
    outcomes = result["outcomes"]
    return (sum(o["attempted"] for o in outcomes), sum(o["failed"] for o in outcomes),
            sum(o["errors"] for o in outcomes))


# --- per-layer metrics -------------------------------------------------------

def _totals(summary: dict) -> dict:
    """Calls, inclusive and self seconds per span name over all runs; a
    labelled name ``x:kind`` also counts under ``x``."""
    totals = {}
    for names in summary["runs"].values():
        for name, entry in names.items():
            keys = [name, name.split(":")[0]] if ":" in name else [name]
            for key in keys:
                t = totals.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                for field in t:
                    t[field] += entry[field]
    return totals


def layer_metrics(result: dict) -> dict:
    """The per-layer metrics of one traced workload process."""
    totals = _totals(result["trace"]["summary"])
    counters = result["trace"]["counters"]

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    uniform_calls = get("streams.uniform_open", "calls")
    integer_calls = get("streams.integers", "calls")
    draws = (counters.get("streams.uniform_open.draws", 0)
             + counters.get("streams.integers.draws", 0))
    transitions = counters.get("models.markov_transitions", 0)
    fir = counters.get("models.fir_outputs", 0)
    pool_starts = counters.get("experiments.pool_starts", 0)
    return {
        "streams.uniform_open.calls": uniform_calls,
        "streams.uniform_open.draws": counters.get("streams.uniform_open.draws", 0),
        "streams.uniform_open.self_s": get("streams.uniform_open", "self_s"),
        "streams.normal.draws": counters.get("streams.normal.draws", 0),
        "streams.normal.self_s": get("streams.normal", "self_s"),
        "streams.integers.draws": counters.get("streams.integers.draws", 0),
        "streams.stream_inits": get("streams.stream_init", "calls"),
        "streams.draws_per_call": ratio(draws, uniform_calls + integer_calls),
        "models.sample_quenched_paths.calls": get("models.sample_quenched_paths", "calls"),
        "models.sample_quenched_paths.self_s": get("models.sample_quenched_paths", "self_s"),
        "models.markov_transitions": transitions,
        "models.markov_transitions_per_s": ratio(
            transitions, get("models.sample_quenched_paths:markov", "incl_s")),
        "models.fir_outputs": fir,
        "models.fir_outputs_per_s": ratio(
            fir, get("models.sample_quenched_paths:linear", "self_s")),
        "models.e0_increment_series.self_s": get("models.e0_increment_series", "self_s"),
        "models.load.self_s": get("models.load", "self_s"),
        "projections.sigma_squared.calls": get("projections.sigma_squared", "calls"),
        "projections.sigma_squared.self_s": get("projections.sigma_squared", "self_s"),
        "projections.projection_norms.self_s": get("projections.projection_norms", "self_s"),
        "projections.mw_criterion.self_s": get("projections.mw_criterion", "self_s"),
        "projections.refusals": sum(o["hannan_refusal"] for o in result["outcomes"]),
        "paths.of_grid.calls": get("paths.of_grid", "calls"),
        "paths.of_grid.values": counters.get("paths.of_grid.values", 0),
        "paths.of_grid.self_s": get("paths.of_grid", "self_s"),
        "markov_ops.poisson_solve.self_s": get("markov_ops.poisson_solve", "self_s"),
        "markov_ops.maximal_function.self_s": get("markov_ops.maximal_function", "self_s"),
        "markov_ops.hopf_check.self_s": get("markov_ops.hopf_check", "self_s"),
        "markov_ops.verify_markov_property.self_s": get(
            "markov_ops.verify_markov_property", "self_s"),
        "stats.empirical_sample.self_s": get("stats.empirical_sample", "self_s"),
        "stats.ks_one_sample.self_s": get("stats.ks_one_sample", "self_s"),
        "stats.ks_two_sample.self_s": get("stats.ks_two_sample", "self_s"),
        "experiments.sample_path_functional.self_s": get(
            "experiments.sample_path_functional", "self_s"),
        "experiments.brownian_reference.self_s": get("experiments.brownian_reference", "self_s"),
        "experiments.doob_bound_check.self_s": get("experiments.doob_bound_check", "self_s"),
        "experiments.uncentered_drift_check.self_s": get(
            "experiments.uncentered_drift_check", "self_s"),
        "experiments.blocks": counters.get("experiments.blocks", 0),
        "experiments.pool_starts": pool_starts,
        "experiments.pool_s": get("experiments.pool", "incl_s"),
        "experiments.pool_tasks_per_start": ratio(
            counters.get("experiments.pool_tasks", 0), pool_starts),
        "cli.run.calls": get("cli.run", "calls"),
        "cli.run.self_s": get("cli.run", "self_s"),
        "cli.out_bytes": result["out_bytes"],
    }


SPECIAL_UNITS = {"peak_rss_mb": "MB", "cli.out_bytes": "B",
                 "streams.draws_per_call": "draws/call",
                 "experiments.pool_tasks_per_start": "tasks/start"}


def unit_of(name: str) -> str:
    if name in SPECIAL_UNITS:
        return SPECIAL_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def exact_counts(result: dict) -> dict:
    """Everything a traced run counts: counters and calls per span name."""
    counts = dict(result["trace"]["counters"])
    for name, entry in _totals(result["trace"]["summary"]).items():
        counts[f"calls:{name}"] = entry["calls"]
    return counts


def check_traced(traced: list) -> list:
    problems = []
    first, second = exact_counts(traced[0]), exact_counts(traced[1])
    for name in sorted(set(first) | set(second)):
        if first.get(name) != second.get(name):
            problems.append(f"count {name} differs between traced runs: "
                            f"{first.get(name)} vs {second.get(name)}")
    for k, result in enumerate(traced, start=1):
        summary = result["trace"]["summary"]
        covered = sum(entry["self_s"] for run, names in summary["runs"].items()
                      if int(run) >= 0 for entry in names.values())
        gap = abs(covered - result["wall_s"]) / result["wall_s"]
        if gap > SELF_TIME_TOLERANCE:
            problems.append(f"traced run {k}: self times add up to {covered:.4f} s "
                            f"against wall_s {result['wall_s']:.4f} s")
        if summary["min_self_s"] < -1e-6:
            problems.append(f"traced run {k}: negative self time {summary['min_self_s']}")
    return problems


def baseline_findings(workload: str, traced: list) -> list:
    """Compare the traced run with ROADMAP's Baseline figures."""
    def within(value, base):
        return abs(value - base) <= BASELINE_TOLERANCE * base

    lines = []
    if workload == "chain-clt":
        shares = [_totals(r["trace"]["summary"])["models.sample_quenched_paths"]["incl_s"]
                  / r["wall_s"] for r in traced]
        share = statistics.mean(shares)
        verdict = "agrees" if within(share, BASELINE_SAMPLER_SHARE) else "DISAGREES"
        lines.append(f"baseline: chain-clt share of traced wall_s in "
                     f"models.sample_quenched_paths = {share:.1%} "
                     f"(ROADMAP ~{BASELINE_SAMPLER_SHARE:.0%}): {verdict}")
    elif workload == "linear-wip":
        normal = fir = 0.0
        for r in traced:    # run 0 is the linear_rho05 CLT run, one fixture
            run0 = r["trace"]["summary"]["runs"]["0"]
            normal += run0.get("streams.normal", {}).get("incl_s", 0.0) / len(traced)
            fir += run0.get("models.sample_quenched_paths:linear",
                            {}).get("self_s", 0.0) / len(traced)
        fixtures = WORKLOADS[workload][0]["fixtures"]
        for label, value, base in (("streams.normal", normal / fixtures, BASELINE_NORMAL_S),
                                   ("FIR (sample_quenched_paths self)", fir / fixtures,
                                    BASELINE_FIR_S)):
            verdict = "agrees" if within(value, base) else "DISAGREES"
            lines.append(f"baseline: linear-wip {label} per linear_rho05 CLT fixture "
                         f"= {value:.3f} s (ROADMAP {base:.2f} s): {verdict}")
    return lines


# --- modes -------------------------------------------------------------------

def timed(runner: Runner, seconds: float, log) -> tuple[dict, list, list]:
    # the workers=1 comparison is a workload process too, and sets up as well
    serial_check = runner.workload == "chain-clt-par"
    setups = [runner.spawn(setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - MIN_REPEATS - serial_check)]
    results = []
    start = time.monotonic()
    while True:
        result = runner.spawn()
        results.append(result)
        log(f"repeat {len(results)}: wall_s {result['wall_s']:.4f} s, cpu_s "
            f"{result['cpu_s']:.4f} s, setup_s {result['setup_s']:.4f} s, "
            f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
        elapsed = time.monotonic() - start
        if len(results) >= MIN_REPEATS and elapsed + result["process_s"] > seconds:
            break
    setups += [r["setup_s"] for r in results]
    problems = check_repeats(results, "repeat")
    if serial_check:
        serial = runner.spawn(workers=1)
        setups.append(serial["setup_s"])
        log(f"workers=1 comparison run: wall_s {serial['wall_s']:.4f} s")
        if serial["digests"] != results[0]["digests"]:
            problems.append("outputs at workers=1 differ from workers=2")
        if _tally(serial) != _tally(results[0]):
            problems.append("verdicts at workers=1 differ from workers=2")
        problems += check_repeats([serial], "workers=1 run")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    log(f"{len(results)} repeats, {len(setups)} set-ups")
    return metrics, problems, results


def traced_mode(runner: Runner, log) -> tuple[dict, list, list]:
    traced = [runner.spawn(trace=True)]
    untraced = runner.spawn()
    traced.append(runner.spawn(trace=True))
    for k, r in enumerate(traced, start=1):
        log(f"traced run {k}: wall_s {r['wall_s']:.4f} s, "
            f"{r['trace']['summary']['records']} span records")
    log(f"untraced run: wall_s {untraced['wall_s']:.4f} s; pool worker processes "
        "are not traced")
    problems = check_repeats(traced + [untraced], "run") + check_traced(traced)
    per_run = [layer_metrics(r) for r in traced]
    metrics = {}
    for name, value in per_run[0].items():
        is_count = unit_of(name) in ("count", "B")
        metrics[name] = value if is_count else statistics.mean(m[name] for m in per_run)
    metrics["trace.overhead_s"] = (statistics.mean(r["wall_s"] for r in traced)
                                   - untraced["wall_s"])
    for line in baseline_findings(runner.workload, traced):
        log(line)
    return metrics, problems, traced + [untraced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    missing = [p for p in ["src/qlab/cli.py", *model_paths(args.workload)]
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"bench: not a qlab checkout, missing {missing}", file=sys.stderr)
        return 2

    def log(line):
        print(f"[{args.workload}] {line}", flush=True)

    deadline = time.monotonic() + RUN_LIMIT_S
    runner = Runner(args.workload, args.seed, deadline)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            metrics, problems, results = traced_mode(runner, log)
        else:
            metrics, problems, results = timed(runner, args.seconds, log)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.cleanup()

    first = results[0]
    log(f"env: python {first['python']}, numpy {first['numpy']}, scipy "
        f"{first['scipy']}, nproc {os.cpu_count()}, seed {args.seed}, "
        f"BLAS threads 1")
    for o in first["outcomes"]:
        if o["failed"]:
            kind = "refused" if o["refused"] else ("error" if o["errors"] else "fail")
            log(f"operation {o['name']}: {o['failed']}/{o['attempted']} {kind}"
                + (f": {o['message'].splitlines()[-1]}" if "message" in o else ""))
    attempted, failed, _ = failure_counts(first)
    log(f"fail_frac = {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {unit_of(name)}")
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    counts = [failure_counts(r) for r in results]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c[0] for c in counts),
        "failed": sum(c[2] for c in counts),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

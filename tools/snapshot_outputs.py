"""Write every output of a checkout's program under one directory.

Run from the root of a checkout:

    python3 tools/snapshot_outputs.py OUT

OUT, which must not exist yet, receives:

* ``workloads/<workload>/<run>/``: every run of the ``bench/workloads.py``
  workloads at seed 42, through ``qlab.cli.run`` with the same configs
  and stream addresses as the benchmark;
* ``suites/<suite>-w<workers>/``: ``run_suite`` on each file of
  ``suites/`` at one and at two workers, with its printed lines in
  ``stdout.txt``;
* ``demos/<demo>.txt``: each demo's stdout;
* ``exit_codes.txt``: the exit code of every run above, one per line;
* ``cli/list.txt``: the stdout of ``qlab list``, every experiment with
  its description;
* ``cli/refusals.txt``: for each invocation of ``REFUSALS``, the command
  line, then its exit code and its stderr, with the temporary directory
  that holds its suite file and models written as ``$SCRATCH``.

Run it on two checkouts and ``diff -r`` the two trees: an empty diff means
every output kept its bytes, and a changed refusal message shows in
``cli/refusals.txt``.  BLAS runs on one thread, as in the benchmark, and
nothing is kept outside OUT, not even bytecode caches: the refusals'
``--out`` is a temporary directory, removed at the end.
"""

import glob
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

sys.dont_write_bytecode = True
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from qlab import cli
from workloads import WORKLOADS

SEED = 42
RHO05 = "models/linear_rho05.json"
M2, M3 = "models/markov_2state.json", "models/markov_3state.json"
# model files that only the refusals read, written next to the copied
# models: unknown keys in a model and in its innovation, and an innovation
# that is not an object
BAD_MODELS = {
    "models/misspelt_keys.json": {"type": "linear", "coeffs": [1.0, 0.5],
                                  "innovaton": {"kind": "rademacher"}, "tail_bnd": 0.1},
    "models/misspelt_innovation_key.json": {"type": "linear", "coeffs": [1.0, 0.5],
                                            "innovation": {"kind": "rademacher",
                                                           "varaince": 2.0}},
    "models/markov_with_coeffs.json": {"type": "markov", "P": [[0.7, 0.3], [0.3, 0.7]],
                                       "g": [1.0, -1.0], "coeffs": [1.0]},
    "models/innovation_not_object.json": {"type": "linear", "coeffs": [1.0],
                                          "innovation": "rademacher"},
}
# the arguments of one invalid invocation per rule that RunConfig checks,
# then per rule on a value that the library checks where the value is read,
# then quenched-clt's endpoint rule, a markov-only experiment on a linear
# model, four that set a field the run does not read, two suites whose
# second model is missing or is linear for a markov-only experiment, and
# three whose run names repeat, leave --out or take the summary's, then one
# suite per file of BAD_MODELS; a dict stands for ``run-all`` on a suite
# file holding it, whose model paths are relative to the root of the checkout
REFUSALS = [
    f"sigma2 --model {RHO05}",
    {"seed": 1, "runs": [{"experiment": "sigma2", "n": "16"}]},
    {"seed": 1, "runs": [{"experiment": "sigma2", "model": 5}]},
    {"seed": 1, "runs": [{"name": "first", "experiment": "sigma2", "model": RHO05},
                         {"name": "second", "experiment": "sigma2", "model": RHO05,
                          "n": "16"}]},
    {"seed": 1, "runs": [{"name": "mw-K-zero", "experiment": "mw", "model": M3, "K": 0}]},
    f"frobnicate --model {RHO05} --seed 1",
    "sigma2 --seed 1",
    f"quenched-clt --model {RHO05} --fixtures 0 --seed 1",
    f"sigma2 --model {RHO05} --workers 0 --seed 1",
    {"seed": 1, "runs": [{"experiment": "strest", "model": RHO05, "Ns": [4, 8.5]}]},
    f"strest --model {RHO05} --Ns 4,x --seed 1",
    {"seed": 1, "runs": [{"experiment": "strest", "model": RHO05, "r": 2.5}]},
    f"strest --model {RHO05} --r x --seed 1",
    f"quenched-clt --model {RHO05} --n 0 --reps 20 --fixtures 1 --seed 1",
    f"identity --model {M2} --n 0 --fixtures 1 --seed 1",
    f"doob --model {M2} --n 0 --reps 8 --fixtures 1 --seed 1",
    f"quenched-clt --model {RHO05} --n 16 --reps 0 --fixtures 1 --seed 1",
    f"quenched-clt --model {RHO05} --n 16 --reps 5 --fixtures 1 --seed 1",
    f"strest --model {RHO05} --Ns 4,8 --reps 1 --fixtures 1 --seed 1",
    f"doob --model {M2} --n 8 --reps 1 --fixtures 1 --seed 1",
    f"project-norms --model {M2} --K -1 --seed 1",
    f"hannan --model {M2} --K -1 --seed 1",
    f"sigma2 --model {RHO05} --K -1 --seed 1",
    f"mw --model {M3} --K 0 --seed 1",
    f"strest --model {RHO05} --r -1 --Ns 16,64 --reps 8 --fixtures 1 --seed 1",
    f"strest --model {RHO05} --Ns 0,8 --reps 8 --fixtures 1 --seed 1",
    f"strest --model {RHO05} --Ns 8,8,16 --reps 8 --fixtures 1 --seed 1",
    f"strest --model {RHO05} --Ns 256 --reps 200 --fixtures 1 --seed 1",
    f"drift --model {M2} --Ns 256,1024 --fixtures 2 --seed 1",
    f"drift --model {M2} --Ns 256 --fixtures 2 --seed 1",
    f"sigma2 --model {RHO05} --seed -4",
    f"quenched-clt --model {RHO05} --alpha 2 --n 16 --reps 20 --fixtures 1 --seed 1",
    f"quenched-wip --model {RHO05} --functional supremum --d-threshold -1 --seed 1",
    f"quenched-clt --model {RHO05} --functional supremum --n 16 --reps 20 --fixtures 1 --seed 1",
    f"hopf --model {RHO05} --seed 1",
    f"doob --model {RHO05} --n 8 --reps 8 --fixtures 1 --seed 1",
    f"sigma2 --model {RHO05} --Ns 256,256 --seed 1",
    f"hopf --model {M2} --n 0 --seed 1",
    f"quenched-clt --model {RHO05} --d-threshold 2 --n 16 --reps 20 --fixtures 1 --seed 1",
    f"quenched-wip --model {RHO05} --functional supremum --alpha 2 --n 16 --reps 20 "
    "--fixtures 1 --seed 1",
    {"seed": 1, "runs": [{"name": "first", "experiment": "sigma2", "model": RHO05},
                         {"name": "second", "experiment": "sigma2",
                          "model": "models/missing.json"}]},
    {"seed": 1, "runs": [{"name": "first", "experiment": "sigma2", "model": RHO05},
                         {"name": "second", "experiment": "hopf", "model": RHO05}]},
    {"seed": 1, "runs": [{"name": "a", "experiment": "sigma2", "model": RHO05},
                         {"name": "a", "experiment": "sigma2", "model": RHO05}]},
    {"seed": 1, "runs": [{"name": "../escaped", "experiment": "sigma2", "model": RHO05}]},
    {"seed": 1, "runs": [{"name": "summary.json", "experiment": "sigma2", "model": RHO05}]},
    *({"seed": 1, "runs": [{"experiment": "sigma2", "model": path}]} for path in BAD_MODELS),
]


def _workload_runs(out: str) -> list:
    codes = []
    for workload, ops in WORKLOADS.items():
        for index, op in enumerate(ops):
            params = {k: v for k, v in op.items() if k not in ("name", "model")}
            config = cli.RunConfig(model_path=os.path.join(ROOT, op["model"]), seed=SEED,
                                   name=op["name"],
                                   out=os.path.join(out, workload, op["name"]), **params)
            try:
                code = cli.run(config, base_path=(index,))
            except cli.CLIError:
                code = 3
            codes.append(f"workloads/{workload}/{op['name']} {code}")
    return codes


def _suite_runs(out: str) -> list:
    codes = []
    for path in sorted(glob.glob(os.path.join(ROOT, "suites", "*.json"))):
        suite = os.path.splitext(os.path.basename(path))[0]
        for workers in (1, 2):
            target = os.path.join(out, f"{suite}-w{workers}")
            os.makedirs(target)
            with open(os.path.join(target, "stdout.txt"), "w") as fh, redirect_stdout(fh):
                code = cli.run_suite(path, target, workers=workers)
            codes.append(f"suites/{suite}-w{workers} {code}")
    return codes


def _demo_runs(out: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    os.makedirs(out)
    codes = []
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        demo = os.path.splitext(os.path.basename(path))[0]
        with open(os.path.join(out, f"{demo}.txt"), "w") as fh:
            code = subprocess.run([sys.executable, path], cwd=ROOT, env=env,
                                  stdout=fh).returncode
        codes.append(f"demos/{demo} {code}")
    return codes


def _list_experiments(out: str) -> None:
    os.makedirs(out)
    with open(os.path.join(out, "list.txt"), "w") as fh, redirect_stdout(fh):
        cli.main(["list"])


def _refusals(out: str) -> None:
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        # the suite files are written here, so their model paths resolve here
        shutil.copytree(os.path.join(ROOT, "models"), os.path.join(scratch, "models"))
        for path, model in BAD_MODELS.items():
            with open(os.path.join(scratch, path), "w") as fh:
                json.dump(model, fh)
        for index, entry in enumerate(REFUSALS):
            if isinstance(entry, dict):
                suite = os.path.join(scratch, "suite.json")
                with open(suite, "w") as fh:
                    json.dump(entry, fh)
                command = f"run-all --suite {json.dumps(entry)}"
                args = ["run-all", "--suite", suite]
            else:
                command, args = entry, entry.split()
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = cli.main([*args, "--out", os.path.join(scratch, str(index))])
            message = err.getvalue().rstrip().replace(scratch, "$SCRATCH")
            lines += [f"qlab {command}", f"  exit {code}: {message}"]
    with open(os.path.join(out, "refusals.txt"), "w") as fh:
        fh.write("".join(f"{line}\n" for line in lines))


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/snapshot_outputs.py OUT", file=sys.stderr)
        return 2
    out = os.path.abspath(argv[1])
    os.makedirs(out)
    codes = (_workload_runs(os.path.join(out, "workloads"))
             + _suite_runs(os.path.join(out, "suites"))
             + _demo_runs(os.path.join(out, "demos")))
    _list_experiments(os.path.join(out, "cli"))
    _refusals(os.path.join(out, "cli"))
    with open(os.path.join(out, "exit_codes.txt"), "w") as fh:
        fh.write("".join(f"{line}\n" for line in codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

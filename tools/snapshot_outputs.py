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
  its description.

Run it on two checkouts and ``diff -r`` the two trees: an empty diff means
every output kept its bytes.  BLAS runs on one thread, as in the
benchmark, and nothing is written outside OUT, not even bytecode caches.
"""

import glob
import os
import subprocess
import sys
from contextlib import redirect_stdout

sys.dont_write_bytecode = True
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from qlab import cli
from workloads import WORKLOADS

SEED = 42


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
    with open(os.path.join(out, "exit_codes.txt"), "w") as fh:
        fh.write("".join(f"{line}\n" for line in codes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

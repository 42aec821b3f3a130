"""Public API that only the tests call is a bug.

Every name exported by ``qlab`` must be used somewhere in ``src/qlab``
outside its own definition, or in a demo, and every public method and
property of an exported class must be loaded in ``src/qlab`` outside the
class's own module, or in a demo.  The allowlist names the
reference implementations that exist so tests can compare against them.
Likewise every defaulted parameter of an exported function must be passed
at some call in ``src/qlab`` or a demo; forwarding a caller's own default
counts only if that caller's parameter is passed in turn.  No exported
function takes one item or a sequence of them in the same parameter.  And
the CLI imports no ``scipy``: the library runs on numpy alone, and scipy is
the tests' independent oracle; nor any private name of another ``qlab``
module: it runs on the public API.
"""

import ast
import glob
import inspect
import os
import subprocess
import sys
from itertools import takewhile

import qlab

from conftest import REPO_ROOT

ALLOWLIST = {
    "conditional_expectation_E0":
        "matrix_power oracle the conditional-drift tests compare "
        "e0_increment_series against",
    "mc_projection_norm_sq":
        "nested Monte Carlo estimator, sharing no code with the closed-form "
        "projection norms, that acceptance criterion 2 compares against",
}

# "function.parameter" -> why only the tests pass it
PARAMETER_ALLOWLIST = {}


def _references(path: str, own_definitions: bool) -> set:
    """Names and attributes a file loads, skipping each top-level
    definition's references to itself unless ``own_definitions``."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if own_definitions or name != owner:
                found.add(name)
    return found


def test_every_export_is_used_outside_the_tests():
    used = set()
    for path in glob.glob(os.path.join(REPO_ROOT, "src", "qlab", "*.py")):
        if os.path.basename(path) != "__init__.py":
            used |= _references(path, own_definitions=False)
    for path in glob.glob(os.path.join(REPO_ROOT, "demos", "*.py")):
        used |= _references(path, own_definitions=True)
    exported = [name for name in qlab.__all__
                if not inspect.ismodule(getattr(qlab, name))]
    test_only = sorted(set(exported) - used - set(ALLOWLIST))
    assert not test_only, f"exported but used only by tests: {test_only}"


def _attribute_loads(path: str) -> set:
    """Attribute names a file loads."""
    return {node.attr for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_member_of_an_exported_class_is_used_outside_the_tests():
    # a load in the class's own module does not count: a private helper there
    # may load a like-named attribute of another object, such as numpy's
    # Generator.integers
    loads = {os.path.realpath(path): _attribute_loads(path)
             for pattern in (("src", "qlab", "*.py"), ("demos", "*.py"))
             for path in glob.glob(os.path.join(REPO_ROOT, *pattern))}
    test_only = []
    for name in qlab.__all__:
        cls = getattr(qlab, name)
        if not inspect.isclass(cls):
            continue
        home = os.path.realpath(inspect.getsourcefile(cls))
        used = set().union(*(attrs for path, attrs in loads.items() if path != home))
        test_only += [f"{name}.{attr}" for attr, member in vars(cls).items()
                      if not attr.startswith("_") and attr not in used
                      and (inspect.isfunction(member) or isinstance(
                          member, (property, classmethod, staticmethod)))]
    assert not test_only, f"public members used only by tests: {sorted(test_only)}"


def test_allowlist_names_real_exports():
    assert set(ALLOWLIST) <= set(qlab.__all__)
    assert {key.split(".")[0] for key in PARAMETER_ALLOWLIST} <= set(qlab.__all__)


def _defaulted(args: ast.arguments) -> set:
    positional = args.posonlyargs + args.args
    return ({a.arg for a in positional[len(positional) - len(args.defaults):]}
            | {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None})


def _parse(path: str) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read())


def test_every_defaulted_parameter_has_a_caller():
    trees = [_parse(path)
             for pattern in (("src", "qlab", "*.py"), ("demos", "*.py"))
             for path in glob.glob(os.path.join(REPO_ROOT, *pattern))]
    signatures = {stmt.name: [a.arg for a in stmt.args.posonlyargs + stmt.args.args]
                  for tree in trees for stmt in tree.body
                  if isinstance(stmt, ast.FunctionDef)}
    passed, forwarded = set(), set()    # (function, parameter); (from, to)
    for tree in trees:
        for stmt in tree.body:
            own = _defaulted(stmt.args) if isinstance(stmt, ast.FunctionDef) else set()
            for call in (n for n in ast.walk(stmt) if isinstance(n, ast.Call)):
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                if callee not in signatures:
                    continue
                positional = takewhile(lambda a: not isinstance(a, ast.Starred),
                                       call.args)
                given = list(zip(signatures[callee], positional))
                given += [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
                for name, arg in given:
                    if isinstance(arg, ast.Name) and arg.id in own:
                        forwarded.add(((stmt.name, arg.id), (callee, name)))
                    else:
                        passed.add((callee, name))
    while True:
        reached = {to for source, to in forwarded if source in passed} - passed
        if not reached:
            break
        passed |= reached
    unpassed = sorted(
        f"{name}.{param.name}" for name in qlab.__all__
        if inspect.isfunction(getattr(qlab, name))
        for param in inspect.signature(getattr(qlab, name)).parameters.values()
        if param.default is not param.empty and (name, param.name) not in passed)
    unused = sorted(set(unpassed) - set(PARAMETER_ALLOWLIST))
    assert not unused, f"defaulted parameters no caller passes: {unused}"


def _union_members(node: ast.expr) -> list:
    """The members of an annotation's union, ``A | B`` or ``Union[A, B]``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _union_members(node.left) + _union_members(node.right)
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "Union":
        members = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return [m for member in members for m in _union_members(member)]
    return [node]


def _is_sequence(node: ast.expr) -> bool:
    return isinstance(node, ast.Subscript) and "Sequence" in (
        getattr(node.value, "id", None), getattr(node.value, "attr", None))


def test_no_export_takes_one_item_or_a_sequence():
    # one call form: a parameter takes either one item or a sequence of
    # them, so no union annotation lists a Sequence[...] among other members
    both = []
    for name in qlab.__all__:
        function = getattr(qlab, name)
        if not inspect.isfunction(function):
            continue
        for param in inspect.signature(function).parameters.values():
            if param.annotation is param.empty:
                continue
            # qlab's modules postpone annotations, so each is its source text
            members = _union_members(ast.parse(param.annotation, mode="eval").body)
            if len(members) > 1 and any(map(_is_sequence, members)):
                both.append(f"{name}.{param.name}")
    assert not both, f"parameters that take one item or a sequence: {sorted(both)}"


def test_cli_import_loads_no_scipy_signal():
    probe = ("import sys, qlab.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]", proc.stdout


def test_runs_with_scipy_blocked(tmp_path):
    # the normal draws, the normal CDF, the Brownian laws and the KS p-value
    # each run in a process where importing scipy raises ImportError; the
    # sup-abs threshold is loosened because n = 64 and 200 reps are far below
    # the scale the default is set for
    models = os.path.join(REPO_ROOT, "models")
    runs = [f"quenched-clt --model {models}/linear_rho05.json --n 64 --reps 200",
            f"quenched-wip --model {models}/markov_2state.json --functional sup-abs "
            "--n 64 --reps 200 --d-threshold 0.2",
            f"hopf --model {models}/markov_3state.json --n 50"]
    probe = ("import sys; sys.modules['scipy'] = None; from qlab import cli; "
             "print([cli.main(run.split() + ['--seed', '1', '--fixtures', '2', '--out', "
             "f'{sys.argv[1]}/{i}']) for i, run in enumerate(sys.argv[2:])])")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path), *runs],
                          capture_output=True, text=True, env=env)
    assert proc.stdout.strip() == "[0, 0, 0]", proc.stdout + proc.stderr


def test_cli_imports_no_private_name():
    tree = _parse(os.path.join(REPO_ROOT, "src", "qlab", "cli.py"))
    private = sorted(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and (node.level or (node.module or "").startswith("qlab"))
                     for alias in node.names if alias.name.startswith("_"))
    assert not private, f"cli.py imports private qlab names: {private}"

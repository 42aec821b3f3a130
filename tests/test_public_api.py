"""Public API that only the tests call is a bug.

Every name exported by ``qlab`` must be used somewhere in ``src/qlab``
outside its own definition, or in a demo.  The allowlist names the
reference implementations that exist so tests can compare against them.
"""

import ast
import glob
import inspect
import os

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


def test_allowlist_names_real_exports():
    assert set(ALLOWLIST) <= set(qlab.__all__)

"""Source checks that hold for the package as a whole."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "germinv"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a check that must hold in
    # production is an explicit raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _type_checks(tree: ast.Module, names: set) -> list[str]:
    """The functions (qualified by class) that call isinstance on ``names``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2
                    and names & {n.id for n in ast.walk(child.args[1])
                                 if isinstance(n, ast.Name)}):
                found.append(scope)
            visit(child, inner)

    visit(tree, "")
    return found


def test_coefficient_type_is_asked_only_where_it_decides():
    # Q(c) elements act like Fractions; only the sign of a coefficient and
    # the branch order (an irrational first coefficient is compared by its
    # isolating interval) need to know which kind they hold
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "numberfield.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.stem}.{f}" for f in
                  _type_checks(tree, {"Fraction", "FieldElement"})]
    assert sorted(found) == ["puiseux._branch_sort_key", "unipoly.coeff_sign"]


def test_demos_run_standalone():
    # README promises that each demo runs with only the package on the path
    root = SRC.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    demos = sorted((root / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (demo.name, proc.stderr)
        assert proc.stdout.strip(), demo.name

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

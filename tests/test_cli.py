"""Command line behavior: exit codes, output formats, schema conformance,
and byte-for-byte determinism."""

import importlib
import json
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from germinv import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def load_schema(name):
    text = resources.files("germinv").joinpath(
        f"schemas/{name}.schema.json").read_text()
    return json.loads(text)


def check(name, payload):
    jsonschema.validate(payload, load_schema(name))


def test_inv_text(capsys):
    rc, out, _ = run(capsys, "inv", "x^3 + y^6")
    assert rc == 0
    assert out.startswith("# germinv inv")
    assert "Inv = (-3, 3)" in out
    assert "half-branches: 6" in out


def test_inv_json(capsys):
    rc, out, _ = run(capsys, "inv", "x^3 + y^6", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    check("inv", payload)
    assert payload["lo"] == "-3"
    assert payload["hi"] == "3"
    assert payload["Kminus_alphas"] == ["3"]
    assert payload["Kplus_alphas"] == ["3", "6", "6", "6", "6"]


def test_inv_rational_pair(capsys):
    rc, out, _ = run(capsys, "inv", "(y - x^2)^2 + x^20", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    check("inv", payload)
    assert (payload["lo"], payload["hi"]) == ("2", "20")


def test_compare_excluded(capsys):
    rc, out, _ = run(capsys, "compare", "x^3 + y^6", "x^2 + y^4")
    assert rc == 1
    assert "verdict: excluded" in out


def test_compare_possible_by_negation(capsys):
    rc, out, _ = run(capsys, "compare", "x^2 + y^4", "-x^2 - y^4")
    assert rc == 0
    assert "verdict: possible" in out


def test_compare_json(capsys):
    rc, out, _ = run(capsys, "compare", "x^3 + y^6", "x^2 + y^4",
                     "--format", "json")
    assert rc == 1
    payload = json.loads(out)
    check("compare", payload)
    assert payload["verdict"] == "excluded"
    assert payload["f"]["lo"] == "-3"
    assert payload["g"]["lo"] == "2"


def test_branches_text(capsys):
    rc, out, _ = run(capsys, "branches", "x^2 + y^4")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 4
    assert all("K+" in l for l in lines)


def test_branches_json(capsys):
    rc, out, _ = run(capsys, "branches", "(x^2 - y^3)^2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    check("branches", payload)
    kinds = sorted(b["kind"] for b in payload["branches"])
    assert kinds == ["K+", "K+", "K+", "K+", "K0", "K0"]
    for b in payload["branches"]:
        if b["kind"] == "K0":
            assert b["alpha"] is None


def test_psi_json(capsys):
    rc, out, _ = run(capsys, "psi", "x^2 + y^4", "--ladder", "6",
                     "--grid", "512", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    check("psi", payload)
    assert len(payload["ts"]) == 6
    assert all(v > 0 for v in payload["psi"])


def test_psi_csv(capsys):
    rc, out, _ = run(capsys, "psi", "x^2 + y^4", "--ladder", "4",
                     "--grid", "512", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,psi,psibar"
    assert len(lines) == 5


def test_crosscheck_json(capsys):
    rc, out, _ = run(capsys, "crosscheck", "x^2 + y^4", "--ladder", "10",
                     "--grid", "512", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    check("crosscheck", payload)
    assert payload["passed"] is True
    assert payload["branch_count"] == 4
    assert payload["path_count"] == 4
    assert payload["failures"] == []


def test_crosscheck_csv(capsys):
    rc, out, _ = run(capsys, "crosscheck", "x^2 + y^4", "--ladder", "4",
                     "--grid", "512", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,psi,psibar,path_id,theta,f_value"
    # 4 paths tracked on every rung
    assert len(lines) == 1 + 4 * 4


def test_crosscheck_k0_json(capsys):
    rc, out, _ = run(capsys, "crosscheck", "(x^2 - y^3)^2", "--ladder", "10",
                     "--grid", "1024", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    check("crosscheck", payload)
    assert payload["predicted_psi"] == {"sign": 0, "alpha": None}
    assert payload["fit_psi"]["all_below_floor"] is True
    assert payload["fit_psi"]["exponent"] is None


def test_exit_parse_error(capsys):
    rc, _, err = run(capsys, "inv", "2x")
    assert rc == 2
    assert "error:" in err


def test_exit_nonvanishing(capsys):
    rc, _, err = run(capsys, "inv", "x + 1")
    assert rc == 2
    assert "error:" in err


def test_exit_resource_limit(capsys):
    # tangency branches y = +-sqrt(2) x + c x^(3/2) + ... need c in a second
    # algebraic extension
    rc, _, err = run(capsys, "inv", "(y^2 - 2*x^2)^3 + x^7")
    assert rc == 3
    assert "resource limit:" in err
    assert "second algebraic extension" in err
    # the leading coefficients of x^3 - 3xy^2 + y^3 along its tangency lines
    # lie in Q(c), and no refinement bit is allowed to find their signs
    rc, _, err = run(capsys, "inv", "x^3 - 3*x*y^2 + y^3", "--max-bits", "0")
    assert rc == 3
    assert "resource limit:" in err


@pytest.mark.filterwarnings("error")
def test_exit_contradictory_flags(capsys):
    rc, _, err = run(capsys, "inv", "x^3 + y^6", "--order", "0")
    assert rc == 2
    assert "--order" in err
    rc, _, err = run(capsys, "psi", "x^2 + y^4", "--tmin", "0.5",
                     "--tmax", "0.1")
    assert rc == 2
    assert "--tmin" in err
    # a ladder of equal radii has no slope to fit: a flag error, reported
    # before numpy is reached (any warning fails this test)
    rc, out, err = run(capsys, "crosscheck", "x^2 + y^4", "--tmin", "0.01",
                       "--tmax", "0.01")
    assert rc == 2
    assert out == ""
    assert err == "error: need 0 < --tmin < --tmax\n"


def test_exit_crosscheck_failure(capsys):
    # band crossing the non-origin tangency lines y = +/- 1/sqrt(2):
    # extra critical angles, path count 8 against 4 half-branches
    rc, out, _ = run(capsys, "crosscheck", "x^2 + y^4", "--tmin", "0.75",
                     "--tmax", "0.9", "--ladder", "8", "--grid", "1024")
    assert rc == 4
    assert "result: FAIL" in out
    assert "path count 8 != 4 half-branches" in out


def test_usage_errors_are_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["inv", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["inv", "x^3 + y^6", "--format", "json"],
    ["branches", "(x^2 - y^3)^2"],
    ["psi", "x^2 + y^4", "--ladder", "5", "--grid", "512", "--format", "csv"],
    ["crosscheck", "x^2 + y^4", "--ladder", "8", "--grid", "512"],
])
def test_deterministic_output(capsys, argv):
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2
    assert out1 == out2


def declared_scripts():
    """The `[project.scripts]` table of the repo's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    text = (Path(__file__).resolve().parents[1]
            / "pyproject.toml").read_text()
    return tomllib.loads(text)["project"]["scripts"]


def run_console_script(module, attr, argv):
    """Run `module.attr` the way a generated console-script wrapper does:
    argv[0] is the script name and the exit code is what the callable
    returns, called with no arguments."""
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'germinv'; sys.exit({attr}())")
    return subprocess.run([sys.executable, "-c", wrapper, *argv],
                          capture_output=True)


def test_installed_entry_point():
    # Checks the console-script contract without an install; the installed
    # executable, when one is on PATH, must behave byte for byte the same.
    target = declared_scripts()["germinv"]
    assert target == "germinv.cli:main"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))
    installed = shutil.which("germinv")
    for argv, code, needle in [
            (["inv", "x^3 + y^6"], 0, "Inv = (-3, 3)"),
            (["compare", "x^3 + y^6", "x^2 + y^4"], 1, "verdict: excluded")]:
        proc = run_console_script(module, attr, argv)
        assert proc.returncode == code, proc.stderr.decode()
        assert needle in proc.stdout.decode()
        if installed:
            real = subprocess.run([installed, *argv], capture_output=True)
            assert (real.returncode, real.stdout) == (proc.returncode,
                                                      proc.stdout)


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "germinv.cli", "compare",
         "x^3 + y^6", "x^2 + y^4"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "verdict: excluded" in proc.stdout


def test_symbolic_commands_leave_numpy_unimported():
    code = (
        "import contextlib, io, sys\n"
        "import germinv, germinv.cli\n"
        "germinv.analyze_germ(germinv.parse_poly('x^3 + y^6'))\n"
        "for argv in (['inv', 'x^3 + y^6'],\n"
        "             ['compare', 'x^3 + y^6', 'x^2 + y^4'],\n"
        "             ['branches', '(x^2 - y^3)^2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        germinv.cli.main(argv)\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "from germinv import crosscheck, sphere_extrema\n"
        "assert 'numpy' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr

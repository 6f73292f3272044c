"""Command line behavior: exit codes, output formats, schema conformance,
and byte-for-byte determinism."""

import importlib
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import germinv.puiseux
from germinv import ExpansionConfig, analyze_germ, cli, parse_poly
from germinv.numberfield import FieldElement


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
    # a non-finite radius or floor is a flag error, not inf/nan rows or a
    # crosscheck failure
    for flags in (("psi", "--tmax", "inf"), ("psi", "--tmin", "nan"),
                  ("crosscheck", "--floor", "nan"),
                  ("crosscheck", "--floor", "inf"),
                  ("crosscheck", "--floor", "-0.5"),
                  ("inv", "--max-bits", "-1")):
        rc, out, err = run(capsys, flags[0], "x^2 + y^4", *flags[1:])
        assert rc == 2, flags
        assert out == ""
        assert err.startswith("error: need "), flags


def test_crosscheck_text_of_a_zero_psi(capsys):
    # x^2 vanishes on the y axis, so psi is identically 0 and every sample
    # of it is below the floor: the prediction holds, and the check passes
    rc, out, _ = run(capsys, "crosscheck", "x^2")
    assert rc == 0
    assert ("psi:    predicted identically 0; all samples below floor"
            in out.splitlines())
    assert out.endswith("result: PASS\n")


@pytest.mark.parametrize("flags, message", [
    (("--ladder", "1"), "--ladder must be at least 2"),
    (("--grid", "15"), "--grid must be at least 16")])
def test_exit_ladder_or_grid_too_small(capsys, flags, message):
    rc, out, err = run(capsys, "crosscheck", "x^2 + y^4", *flags)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["psi", "crosscheck"])
@pytest.mark.parametrize("germ", [
    "10^400*x^2 + y^2", "10^308*x^2 + y^2", f"1/1{'0' * 400}*x^2 + y^2"])
def test_exit_coefficient_outside_double_range(capsys, command, germ):
    # 10^400 overflows a double and 10^-400 underflows to 0; 10^308 fits,
    # but y*f_x - x*f_y has the coefficient 2*10^308 - 2, which does not
    rc, out, err = run(capsys, command, germ)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: the numeric oracle needs ")


def test_crosscheck_floor_when_coefficient_sum_overflows(capsys):
    # each |c| is a finite double but their sum is not: the automatic floor
    # sums the magnitudes scaled by the largest, 1e-14 * 1e308 * 2
    rc, out, _ = run(capsys, "crosscheck", "10^308*x^2 + 10^308*y^2")
    assert rc == 0
    assert "result: PASS" in out
    (line,) = [ln for ln in out.splitlines() if ln.startswith("floor: ")]
    assert float(line.split()[1]) == 2e294


@pytest.mark.parametrize("argv", [
    ("inv", "0"), ("compare", "0", "x^2 + y^4"), ("branches", "0"),
    ("psi", "0"), ("crosscheck", "x - x")])
def test_exit_zero_germ(capsys, argv):
    # f = 0 has no invariant and no circle extrema: bad input
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: the zero germ ")


_DIGITS = sys.get_int_max_str_digits()   # 0: no limit
_LONG = "1" + "0" * (_DIGITS + 700)
needs_digit_limit = pytest.mark.skipif(
    not _DIGITS, reason="the interpreter has no integer string limit")


@needs_digit_limit
def test_exit_literal_longer_than_the_digit_limit(capsys):
    # int() refuses the literal: a parse error at its offset
    for germ, at in ((f"{_LONG}*x^2 + y^4", 0),
                     (f"x^2 + 1/{_LONG}*y^4", 8)):
        rc, out, err = run(capsys, "inv", germ)
        assert (rc, out) == (2, "")
        assert err == (f"error: integer literal longer than {_DIGITS} digits"
                       f" (at offset {at})\n")


@needs_digit_limit
@pytest.mark.parametrize("argv", [
    ("inv", "G"), ("inv", "G", "--format", "json"),
    ("compare", "G", "x^2 + y^4"), ("branches", "G"),
    ("branches", "(x + y)^3 + 10^1200*y^4")])
def test_exit_number_too_long_to_print(capsys, argv):
    # a number of more digits than the limit, in the germ (10^k for k past
    # the limit) or in a series coefficient (10^3600 of 10^1200 cubed),
    # cannot be printed: a resource limit, with nothing on stdout
    germ = f"10^{_DIGITS + 700}*x^2 + y^4"
    rc, out, err = run(capsys, *(germ if a == "G" else a for a in argv))
    assert (rc, out) == (3, "")
    assert err.startswith(f"resource limit: a number to print has more than "
                          f"{_DIGITS} digits")


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
    # '--' starts an option even where a germ may start with '-'
    for argv in (["inv", "--bogus", "x^2 + y^4"], ["inv", "-x^2+y^4", "--bogus"],
                 ["compare", "-x^2", "--bogus", "y^2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit) as exc:
        cli.main(["inv", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("command, germs, flags", [
    ("inv", ["-x^2+y^4"], []),
    ("inv", ["-x^2+y^4"], ["--format", "json"]),
    ("compare", ["-x^2+y^4", "-y^2+x^4"], []),
    ("branches", ["-2*x^3+y^5"], []),
    ("psi", ["-x^2+y^4"], ["--ladder", "5", "--grid", "512"]),
    ("crosscheck", ["-x^2+y^4"], ["--ladder", "8", "--grid", "512"]),
])
def test_germ_starting_with_minus(capsys, command, germs, flags):
    # a germ text that starts with '-' is read as the germ, as after '--'
    rc, out, err = run(capsys, command, *germs, *flags)
    assert (rc, err) == (0, "")
    assert (rc, out, err) == run(capsys, command, *flags, "--", *germs)
    if command == "inv" and not flags:
        assert "Inv = (-2, 4)" in out


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


@pytest.mark.parametrize("germ, stem", [
    ("x^2*y + y^4", "branches_x2y_y4"),
    ("x^3 - 3*x*y^2 + y^3", "branches_x3_3xy2_y3"),
])
@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
def test_branches_extension_floats_pinned(capsys, germ, stem, fmt, suffix):
    # Q(c) coefficients print as 9-digit floats read off the refined root
    # interval; any change to the refinement shows here byte for byte
    rc, out, _ = run(capsys, "branches", germ, "--format", fmt)
    assert rc == 0
    golden = Path(__file__).resolve().parent / "golden" / f"{stem}.{suffix}"
    assert out == golden.read_text()


def test_branches_order_30_pinned(capsys):
    # axis branches, and two rational branches lifted far past the default
    # order by Newton steps along their simple roots
    rc, out, _ = run(capsys, "branches", "y^3 - x^5 + x^2*y^2",
                     "--order", "30")
    assert rc == 0
    golden = (Path(__file__).resolve().parent / "golden"
              / "branches_y3_x5_x2y2_order30.txt")
    assert out == golden.read_text()


def test_branches_lifts_one_half_of_each_pair(capsys, monkeypatch):
    # a twin's series is its first half's with the coefficient of s^k times
    # (-1)^k: beside the analysis, a branches run lifts each truncated pair
    # once; it lifted both halves when the twin ran its own Newton steps
    germ, order = "y^3 - x^5 + x^2*y^2", 30
    calls = []
    step = germinv.puiseux._tail_step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(germinv.puiseux, "_tail_step", counted)
    rc, _, _ = run(capsys, "branches", germ, "--order", str(order))
    assert rc == 0
    ran = len(calls)
    calls.clear()
    analysis = analyze_germ(parse_poly(germ), ExpansionConfig(order=order))
    analysed = len(calls)
    calls.clear()
    read = set()
    for r in analysis.restrictions:
        if r.branch.twin not in read:
            read.add(r.branch)
            r.branch.y
    assert calls and ran == analysed + len(calls)


# a rotated quintic whose branch [2] has Q(c) coefficients down to 1e-16
SMALL_COEFFS_GERM = (
    "4048/3125*x^5 + 744/625*x^4*y + 1089/625*x^3*y^2 - 2908/625*x^2*y^3"
    " - 12/625*x*y^4 + 3789/3125*y^5 - 729/15625*x^6 - 5832/15625*x^5*y"
    " - 3888/3125*x^4*y^2 - 6912/3125*x^3*y^3 - 6912/3125*x^2*y^4"
    " - 18432/15625*x*y^5 - 4096/15625*y^6")


def test_branches_print_certified_digits(capsys):
    # every printed digit of a Q(c) coefficient is certified: it matches the
    # value refined to a relative width of 2^-200, however small the value
    rc, out, _ = run(capsys, "branches", SMALL_COEFFS_GERM)
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert "(3.7981867e-11)*s^7" in lines[2]
    checked = 0
    for line, r in zip(lines, analyze_germ(parse_poly(SMALL_COEFFS_GERM))
                       .restrictions):
        want = []
        for series in (r.branch.x, r.branch.y):
            for _, c in series.terms:
                if isinstance(c, FieldElement):
                    lo, hi = c.interval()
                    lo, hi = c.interval(min(abs(lo), abs(hi)) / 2**200)
                    want.append(f"{float((lo + hi) / 2):.9g}")
        assert re.findall(r"\(([^()]*)\)\*s", line) == want, line
        checked += len(want)
    assert checked >= 20


def test_branches_print_digits_below_the_double_range(capsys):
    # two coefficients near 1.4e-401 underflow a double; they print from the
    # exact value, within half a printed unit of their refined interval
    germ = "(x^2-2*y^2)*(10^400*x - y)"
    rc, out, _ = run(capsys, "branches", germ)
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    tiny = 0
    for line, r in zip(lines, analyze_germ(parse_poly(germ)).restrictions):
        (_, c), = r.branch.y.terms
        text, = re.findall(r"\(([^()]*)\)\*s", line)
        mantissa, _, exp = text.partition("e")
        places = len(mantissa.partition(".")[2])
        half = Fraction(10) ** (int(exp or 0) - places) / 2
        lo, hi = c.interval()
        lo, hi = c.interval(min(abs(lo), abs(hi)) / 2**200)
        assert lo - half <= Fraction(text) <= hi + half, line
        tiny += 0 < abs(Fraction(text)) < Fraction(1, 10**400)
    assert tiny == 2


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

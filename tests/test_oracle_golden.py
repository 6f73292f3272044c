"""The numeric oracle's output, byte for byte, under four flag sets.

Each golden file ``golden/oracle_<germ>_<flags>.txt`` is the transcript of
``crosscheck --format json``, ``crosscheck --format csv`` and
``psi --format csv`` on one germ: the fits, every tracked critical angle
and value, and the circle extrema. Regenerate them with

    PYTHONPATH=src python tests/test_oracle_golden.py

only for a change that is meant to move the oracle's numbers.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from germinv import cli, parse_poly

from conftest import rotate_germ

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> germ text; 7*x^3*y^3, -9*x*y^4 and x^4 - 2*x^2*y^3 + y^6 have h
# vanishing exactly on the grid knot at angle 0, so they take the nudge step
GERMS = {
    "7x3y3": "7*x^3*y^3",
    "m9xy4": "-9*x*y^4",
    "x4_2x2y3_y6": "x^4 - 2*x^2*y^3 + y^6",
    "x2_xy_2y2": "x^2 - x*y + 2*y^2",
    "rot_x3_y6": rotate_germ(parse_poly("x^3 + y^6")).to_string(),
    "rot_x2_y3_sq": rotate_germ(parse_poly("(x^2 - y^3)^2")).to_string(),
}

# name -> (flags shared by psi and crosscheck, flags for crosscheck only)
FLAGS = {
    "default": ([], []),
    "coarse": (["--ladder", "8", "--grid", "512", "--tmin", "1e-3",
                "--tmax", "0.5"], []),
    "tiny": (["--tmin", "1e-100", "--tmax", "1e-90", "--ladder", "6"],
             ["--floor", "1e-300"]),
    "grid4097": (["--grid", "4097"], []),
}


def transcript(germ: str, flags: str) -> str:
    shared, extra = FLAGS[flags]
    runs = [["crosscheck", germ, *shared, *extra, "--format", "json"],
            ["crosscheck", germ, *shared, *extra, "--format", "csv"],
            ["psi", germ, *shared, "--format", "csv"]]
    parts = []
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        parts.append(f"$ germinv {shlex.join(argv)}\n{out.getvalue()}"
                     f"exit: {rc}\n")
    return "".join(parts)


def golden_path(name: str, flags: str) -> Path:
    return GOLDEN / f"oracle_{name}_{flags}.txt"


@pytest.mark.parametrize("flags", sorted(FLAGS))
@pytest.mark.parametrize("name", sorted(GERMS))
def test_oracle_output_pinned(name, flags):
    want = golden_path(name, flags).read_text()
    assert transcript(GERMS[name], flags) == want


if __name__ == "__main__":
    for name, germ in GERMS.items():
        for flags in FLAGS:
            golden_path(name, flags).write_text(transcript(germ, flags))

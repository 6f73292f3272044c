"""Command line interface.

Subcommands:
  inv EXPR           exact invariant pair of one germ
  compare F G        necessary-condition verdict for a pair of germs
  branches EXPR      tangency half-branches with their sign classes
  psi EXPR           numeric circle-extrema ladder
  crosscheck EXPR    numeric validation of the exact analysis

Exit codes: 0 success (and "possible" for compare), 1 equivalence excluded,
2 bad input (including a coefficient the numeric oracle cannot hold as a
double, and an integer literal longer than the interpreter's limit on
integer string conversion, ``sys.get_int_max_str_digits()``), 3 certified
symbolic resource limit (also a computed number too long for that limit to
print), 4 crosscheck failure or unstable path tracking, 70 unexpected
internal error. Output goes to stdout only when a command returns, so an
error leaves stdout empty.

Output is deterministic byte for byte for a given invocation: floats are
printed with repr (shortest round-trip form), exact rationals as n or n/d,
and all orderings are fixed by the analysis itself.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

from .errors import (CoefficientRangeError, NonVanishingGermError,
                     ParseError, PathCountUnstableError, ResourceError,
                     UnitGermError, ZeroInputError)
from .invariant import analyze_germ, equivalent_possible
from .parsing import parse_poly
from .tangency import ExpansionConfig

EXIT_OK = 0
EXIT_EXCLUDED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CROSSCHECK = 4
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    """An argument that starts with a single '-' and is not a declared option
    is a germ, such as '-x^2+y^4'; argparse would take it for an unknown
    option. An argument that starts with '--' is still an option, so
    '--bogus' is a usage error. Subcommand parsers inherit the class."""

    def _parse_optional(self, arg_string):
        if (arg_string.startswith("-") and not arg_string.startswith("--")
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="germinv",
        description="Contact-invariant analysis of plane polynomial germs "
                    "f(x, y) vanishing at the origin.")
    sub = ap.add_subparsers(dest="command", required=True)
    config = ExpansionConfig()   # the defaults are ExpansionConfig's own
    symbolic = [
        ("--order", int, config.order,
         "series truncation order of the expanded branches "
         "(default %(default)s)"),
        ("--max-bits", int, config.max_bits,
         "interval refinement budget for algebraic signs "
         "(default %(default)s)")]
    numeric = [
        ("--tmin", float, 1e-4, "smallest circle radius (default 1e-4)"),
        ("--tmax", float, 1e-1, "largest circle radius (default 0.1)"),
        ("--ladder", int, 40, "number of radii, geometric (default 40)"),
        ("--grid", int, 4096, "angle grid size per circle (default 4096)")]
    floor = [("--floor", float, None,
              "noise floor; default 1e-14 * max(1, coeff norm)")]
    germ = [("germ", None)]
    # name, help, positionals, flags, formats, handler
    table = [
        ("inv", "invariant pair of one germ",
         [("germ", "polynomial in x, y, e.g. 'x^3 + y^6'")], symbolic,
         ("text", "json"), cmd_inv),
        ("compare", "can two germs be contact equivalent?",
         [("f", "first germ"), ("g", "second germ")], symbolic,
         ("text", "json"), cmd_compare),
        ("branches", "tangency half-branches and sign classes", germ,
         symbolic, ("text", "json"), cmd_branches),
        ("psi", "min/max of f on small circles (numeric)", germ, numeric,
         ("text", "json", "csv"), cmd_psi),
        ("crosscheck", "validate the exact analysis numerically", germ,
         symbolic + numeric + floor, ("text", "json", "csv"), cmd_crosscheck),
    ]
    for name, text, positionals, flags, formats, handler in table:
        p = sub.add_parser(name, help=text)
        for dest, help_ in positionals:
            p.add_argument(dest, help=help_)
        for flag, kind, default, help_ in flags:
            p.add_argument(flag, type=kind, default=default, help=help_)
        p.add_argument("--format", choices=formats, default="text",
                       help="output format (default text)")
        p.set_defaults(func=handler)
    return ap


def _flag_error(args) -> str | None:
    if hasattr(args, "order") and args.order < 1:
        return "need --order >= 1"
    if hasattr(args, "max_bits") and args.max_bits < 0:
        return "need --max-bits >= 0"
    if hasattr(args, "tmin"):
        if not (math.isfinite(args.tmin) and math.isfinite(args.tmax)):
            return "need finite --tmin and --tmax"
        if not 0.0 < args.tmin < args.tmax:
            return "need 0 < --tmin < --tmax"
        if args.ladder < 2:
            return "--ladder must be at least 2"
        if args.grid < 16:
            return "--grid must be at least 16"
    floor = getattr(args, "floor", None)
    if floor is not None and not (math.isfinite(floor) and floor >= 0.0):
        return "need a finite --floor >= 0"
    return None


def _config(args) -> ExpansionConfig:
    return ExpansionConfig(order=args.order, max_bits=args.max_bits)


def _header(args) -> str:
    parts = [f"# germinv {args.command}"]
    if hasattr(args, "order"):
        parts.append(f"order={args.order} max-bits={args.max_bits}")
    if hasattr(args, "tmin"):
        parts.append(f"tmin={args.tmin!r} tmax={args.tmax!r} "
                     f"ladder={args.ladder} grid={args.grid}")
    if hasattr(args, "floor"):
        floor = "auto" if args.floor is None else repr(args.floor)
        parts.append(f"floor={floor}")
    return "  ".join(parts)


def _germ_record(text: str, analysis) -> dict:
    cls = analysis.classification
    v = analysis.invariant
    return {
        "germ": text,
        "lo": str(v.lo),
        "hi": str(v.hi),
        "K0_count": cls.K0_count,
        "Kminus_alphas": [str(a) for a in cls.Kminus_alphas],
        "Kplus_alphas": [str(a) for a in cls.Kplus_alphas],
    }


def _emit_json(out, record) -> None:
    out.write(json.dumps(record, indent=2) + "\n")


def _print_table(out, sep: str, head, rows) -> None:
    print(sep.join(head), file=out)
    for row in rows:
        print(sep.join(map(repr, row)), file=out)


def cmd_inv(args, out) -> int:
    f = parse_poly(args.germ)
    analysis = analyze_germ(f, _config(args))
    rec = _germ_record(f.to_string(), analysis)
    if args.format == "json":
        _emit_json(out, rec)
        return EXIT_OK
    print(_header(args), file=out)
    print(f"germ: {rec['germ']}", file=out)
    print(f"half-branches: {len(analysis.restrictions)}", file=out)
    print(f"K0 count: {rec['K0_count']}", file=out)
    for sign, key in (("-", "Kminus_alphas"), ("+", "Kplus_alphas")):
        print(f"K{sign} alphas: {', '.join(rec[key]) or 'none'}", file=out)
    print(f"Inv = ({rec['lo']}, {rec['hi']})", file=out)
    return EXIT_OK


def cmd_compare(args, out) -> int:
    f, g = parse_poly(args.f), parse_poly(args.g)
    config = _config(args)
    af, ag = analyze_germ(f, config), analyze_germ(g, config)
    rec = {"f": _germ_record(f.to_string(), af),
           "g": _germ_record(g.to_string(), ag),
           "verdict": equivalent_possible(af.invariant, ag.invariant)}
    if args.format == "json":
        _emit_json(out, rec)
    else:
        print(_header(args), file=out)
        for name in ("f", "g"):
            print(f"{name}: {rec[name]['germ']}", file=out)
            print(f"Inv({name}) = ({rec[name]['lo']}, {rec[name]['hi']})",
                  file=out)
        print(f"verdict: {rec['verdict']}", file=out)
    return EXIT_OK if rec["verdict"] == "possible" else EXIT_EXCLUDED


def cmd_branches(args, out) -> int:
    f = parse_poly(args.germ)
    analysis = analyze_germ(f, _config(args))
    rows = [{
        "chart": r.branch.chart,
        "sigma": r.branch.sigma,
        "e": r.branch.e,
        "x": r.branch.x.to_string(),
        "y": r.branch.y.to_string(),
        "kind": r.kind,
        "alpha": None if r.alpha is None else str(r.alpha),
    } for r in analysis.restrictions]
    rec = {"germ": f.to_string(), "branches": rows}
    if args.format == "json":
        _emit_json(out, rec)
        return EXIT_OK
    print(_header(args), file=out)
    print(f"germ: {rec['germ']}", file=out)
    print(f"half-branches: {len(rows)}", file=out)
    for k, row in enumerate(rows):
        print(f"[{k}] {row['chart']} sigma={row['sigma']:+d} e={row['e']} "
              f"{row['kind']} alpha={row['alpha'] or '-'} | x = {row['x']} "
              f"| y = {row['y']}", file=out)
    return EXIT_OK


def cmd_psi(args, out) -> int:
    from .oracle import ladder_extrema, radius_ladder
    f = parse_poly(args.germ)
    if f.is_zero():
        raise ZeroInputError("the zero germ has no circle extrema to fit")
    ts = radius_ladder(args.tmin, args.tmax, args.ladder)
    extrema = ladder_extrema(f, ts, args.grid)
    rec = {
        "germ": f.to_string(),
        "ts": ts,
        "psi": [e.fmin for e in extrema],
        "psibar": [e.fmax for e in extrema],
    }
    if args.format == "json":
        _emit_json(out, rec)
        return EXIT_OK
    sep = "," if args.format == "csv" else "  "
    if args.format == "text":
        print(_header(args), file=out)
        print(f"germ: {rec['germ']}", file=out)
    _print_table(out, sep, ("t", "psi", "psibar"),
                 zip(rec["ts"], rec["psi"], rec["psibar"]))
    return EXIT_OK


def _fit_record(fit) -> dict:
    return {
        "exponent": fit.exponent if math.isfinite(fit.exponent) else None,
        "sign": fit.sign,
        "r2": fit.r2,
        "samples_used": fit.samples_used,
        "all_below_floor": fit.all_below_floor,
    }


def _fit_text(fit: dict) -> str:
    if fit["all_below_floor"]:
        return "all samples below floor"
    exp = "n/a" if fit["exponent"] is None else repr(fit["exponent"])
    return (f"fit exponent={exp} sign={fit['sign']:+d} r2={fit['r2']!r} "
            f"n={fit['samples_used']}")


def _prediction_text(pred: dict) -> str:
    if pred["sign"] == 0:
        return "identically 0"
    return f"sign={pred['sign']:+d} alpha={pred['alpha']!r}"


def cmd_crosscheck(args, out) -> int:
    from .oracle import crosscheck
    f = parse_poly(args.germ)
    analysis = analyze_germ(f, _config(args))
    report = crosscheck(f, analysis, tmin=args.tmin, tmax=args.tmax,
                        ladder=args.ladder, grid=args.grid, floor=args.floor)
    if args.format == "csv":
        _print_table(out, ",", ("t", "psi", "psibar", "path_id", "theta",
                                "f_value"), report.csv_rows())
        return EXIT_OK if report.passed else EXIT_CROSSCHECK
    rec = {
        "germ": f.to_string(),
        "passed": report.passed,
        "branch_count": report.branch_count,
        "path_count": report.path_count,
        "path_tmin": report.path_tmin,
        "floor": report.floor,
        "predicted_psi": dict(zip(("sign", "alpha"), report.predicted_psi)),
        "predicted_psibar": dict(zip(("sign", "alpha"),
                                     report.predicted_psibar)),
        "fit_psi": _fit_record(report.fit_psi),
        "fit_psibar": _fit_record(report.fit_psibar),
        "failures": list(report.failures),
    }
    if args.format == "json":
        _emit_json(out, rec)
    else:
        print(_header(args), file=out)
        print(f"germ: {rec['germ']}", file=out)
        print(f"half-branches: {rec['branch_count']}", file=out)
        tracked = f"paths tracked: {rec['path_count']}"
        if rec["path_tmin"] is not None:
            tracked += f" (down to t={rec['path_tmin']!r})"
        print(tracked, file=out)
        print(f"floor: {rec['floor']!r}", file=out)
        for name in ("psi", "psibar"):
            print(f"{name + ':':8}predicted "
                  f"{_prediction_text(rec['predicted_' + name])}; "
                  f"{_fit_text(rec['fit_' + name])}", file=out)
        for msg in rec["failures"]:
            print(f"FAIL: {msg}", file=out)
        print(f"result: {'PASS' if rec['passed'] else 'FAIL'}", file=out)
    return EXIT_OK if rec["passed"] else EXIT_CROSSCHECK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    bad = _flag_error(args)
    if bad is not None:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_INPUT
    out = io.StringIO()
    try:
        code = args.func(args, out)
        sys.stdout.write(out.getvalue())
        return code
    except (ParseError, CoefficientRangeError, NonVanishingGermError,
            UnitGermError, ZeroInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PathCountUnstableError as exc:
        print(f"crosscheck failed: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001
        limit = sys.get_int_max_str_digits()
        if (isinstance(exc, ValueError)
                and f"Exceeds the limit ({limit} digits)" in str(exc)):
            # a computed integer too long to print in decimal
            print(f"resource limit: a number to print has more than {limit} "
                  "digits, the interpreter's limit on integer string "
                  "conversion (PYTHONINTMAXSTRDIGITS)", file=sys.stderr)
            return EXIT_RESOURCE
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

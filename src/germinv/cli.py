"""Command line interface.

Subcommands:
  inv EXPR           exact invariant pair of one germ
  compare F G        necessary-condition verdict for a pair of germs
  branches EXPR      tangency half-branches with their sign classes
  psi EXPR           numeric circle-extrema ladder
  crosscheck EXPR    numeric validation of the exact analysis

Exit codes: 0 success (and "possible" for compare), 1 equivalence excluded,
2 bad input, 3 certified symbolic resource limit, 4 crosscheck failure or
unstable path tracking, 70 unexpected internal error.

Output is deterministic byte for byte for a given invocation: floats are
printed with repr (shortest round-trip form), exact rationals as n or n/d,
and all orderings are fixed by the analysis itself.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import (NonVanishingGermError, ParseError,
                     PathCountUnstableError, ResourceError, UnitGermError,
                     ZeroInputError)
from .invariant import analyze_germ, equivalent_possible
from .parsing import parse_poly
from .tangency import ExpansionConfig

EXIT_OK = 0
EXIT_EXCLUDED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CROSSCHECK = 4
EXIT_INTERNAL = 70


def _add_symbolic_flags(p):
    p.add_argument("--order", type=int, default=12,
                   help="series truncation order of the expanded branches "
                        "(default 12)")
    p.add_argument("--max-bits", type=int, default=256, dest="max_bits",
                   help="interval refinement budget for algebraic signs "
                        "(default 256)")


def _add_numeric_flags(p):
    p.add_argument("--tmin", type=float, default=1e-4,
                   help="smallest circle radius (default 1e-4)")
    p.add_argument("--tmax", type=float, default=1e-1,
                   help="largest circle radius (default 0.1)")
    p.add_argument("--ladder", type=int, default=40,
                   help="number of radii, geometric (default 40)")
    p.add_argument("--grid", type=int, default=4096,
                   help="angle grid size per circle (default 4096)")


def _add_format_flag(p, choices):
    p.add_argument("--format", choices=choices, default="text",
                   help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="germinv",
        description="Contact-invariant analysis of plane polynomial germs "
                    "f(x, y) vanishing at the origin.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inv", help="invariant pair of one germ")
    p.add_argument("germ", help="polynomial in x, y, e.g. 'x^3 + y^6'")
    _add_symbolic_flags(p)
    _add_format_flag(p, ("text", "json"))
    p.set_defaults(func=cmd_inv)

    p = sub.add_parser("compare",
                       help="can two germs be contact equivalent?")
    p.add_argument("f", help="first germ")
    p.add_argument("g", help="second germ")
    _add_symbolic_flags(p)
    _add_format_flag(p, ("text", "json"))
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("branches",
                       help="tangency half-branches and sign classes")
    p.add_argument("germ")
    _add_symbolic_flags(p)
    _add_format_flag(p, ("text", "json"))
    p.set_defaults(func=cmd_branches)

    p = sub.add_parser("psi", help="min/max of f on small circles (numeric)")
    p.add_argument("germ")
    _add_numeric_flags(p)
    _add_format_flag(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("crosscheck",
                       help="validate the exact analysis numerically")
    p.add_argument("germ")
    _add_symbolic_flags(p)
    _add_numeric_flags(p)
    p.add_argument("--floor", type=float, default=None,
                   help="noise floor; default 1e-14 * max(1, coeff norm)")
    _add_format_flag(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_crosscheck)
    return ap


def _flag_error(args) -> str | None:
    if hasattr(args, "order") and args.order < 1:
        return "need --order >= 1"
    if hasattr(args, "tmin"):
        if not 0.0 < args.tmin < args.tmax:
            return "need 0 < --tmin < --tmax"
        if args.ladder < 2:
            return "--ladder must be at least 2"
        if args.grid < 16:
            return "--grid must be at least 16"
    return None


def _config(args) -> ExpansionConfig:
    return ExpansionConfig(order=args.order, max_bits=args.max_bits)


def _header(args, extra: str = "") -> str:
    parts = [f"# germinv {args.command}"]
    if hasattr(args, "order"):
        parts.append(f"order={args.order} max-bits={args.max_bits}")
    if hasattr(args, "tmin"):
        parts.append(f"tmin={args.tmin!r} tmax={args.tmax!r} "
                     f"ladder={args.ladder} grid={args.grid}")
    if extra:
        parts.append(extra)
    return "  ".join(parts)


def _alphas_text(alphas) -> str:
    return ", ".join(str(a) for a in alphas) if alphas else "none"


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


def _print_classification(out, analysis) -> None:
    cls = analysis.classification
    v = analysis.invariant
    print(f"half-branches: {len(analysis.restrictions)}", file=out)
    print(f"K0 count: {cls.K0_count}", file=out)
    print(f"K- alphas: {_alphas_text(cls.Kminus_alphas)}", file=out)
    print(f"K+ alphas: {_alphas_text(cls.Kplus_alphas)}", file=out)
    print(f"Inv = ({v.lo}, {v.hi})", file=out)


def cmd_inv(args, out) -> int:
    f = parse_poly(args.germ)
    analysis = analyze_germ(f, _config(args))
    text = f.to_string()
    if args.format == "json":
        _emit_json(out, _germ_record(text, analysis))
        return EXIT_OK
    print(_header(args), file=out)
    print(f"germ: {text}", file=out)
    _print_classification(out, analysis)
    return EXIT_OK


def cmd_compare(args, out) -> int:
    f = parse_poly(args.f)
    g = parse_poly(args.g)
    config = _config(args)
    af = analyze_germ(f, config)
    ag = analyze_germ(g, config)
    verdict = equivalent_possible(af.invariant, ag.invariant)
    if args.format == "json":
        _emit_json(out, {
            "f": _germ_record(f.to_string(), af),
            "g": _germ_record(g.to_string(), ag),
            "verdict": verdict,
        })
    else:
        print(_header(args), file=out)
        print(f"f: {f.to_string()}", file=out)
        print(f"Inv(f) = ({af.invariant.lo}, {af.invariant.hi})", file=out)
        print(f"g: {g.to_string()}", file=out)
        print(f"Inv(g) = ({ag.invariant.lo}, {ag.invariant.hi})", file=out)
        print(f"verdict: {verdict}", file=out)
    return EXIT_OK if verdict == "possible" else EXIT_EXCLUDED


def cmd_branches(args, out) -> int:
    f = parse_poly(args.germ)
    analysis = analyze_germ(f, _config(args))
    if args.format == "json":
        rows = []
        for r in analysis.restrictions:
            b = r.branch
            rows.append({
                "chart": b.chart,
                "sigma": b.sigma,
                "e": b.e,
                "x": b.x.to_string(),
                "y": b.y.to_string(),
                "kind": r.kind,
                "alpha": None if r.alpha is None else str(r.alpha),
            })
        _emit_json(out, {"germ": f.to_string(), "branches": rows})
        return EXIT_OK
    print(_header(args), file=out)
    print(f"germ: {f.to_string()}", file=out)
    print(f"half-branches: {len(analysis.restrictions)}", file=out)
    for k, r in enumerate(analysis.restrictions):
        b = r.branch
        alpha = "-" if r.alpha is None else str(r.alpha)
        print(f"[{k}] {b.chart} sigma={b.sigma:+d} e={b.e} {r.kind} "
              f"alpha={alpha} | x = {b.x.to_string()} | y = {b.y.to_string()}",
              file=out)
    return EXIT_OK


def _ladder(args):
    import numpy as np
    return [float(t) for t in np.geomspace(args.tmin, args.tmax, args.ladder)]


def cmd_psi(args, out) -> int:
    from .oracle import ladder_extrema
    f = parse_poly(args.germ)
    ts = _ladder(args)
    extrema = ladder_extrema(f, ts, args.grid)
    if args.format == "json":
        _emit_json(out, {
            "germ": f.to_string(),
            "ts": ts,
            "psi": [e.fmin for e in extrema],
            "psibar": [e.fmax for e in extrema],
        })
    elif args.format == "csv":
        out.write("t,psi,psibar\n")
        for e in extrema:
            out.write(f"{e.t!r},{e.fmin!r},{e.fmax!r}\n")
    else:
        print(_header(args), file=out)
        print(f"germ: {f.to_string()}", file=out)
        print("t  psi  psibar", file=out)
        for e in extrema:
            print(f"{e.t!r}  {e.fmin!r}  {e.fmax!r}", file=out)
    return EXIT_OK


def _fit_record(fit) -> dict:
    exponent = fit.exponent if math.isfinite(fit.exponent) else None
    return {
        "exponent": exponent,
        "sign": fit.sign,
        "r2": fit.r2,
        "samples_used": fit.samples_used,
        "all_below_floor": fit.all_below_floor,
    }


def _prediction_record(pred) -> dict:
    return {"sign": pred[0], "alpha": pred[1]}


def _fit_text(fit) -> str:
    if fit.all_below_floor:
        return "all samples below floor"
    exp = f"{fit.exponent!r}" if math.isfinite(fit.exponent) else "n/a"
    return (f"fit exponent={exp} sign={fit.sign:+d} r2={fit.r2!r} "
            f"n={fit.samples_used}")


def _prediction_text(pred) -> str:
    if pred[0] == 0:
        return "identically 0"
    return f"sign={pred[0]:+d} alpha={pred[1]!r}"


def cmd_crosscheck(args, out) -> int:
    from .oracle import crosscheck
    f = parse_poly(args.germ)
    analysis = analyze_germ(f, _config(args))
    report = crosscheck(f, analysis, tmin=args.tmin, tmax=args.tmax,
                        ladder=args.ladder, grid=args.grid, floor=args.floor)
    if args.format == "json":
        _emit_json(out, {
            "germ": f.to_string(),
            "passed": report.passed,
            "branch_count": report.branch_count,
            "path_count": report.path_count,
            "path_tmin": report.path_tmin,
            "floor": report.floor,
            "predicted_psi": _prediction_record(report.predicted_psi),
            "predicted_psibar": _prediction_record(report.predicted_psibar),
            "fit_psi": _fit_record(report.fit_psi),
            "fit_psibar": _fit_record(report.fit_psibar),
            "failures": list(report.failures),
        })
    elif args.format == "csv":
        out.write("t,psi,psibar,path_id,theta,f_value\n")
        for t, psi, psibar, pid, theta, fv in report.csv_rows():
            out.write(f"{t!r},{psi!r},{psibar!r},{pid},{theta!r},{fv!r}\n")
    else:
        floor_flag = "auto" if args.floor is None else repr(args.floor)
        print(_header(args, f"floor={floor_flag}"), file=out)
        print(f"germ: {f.to_string()}", file=out)
        print(f"half-branches: {report.branch_count}", file=out)
        tracked = f"paths tracked: {report.path_count}"
        if report.path_tmin is not None:
            tracked += f" (down to t={report.path_tmin!r})"
        print(tracked, file=out)
        print(f"floor: {report.floor!r}", file=out)
        print(f"psi:    predicted {_prediction_text(report.predicted_psi)}; "
              f"{_fit_text(report.fit_psi)}", file=out)
        print(f"psibar: predicted {_prediction_text(report.predicted_psibar)};"
              f" {_fit_text(report.fit_psibar)}", file=out)
        for msg in report.failures:
            print(f"FAIL: {msg}", file=out)
        print(f"result: {'PASS' if report.passed else 'FAIL'}", file=out)
    return EXIT_OK if report.passed else EXIT_CROSSCHECK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    bad = _flag_error(args)
    if bad is not None:
        print(f"error: {bad}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args, sys.stdout)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NonVanishingGermError, UnitGermError, ZeroInputError) as exc:
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
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

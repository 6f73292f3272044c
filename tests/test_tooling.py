"""Source checks that hold for the package as a whole."""

import ast
import importlib
import os
import shlex
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


def test_package_does_not_import_sympy():
    # sympy is a test dependency; importing it would triple the memory and
    # the start-up time of every run
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n.split(".")[0] == "sympy"]
    assert found == []


def test_no_generic_polynomial_arithmetic():
    # a univariate polynomial is a coefficient list, of integers or, over
    # Q(c), of integer vectors: no class wraps it, and no Sturm chain, gcd
    # or inverse runs generic arithmetic on Fractions or field elements
    gone = ("UniPoly", "_egcd", "sturm_sequence", "squarefree_sturm",
            "count_all_real_roots")
    assert [(p.name, name) for p in sorted(SRC.glob("*.py"))
            for name in gone if name in p.read_text()] == []


def _calls(path: Path, names: set, callees=frozenset({"Fraction"})
           ) -> list[str]:
    """The functions among ``names`` in the module that call one of
    ``callees``, by its name or as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(f.name for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name in names
                  and any(isinstance(n, ast.Call)
                          and getattr(n.func, "id", getattr(n.func, "attr",
                                                            None)) in callees
                          for n in ast.walk(f)))


def test_curve_layer_makes_no_fractions():
    # the tangency curve, its gcds and its square-free part run on the
    # integer form of BivarPoly: no Fraction is made there to be taken apart
    # again
    names = {"gcd_cofactors", "squarefree_part", "_integer_primitive",
             "_from_integers", "_signed"}
    assert _calls(SRC / "bivar.py", names) == []
    assert _calls(SRC / "tangency.py", {"tangency_poly"}) == []
    # the check sees a call where there is one
    assert _calls(SRC / "bivar.py", {"coeff"}) == ["coeff"]


def test_q_c_polynomials_hold_integer_vectors():
    # a polynomial over Q(c) holds integer vectors over one denominator,
    # which its field's context reduces: the bivariate layer imports nothing
    # from numberfield, no helper tells two kinds of term map apart, and
    # neither the substitution nor the methods that build a polynomial's
    # form make a Fraction or an element of Q(c)
    tree = ast.parse((SRC / "bivar.py").read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)]
    assert not [m for m in modules if "numberfield" in m]
    assert not [p.name for p in SRC.glob("*.py")
                if "integer_vectors" in p.read_text()]
    makers = {"Fraction", "FieldElement", "element_from_integers"}
    built = {"__new__", "_of", "from_integers", "from_vectors", "_held",
             "__neg__", "swap_vars", "shift_down", "reflect", "truncate"}
    assert _calls(SRC / "bivar.py", built, makers) == []
    assert _calls(SRC / "puiseux.py", {"_transform"}, makers) == []
    # an edge polynomial holds p's vectors, and the edge roots over Q(c)
    # and the inverse run on integers
    assert _calls(SRC / "puiseux.py", {"newton_polygon"}, makers) == []
    assert _calls(SRC / "puiseux.py", {"_edge_roots"}) == []
    assert _calls(SRC / "numberfield.py", {"invert"}) == []
    # the check sees a call where there is one
    assert _calls(SRC / "bivar.py", {"coeff"}, makers) == ["coeff"]


def test_real_root_layer_keeps_integer_cells():
    # an isolating interval is integers over one denominator, and the
    # bisection and the interval Horner run on it with no Fraction; the
    # roots come out of the bisection in order, with no sort; a number
    # holds its defining polynomial as an integer form, isolation hands its
    # form on, and a field certifies its modulus on it
    names = {"refine_step", "is_root_of", "_interval_horner",
             "_sturm_isolate", "isolate_real_roots", "_of_cell", "_define"}
    assert _calls(SRC / "unipoly.py", names) == []
    assert _calls(SRC / "numberfield.py", {"_define"}) == []
    # no caller vouches for a modulus: it has no rational root by
    # construction
    assert not [p.name for p in SRC.glob("*.py")
                if "rational_root_free" in p.read_text()]
    tree = ast.parse((SRC / "unipoly.py").read_text())
    (isolate,) = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  and f.name == "isolate_real_roots"]
    sorts = [n for n in ast.walk(isolate) if isinstance(n, ast.Call)
             and (isinstance(n.func, ast.Attribute) and n.func.attr == "sort"
                  or isinstance(n.func, ast.Name) and n.func.id == "sorted")]
    assert sorts == []


def _functions():
    """(``module.function`` or ``module.Class.method``, node) for each
    function of the package."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = [(f"{path.stem}.{c.name}.", c.body) for c in tree.body
                  if isinstance(c, ast.ClassDef)] + [(f"{path.stem}.",
                                                      tree.body)]
        for prefix, body in owners:
            yield from ((prefix + f.name, f) for f in body
                        if isinstance(f, ast.FunctionDef))


def _callers(callees: set) -> list[str]:
    """The functions of the package (see ``_functions``) that call one of
    ``callees``, by its name or as an attribute."""
    return sorted(name for name, f in _functions()
                  if any(isinstance(n, ast.Call)
                         and getattr(n.func, "id", getattr(n.func, "attr",
                                                           None)) in callees
                         for n in ast.walk(f)))


def test_real_algebraic_numbers_have_one_maker():
    # isolation makes every real algebraic number and opens every Q(c) on
    # one: no constructor takes a polynomial and an interval, no caller
    # names the classes, and no uncertified float reads the cell's midpoint
    from germinv.numberfield import FieldContext
    from germinv.unipoly import AlgebraicReal
    for cls in (AlgebraicReal, FieldContext):
        assert not {"__init__", "__float__", "midpoint"} & set(vars(cls))
    assert _callers({"_of_cell"}) == ["numberfield.FieldContext.of_root",
                                      "unipoly.isolate_real_roots"]
    assert _callers({"AlgebraicReal", "FieldContext"}) == []
    # the check sees a call where there is one
    assert "unipoly.isolate_real_roots" in _callers({"_sturm_isolate"})


def test_polynomials_and_series_have_one_printer():
    # one formatter prints every polynomial and series: one rule leaves off
    # a coefficient that prints as 1 or -1, and one loop joins the signs
    assert _callers({"signed_sum"}) == ["bivar.BivarPoly.to_string",
                                        "puiseux.PuiseuxSeries.to_string",
                                        "unipoly.poly_string"]
    joins = sorted(name for name, f in _functions() for n in ast.walk(f)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and (n.value in (" + ", " - ") or "+ -" in n.value))
    assert set(joins) == {"unipoly.signed_sum"}


def _resolves(target: str) -> bool:
    """Is ``module.attr`` or ``module.Class.attr`` defined, the attribute in
    the module's or the class's own namespace, where the tracer patches it?"""
    path, attr = target.rsplit(".", 1)
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            owner = getattr(owner, part, None)
        return attr in getattr(owner, "__dict__", {})
    return False


def test_benchmark_layer_targets_resolve():
    # the benchmark traces each layer by its dotted name; a renamed or
    # deleted function would only print an "absent:" line there
    tree = ast.parse((SRC.parents[1] / "perfbench" / "run.py").read_text())
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)]
        == ["LAYER_TARGETS"])
    assert targets
    assert [t for t, _ in targets if not _resolves(t)] == []


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


def _readme_block(heading: str, lang: str) -> list[str]:
    """The lines of the first ```lang block in README's section ``heading``."""
    text = (SRC.parents[1] / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_library_example_runs():
    # each ``expr  # value`` line of the example shows repr(expr)
    namespace: dict = {}
    checked = 0
    for line in _readme_block("Library", "python"):
        code, _, comment = line.partition("  #")
        node = ast.parse(code.strip() or "pass").body[0]
        if isinstance(node, ast.Expr) and comment:
            assert repr(eval(code, namespace)) == comment.strip(), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3


def test_readme_cli_examples_run(capsys):
    # every command of the CLI section, with no error output: exit 0, or 1
    # for compare's excluded verdict
    from germinv import cli
    commands = [shlex.split(line, comments=True)
                for line in _readme_block("CLI", "sh")]
    assert len(commands) >= 5
    for argv in commands:
        assert argv[0] == "germinv", argv
        code = cli.main(argv[1:])
        out, err = capsys.readouterr()
        assert err == "" and out, argv
        excluded = argv[1] == "compare" and "excluded" in out
        assert code == (1 if excluded else 0), argv

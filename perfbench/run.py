"""Seeded benchmark of germinv's exact pipeline and float oracle.

Usage, from the repository root:

    python3 perfbench/run.py --workload random --seed 1 --seconds 30 --trace 0

Workloads: random, sheared and oracle (see perfbench/LAYERS.md). Each is a
closed loop with one client in one process and no threads: the next germ
starts only after the previous one has finished. The runner
runs whole passes over the workload's corpus until ``--seconds`` is about
used up.

With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
wraps the layer functions, reports per-layer self times and counts, and
checks that the traced answers equal the untraced ones. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Only the standard library is used,
and nothing under src/ is modified.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import corpus as C  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
PROBE_REPEATS = 21       # the median then has ten samples on each side
CHILD_TIMEOUT_S = 120

# layer function as the pipeline calls it -> per-layer metric base name
LAYER_TARGETS = [
    ("germinv.invariant.restrict", "tangency.restrict"),
    ("germinv.tangency.squarefree_part", "bivar.squarefree_part"),
    ("germinv.bivar.gcd_bivar", "bivar.gcd_bivar"),
    ("germinv.tangency.gcd_bivar", "bivar.gcd_bivar"),
    ("germinv.tangency.expand_branches", "puiseux.expand_branches"),
    ("germinv.puiseux.isolate_real_roots", "unipoly.isolate_real_roots"),
    ("germinv.tangency.certify_zero_branch", "tangency.certify_zero_branch"),
    ("germinv.puiseux.HalfBranch.extend", "puiseux.extend"),
    ("germinv.tangency.substitute", "puiseux.substitute"),
    ("germinv.numberfield.FieldElement.sign", "numberfield.sign"),
    ("germinv.oracle.sphere_extrema", "oracle.sphere_extrema"),
    ("germinv.oracle.critical_paths", "oracle.critical_paths"),
    ("germinv.oracle.estimate_exponent", "oracle.estimate_exponent"),
    ("germinv.oracle.compile_poly", "oracle.compile_poly"),
]
# per-layer metric -> (span, statistic); statistics are per corpus pass
LAYER_METRICS = [
    ("parsing.parse_poly.s", "parsing.parse_poly", "self"),
    ("parsing.parse_poly.calls", "parsing.parse_poly", "calls"),
    ("bivar.squarefree_part.s", "bivar.squarefree_part", "self"),
    ("bivar.squarefree_part.calls", "bivar.squarefree_part", "calls"),
    ("bivar.gcd_bivar.s", "bivar.gcd_bivar", "self"),
    ("bivar.gcd_bivar.calls", "bivar.gcd_bivar", "calls"),
    ("puiseux.expand_branches.s", "puiseux.expand_branches", "self"),
    ("puiseux.expand_branches.calls", "puiseux.expand_branches", "calls"),
    ("unipoly.isolate_real_roots.s", "unipoly.isolate_real_roots", "self"),
    ("unipoly.isolate_real_roots.calls", "unipoly.isolate_real_roots",
     "calls"),
    ("tangency.restrict.s", "tangency.restrict", "self"),
    ("tangency.restrict.calls", "tangency.restrict", "calls"),
    ("tangency.certify_zero_branch.calls", "tangency.certify_zero_branch",
     "calls"),
    ("puiseux.extend.s", "puiseux.extend", "self"),
    ("puiseux.extend.calls", "puiseux.extend", "calls"),
    ("puiseux.substitute.s", "puiseux.substitute", "self"),
    ("puiseux.substitute.calls", "puiseux.substitute", "calls"),
    ("numberfield.sign.s", "numberfield.sign", "self"),
    ("numberfield.sign.calls", "numberfield.sign", "calls"),
    ("invariant.analyze_germ.s", "invariant.analyze_germ", "total"),
    ("oracle.sphere_extrema.s", "oracle.sphere_extrema", "self"),
    ("oracle.sphere_extrema.calls", "oracle.sphere_extrema", "calls"),
    ("oracle.critical_paths.s", "oracle.critical_paths", "self"),
    ("oracle.critical_paths.calls", "oracle.critical_paths", "calls"),
    ("oracle.estimate_exponent.s", "oracle.estimate_exponent", "self"),
    ("oracle.compile_poly.calls", "oracle.compile_poly", "calls"),
]
UNITS = {"self": "s", "total": "s", "calls": "count"}
# crosscheck's failure when it tracks fewer critical paths than there are
# half-branches: the signature of the known oracle defect
MISSED_PATHS = re.compile(r"path count (\d+) != (\d+) half-branches")


class OpError:
    """An operation that raised instead of answering."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and self.text == other.text


# -- workloads ------------------------------------------------------------------

class Workload:
    """A fixed corpus of operations and the checks on their answers.

    ``texts`` holds the inputs the program receives; ``check`` returns, per
    operation, None when the answer is right, or (message, wrong). Every
    failure is wrong, and sets ``"correct": false``, except the known oracle
    defect on the draws listed in corpus.ORACLE_DEFECT_DRAWS, which is
    counted and listed only.
    """

    unit_name = "germ"
    rate_name = "germs_per_s"

    def __init__(self, seed: int, tiny: bool):
        self.rng = random.Random(seed)
        self.texts: list[str] = []

    def symmetric(self, p: dict, inv):
        """p under a seeded symmetry, with its expected Inv (None: unknown)."""
        code = self.rng.randrange(C.SYMMETRIES)
        if inv is not None and C.flips_sign(code):
            inv = C.negate_pair(inv)
        return C.symmetry(p, code), inv

    def setup(self, germinv, tracer):
        self.germinv = germinv
        parse = germinv.parse_poly
        self.polys = [parse(t) if tracer is None
                      else tracer.call("parsing.parse_poly", parse, t)
                      for t in self.texts]


class ExactWorkload(Workload):
    """analyze_germ on each germ; the answer is its invariant pair."""

    def run(self, k: int):
        try:
            a = self.germinv.analyze_germ(self.polys[k])
        except self.germinv.GermInvError as exc:
            return OpError(exc)
        return a

    @staticmethod
    def answer(res):
        if isinstance(res, OpError):
            return res
        return (res.invariant.lo, res.invariant.hi)

    def check(self, results):
        out = []
        for k, res in enumerate(results):
            got = self.answer(res)
            if isinstance(got, OpError):
                out.append((got.text, True))
                continue
            want = self.expected[k]
            if want is None:  # random draw: Inv(rotated f) must equal Inv(f)
                twin = self.answer(results[k ^ 1])
                # a twin that raised is itself reported as wrong
                want = None if isinstance(twin, OpError) else twin
            if want is not None and got != tuple(want):
                out.append((f"Inv = {_pair(got)}, expected {_pair(want)}",
                            True))
            else:
                out.append(None)
        return out


class RandomWorkload(ExactWorkload):
    """Reference germs and random_germ draws, each plain and rotated.

    Germs 2i and 2i+1 are f and its rotation, under the same symmetry.
    """

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        bases = [(C.from_terms(t), inv) for t, inv in C.REFERENCE_GERMS]
        bases += [(p, None) for p in C.random_draws(4 if tiny else 72)]
        self.expected = []
        for p, inv in bases:
            g, inv = self.symmetric(p, inv)
            self.texts += [C.to_text(g),
                           C.to_text(C.compose_linear(g, C.ROTATION))]
            self.expected += [inv, inv]


class ShearedWorkload(ExactWorkload):
    """Shears of germs whose unsheared twin is cheap, with the twin's Inv."""

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        germs = []
        for n, inv in C.SHEAR_FAMILY:
            germs.append((C.shear(C.from_terms([(n, 0, 1), (0, n + 1, 1)]), 1),
                          inv))
        dc = C.from_terms(C.REFERENCE_GERMS[1][0])
        germs.append((C.compose_linear(dc, C.ROTATION), C.REFERENCE_GERMS[1][1]))
        for _, terms, inv in C.SHEAR_TEMPLATES:
            for a in C.SHEARS:
                germs.append((C.shear(C.from_terms(terms), a), inv))
        if tiny:
            germs = germs[:1] + germs[-4:]
        self.expected = []
        for p, inv in germs:
            g, inv = self.symmetric(p, inv)
            self.texts.append(C.to_text(g))
            self.expected.append(inv)


class OracleWorkload(Workload):
    """crosscheck on reference germs, their rotations and random draws.

    The exact analyses are made during set-up, and every crosscheck must
    pass, with one exception. On the draws in corpus.ORACLE_DEFECT_DRAWS a
    report whose only failures are missed critical paths is the known
    oracle defect, counted and listed but not a wrong answer: the oracle
    brackets only sign changes of h and misses tangency branches along
    which h has a zero of even multiplicity (e.g. x^5*y, where
    h = x^4(5y^2 - x^2)). Any other failure, on any germ, is wrong.
    """

    unit_name = "crosscheck"
    rate_name = "crosschecks_per_s"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        refs = [(C.from_terms(t), inv) for t, inv in C.REFERENCE_GERMS]
        bases = refs + [(C.compose_linear(p, C.ROTATION), inv)
                        for p, inv in refs]
        bases = [(p, inv, False) for p, inv in bases]
        bases += [(p, None, d in C.ORACLE_DEFECT_DRAWS)
                  for d, p in enumerate(C.random_draws(8))]
        if tiny:
            bases = bases[:1] + bases[-2:]
        self.expected = []
        self.defect = []
        for p, inv, defect in bases:
            g, inv = self.symmetric(p, inv)
            self.texts.append(C.to_text(g))
            self.expected.append(inv)
            self.defect.append(defect)

    def setup(self, germinv, tracer):
        super().setup(germinv, tracer)
        self.analyses = []
        for f in self.polys:
            try:
                self.analyses.append(
                    germinv.analyze_germ(f) if tracer is None else
                    tracer.call("invariant.analyze_germ",
                                germinv.analyze_germ, f))
            except germinv.GermInvError as exc:
                self.analyses.append(OpError(exc))
            else:
                if tracer is not None:
                    count_analysis(tracer, self.analyses[-1])

    def run(self, k: int):
        if isinstance(self.analyses[k], OpError):
            return self.analyses[k]
        try:
            return self.germinv.crosscheck(self.polys[k], self.analyses[k])
        except self.germinv.GermInvError as exc:
            return OpError(exc)

    @staticmethod
    def answer(res):
        if isinstance(res, OpError):
            return res
        return (res.passed, res.path_count, tuple(res.failures))

    def check(self, results):
        out = []
        for k, res in enumerate(results):
            if isinstance(res, OpError):   # the analysis or crosscheck raised
                out.append((res.text, True))
                continue
            want = self.expected[k]
            a = self.analyses[k]
            got = (a.invariant.lo, a.invariant.hi)
            if want is not None and got != tuple(want):
                out.append((f"Inv = {_pair(got)}, expected {_pair(want)}",
                            True))
            elif res.failures:
                known = self.defect[k] and all(map(missed_paths, res.failures))
                out.append(("; ".join(res.failures), not known))
            else:
                out.append(None)
        return out


def missed_paths(failure: str) -> bool:
    """Whether a crosscheck failure reports fewer paths than half-branches."""
    m = MISSED_PATHS.fullmatch(failure)
    return m is not None and int(m[1]) < int(m[2])


WORKLOADS = {"random": RandomWorkload, "sheared": ShearedWorkload,
             "oracle": OracleWorkload}


def _pair(p) -> str:
    return f"({p[0]}, {p[1]})"


# -- measurement ------------------------------------------------------------------

class Tally:
    """Operation counts and the failures seen, across passes."""

    def __init__(self, w: Workload):
        self.w = w
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.failures: dict[str, str] = {}   # input -> first failure message

    def add(self, results) -> None:
        for k, verdict in enumerate(self.w.check(results)):
            self.attempted += 1
            if verdict is None:
                continue
            msg, wrong = verdict
            self.failed += 1
            self.wrong |= wrong
            self.failures.setdefault(self.w.texts[k], msg)


def one_pass(w: Workload, times: list[float] | None = None,
             tracer: Tracer | None = None):
    results = [None] * len(w.texts)
    for k in range(len(w.texts)):
        if tracer is not None:
            tracer.germ = k
        t0 = time.perf_counter()
        if tracer is not None and isinstance(w, ExactWorkload):
            res = tracer.call("invariant.analyze_germ", w.run, k)
        else:
            res = w.run(k)
        dt = time.perf_counter() - t0
        if times is not None:
            times.append(dt)
        results[k] = res
    return results


def passes_until(seconds: float, run_pass) -> int:
    """Call run_pass() for whole passes until less than half a pass of the
    budget is left; returns the number of passes."""
    start = time.perf_counter()
    n = 0
    while True:
        t0 = time.perf_counter()
        run_pass()
        n += 1
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last / 2 >= seconds:
            return n


def percentile(sorted_vals: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, the weight of the i-th being
    the Beta(p(n+1), (1-p)(n+1)) mass on [(i-1)/n, i/n]. Where samples are
    sparse, as between the cheap plain germs and the dearer rotated ones,
    the sample at one rank jumps with the timing jitter of a single call;
    the weighted mean does not.
    """
    n = len(sorted_vals)
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8   # midpoint rule on each [(i-1)/n, i/n]
    h = 1 / (n * steps)
    total = weight = 0.0
    for i, v in enumerate(sorted_vals):
        w = 0.0
        for k in range(steps):
            x = i / n + (k + 0.5) * h
            w += math.exp(log_norm + (a - 1) * math.log(x)
                          + (b - 1) * math.log1p(-x))
        total += w * v
        weight += w
    return total / weight


def tail_percentile(n: int) -> int:
    """The highest of p90, p75, p50 with at least ten samples beyond it."""
    for p in (90, 75, 50):
        if n - -(-n * p // 100) >= 10:
            return p
    return 50


def timed_setup_children(workload: str, seed: int, tiny: bool) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S)
        out.append(time.perf_counter() - t0)
    return out


def cli_probe_ms(repeats: int) -> tuple[float, float]:
    """Median wall ms of a bare interpreter and of importing germinv.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    bare, imp = [], []
    for _ in range(repeats):
        for code, acc in (("pass", bare), ("import germinv.cli", imp)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, timeout=CHILD_TIMEOUT_S)
            acc.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(bare), statistics.median(imp)


def load_germinv():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import germinv
    return germinv


def report_failures(tally: Tally) -> None:
    for text, msg in tally.failures.items():
        print(f"failed: {text} -- {msg}")


def measure(w: Workload, args) -> dict:
    """Untraced run: end-to-end metrics."""
    setup = statistics.median(
        timed_setup_children(args.workload, args.seed, args.tiny))
    w.setup(load_germinv(), None)
    times: list[float] = []
    tally = Tally(w)
    passes = passes_until(args.seconds,
                          lambda: tally.add(one_pass(w, times)))
    ru = resource.getrusage(resource.RUSAGE_SELF)
    n = len(times)
    ordered = sorted(times)
    tail = tail_percentile(n)
    noun = w.unit_name
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"inputs {len(w.texts)}  samples {n}  failed {tally.failed} of "
          f"{tally.attempted}")
    lines = [(w.rate_name, n / sum(times), "1/s")]
    lines += [(f"{noun}_ms_p{p}", percentile(ordered, p) * 1e3, "ms")
              for p in sorted({50, tail})]
    for name, value, unit in lines + [
            ("fail_share", tally.failed / tally.attempted, "ratio"),
            ("peak_rss_mb", ru.ru_maxrss / 1024, "MB"),
            ("setup_s", setup, "s")]:
        print(f"{name} {value:.6g} {unit}")
    report_failures(tally)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_ms_p50": (percentile(ordered, 50) * 1e3, "ms"),
        "peak_rss_mb": (ru.ru_maxrss / 1024, "MB"),
    }
    return _result(tally, metrics)


def measure_traced(w: Workload, args) -> dict:
    """Traced run: per-layer metrics, tracing overhead, same answers."""
    germinv = load_germinv()
    tracer = Tracer()
    for target, name in LAYER_TARGETS:
        tracer.wrap(target, name)
    w.setup(germinv, tracer)
    tracer.unwrap_all()

    tally = Tally(w)
    t0 = time.perf_counter()
    reference = one_pass(w)
    untraced_s = [time.perf_counter() - t0]
    tally.add(reference)
    answers = [w.answer(r) for r in reference]
    traced_s: list[float] = []
    mismatch = []

    def alternate_pass():
        """Traced and untraced passes take turns, so that warm-up and
        machine drift stay out of the overhead."""
        if len(traced_s) == len(untraced_s):
            t = time.perf_counter()
            results = one_pass(w)
            untraced_s.append(time.perf_counter() - t)
            tally.add(results)
            mismatch.extend(w.texts[k] for k, res in enumerate(results)
                            if w.answer(res) != answers[k])
            return
        tracer.phase = "pass"
        for target, name in LAYER_TARGETS:
            tracer.wrap(target, name)
        t = time.perf_counter()
        try:
            results = one_pass(w, tracer=tracer)
        finally:
            tracer.unwrap_all()
        traced_s.append(time.perf_counter() - t)
        tally.add(results)
        for k, res in enumerate(results):
            if w.answer(res) != answers[k]:
                mismatch.append(w.texts[k])
            if isinstance(res, OpError):
                continue
            if isinstance(w, ExactWorkload):
                count_analysis(tracer, res)
            elif isinstance(w, OracleWorkload):
                tracer.add("oracle.rungs", len(res.ts))
                tracer.add("oracle.rungs_tracked",
                           len(res.paths[0].thetas) if res.paths else 0)

    passes_until(max(args.seconds - untraced_s[0], 0.0), alternate_pass)
    passes = len(traced_s)
    interp_ms, import_ms = cli_probe_ms(3 if args.tiny else PROBE_REPEATS)

    def per_pass(table, name):
        return table[("setup", name)] + table[("pass", name)] / passes

    metrics = {}
    for metric, span, stat in LAYER_METRICS:
        if span not in tracer.absent:
            table = {"self": tracer.self_s, "total": tracer.total_s,
                     "calls": tracer.calls}[stat]
            metrics[metric] = (per_pass(table, span), UNITS[stat])
    metrics["puiseux.branches"] = (
        per_pass(tracer.counts, "puiseux.branches"), "count")
    metrics["puiseux.ext_branches"] = (
        per_pass(tracer.counts, "puiseux.ext_branches"), "count")
    metrics["tangency.max_truncation"] = (
        tracer.maxima.get("tangency.max_truncation", 0), "order")
    rungs = per_pass(tracer.counts, "oracle.rungs")
    tracked = per_pass(tracer.counts, "oracle.rungs_tracked")
    metrics["oracle.rungs_tracked_share"] = (
        tracked / rungs if rungs else 0.0, "ratio")
    metrics["cli.interp_ms_p50"] = (interp_ms, "ms")
    metrics["cli.import_ms_p50"] = (import_ms, "ms")
    overhead = statistics.mean(traced_s) / statistics.mean(untraced_s) - 1
    metrics["trace.overhead_share"] = (overhead, "ratio")

    print(f"workload {args.workload}  seed {args.seed}  traced passes "
          f"{passes}  inputs {len(w.texts)}  spans {len(tracer.spans)}")
    print(f"untraced pass {statistics.mean(untraced_s):.4f} s, traced pass "
          f"{statistics.mean(traced_s):.4f} s, overhead {overhead:+.2%}")
    if rungs:
        print(f"rungs tracked per pass: {tracked:g} of {rungs:g}")
    for name in sorted(tracer.absent):
        print(f"absent: {name} (no such function in this germinv)")
    for text in dict.fromkeys(mismatch):
        print(f"traced answer differs from untraced: {text}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    report_failures(tally)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir,
                              f"spans-{args.workload}-{args.seed}.jsonl"))
    tally.wrong |= bool(mismatch)
    return _result(tally, metrics)


def count_analysis(tracer: Tracer, analysis) -> None:
    """Branch counts of one GermAnalysis, in the tracer's current phase."""
    for r in analysis.restrictions:
        tracer.add("puiseux.branches", 1)
        tracer.add("puiseux.ext_branches", r.branch.ctx is not None)
        if r.branch.truncation is not None:
            tracer.note_max("tangency.max_truncation", r.branch.truncation)


def _result(tally: Tally, metrics: dict) -> dict:
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run(args) -> dict:
    w = WORKLOADS[args.workload](args.seed, args.tiny)
    if args.trace:
        return measure_traced(w, args)
    return measure(w, args)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few inputs per workload, for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit; the runner times this as setup_s")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "germinv", "__init__.py")):
        print(f"error: no germinv package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.tiny).setup(load_germinv(),
                                                             None)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of arrfree: end-to-end metrics, answer checks and layer spans.

    python3 bench/run.py --workload corpus_exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --reference

Workloads (see workloads.py and predictions.json):
  corpus_exact     analyze --json in exact mode over a fixed corpus of small,
                   staircase, perturbed and Ziegler arrangements
  ziegler_modular  analyze --coeff mod:32003,32009 on the Ziegler pair
  borel_tables     monomial-layer library calls and exponent converters

arrfree is imported from ``src/`` next to this directory and driven only
through ``arrfree.cli.main(argv, out=buffer)`` and library calls, in this
one process with no threads.  Every answer is checked (checks.py);
``bench/make_golden.py`` rewrites the digests checked at the default seed.
With ``--trace 0`` the run measures the end-to-end metrics: set-up and case
times are read on the host clock of hostclock.py, which divides out the
drift of the shared host's speed, and are seconds at a fixed reference
speed; the wall time is printed beside them.  With ``--trace 1``
it runs each pass once untraced and once traced, and reports the per-layer
metrics, each layer's share of case wall time, the tracing overhead and the
predictions of predictions.json.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import hostclock
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
# Tail percentile per workload, fixed here so that the metric means the same
# on both sides of a comparison: the highest one with at least ten samples
# beyond it in a 30-second run, except in borel_tables, whose runs have some
# 650 cases.  There p95 falls where the few costliest ideals of l = 4 and 5
# thin out, and moved by a tenth of its median between seeds with the
# program unchanged; p90, with some 65 samples beyond it, moved by a third
# of that.
TAIL_PERCENTILE = {"corpus_exact": 70, "ziegler_modular": 50, "borel_tables": 90}
UNITS = {"setup_s": "s", "cases_per_s": "1/s", "case_s_p50": "s",
         "case_s_tail": "s", "correct_frac": "frac", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The program could not be imported or failed its warm-up."""


def load_arrfree():
    """Import arrfree afresh from src/, dropping any earlier import."""
    if not (SRC / "arrfree" / "__init__.py").is_file():
        raise SetupError(f"no arrfree package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "arrfree" or m.startswith("arrfree.")]:
        del sys.modules[name]
    arrfree = importlib.import_module("arrfree")
    importlib.import_module("arrfree.cli")
    if not Path(arrfree.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"arrfree was imported from {arrfree.__file__}")
    return arrfree


def arrangement_text(rows) -> str:
    names = checks.var_names(len(rows[0]))
    lines = [f"vars {' '.join(names)}"]
    for row in rows:
        terms = [f"{c}*{v}" for c, v in zip(row, names) if c]
        lines.append("hyperplane " + " + ".join(terms).replace("+ -", "- "))
    return "\n".join(lines) + "\n"


class Runner:
    """Runs one case against the imported program and checks its answer."""

    def __init__(self, arrfree, workdir: Path, committed):
        self.arrfree = arrfree
        self.workdir = workdir
        self.committed = committed          # case id -> digest, or None
        self.api = SimpleNamespace(**{name: getattr(arrfree, name) for name in (
            "sectional_matrix", "betti_eliahou_kervaire", "is_cohen_macaulay",
            "reduction_number", "rgin_from_exponents", "exponents_from_rgin",
            "realizable_as_free")})
        self.paths = {}
        self.closed = {}
        self.ideals = {}
        self.digests = {}
        self.prepared = set()

    def closed_form(self, e) -> tuple:
        return tuple(tuple(g) for g in self.arrfree.rgin_from_exponents(e).generators)

    def prepare(self, case) -> None:
        """Write input files and build inputs and closed forms, untimed."""
        if case.id in self.prepared:
            return
        self.prepared.add(case.id)
        if isinstance(case, workloads.ArrangementCase):
            path = self.workdir / f"{case.id}.arr"
            path.write_text(arrangement_text(case.forms), encoding="utf-8")
            self.paths[case.id] = str(path)
            if case.expect == "exponents":
                self.closed[case.id] = self.closed_form(case.value)
        elif isinstance(case, workloads.BorelCase):
            self.ideals[case.id] = self.arrfree.StronglyStableIdeal(
                case.gens, case.nvars)

    def run(self, case, tracer=None):
        """(start, end) of the case on perf_counter and the problems with
        its answer."""
        self.prepare(case)
        root = "cli.main" if isinstance(case, workloads.ArrangementCase) else "bench.case"
        with tracer.span(root, case.id) if tracer else nullcontext():
            started = perf_counter()
            outcome = self._call(case)
            interval = started, perf_counter()
        committed = None
        if self.committed is not None:
            committed = self.committed.get(case.id, "missing")
        if isinstance(case, workloads.ArrangementCase):
            code, output = outcome
            problems, answer = checks.check_arrangement(
                case, code, output, self.closed.get(case.id), committed)
        elif isinstance(case, workloads.BorelCase):
            problems, answer = checks.check_borel(case, self._plain(outcome), committed)
        else:
            problems, answer = checks.check_lex(case, self._plain(outcome), committed)
        self.digests[case.id] = answer
        return interval, problems

    def _call(self, case):
        api = self.api
        if isinstance(case, workloads.ArrangementCase):
            argv = ["analyze", self.paths[case.id], "--json",
                    "--seed", str(case.gin_seed)]
            if case.coeff != "exact":
                argv += ["--coeff", case.coeff]
            out = io.StringIO()
            return self.arrfree.cli.main(argv, out=out), out.getvalue()
        if isinstance(case, workloads.BorelCase):
            B = self.ideals[case.id]
            top = max(sum(g) for g in case.gens)
            return ("borel", api.sectional_matrix(B, top + 2),
                    api.betti_eliahou_kervaire(B), api.is_cohen_macaulay(B),
                    [api.reduction_number(B, i) for i in range(case.nvars)])
        B = api.rgin_from_exponents(case.exponents)
        back = api.exponents_from_rgin(B)
        return "lex", B, back, api.realizable_as_free(B, verify=False)

    def _plain(self, outcome) -> dict:
        if outcome[0] == "borel":
            _, M, betti, cm, reduction = outcome
            infinite = self.arrfree.monomial.INFINITE
            return {"sectional_matrix": [list(row) for row in M.values],
                    "betti": [dict(betti.beta0), dict(betti.beta1)],
                    "cm": cm,
                    "reduction": [None if r is infinite else r for r in reduction]}
        _, B, back, verdict = outcome
        return {"rgin": tuple(tuple(g) for g in B.generators),
                "exponents": tuple(back),
                "realizable": verdict.realizable,
                "realized": tuple(verdict.exponents) if verdict.exponents else None}


def warm_up(arrfree, workload: str, workdir: Path) -> None:
    """One small case of the workload's kind, so lazy set-up is not timed."""
    runner = Runner(arrfree, workdir, None)
    if workload == "borel_tables":
        cases = [workloads.BorelCase("warmup_borel", 3, ((2, 0, 0), (1, 1, 0), (0, 3, 0))),
                 workloads.LexCase("warmup_lex", (1, 1, 3))]
    else:
        coeff = "exact" if workload == "corpus_exact" else workloads.MODULAR
        cases = [workloads.ArrangementCase("warmup", workloads.FIVE_FREE, 1,
                                           coeff, "exponents", (1, 1, 3))]
    for case in cases:
        _, problems = runner.run(case)
        if problems:
            raise SetupError(f"warm-up case {case.id} failed: {problems}")


def percentile(values, p: float):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_passes(passes, runner, seconds, tally, tracer=None):
    """Whole passes while another one of average length still fits in
    ``seconds`` (at least one); returns ((start, end), answered correctly)
    of every case, pass by pass."""
    times = []
    started = perf_counter()
    while True:
        pass_times = []
        for case in passes[len(times)]:
            interval, problems = runner.run(case, tracer)
            pass_times.append((interval, tally.record(case.id, problems)))
        times.append(pass_times)
        spent = perf_counter() - started
        if spent + spent / len(times) > seconds:
            return times


def run_traced(passes, runner, seconds, tally, tracer):
    """Each pass untraced, then traced: layer spans and tracing overhead."""
    plain, traced = [], []
    started = perf_counter()
    while True:
        one = [passes[len(plain)]]
        plain += run_passes(one, runner, 0, tally)
        with tracer.installed():
            traced += run_passes(one, runner, 0, tally, tracer)
        spent = perf_counter() - started
        if spent + spent / len(plain) > seconds:
            return plain, traced


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_predictions(workload: str, layer: dict) -> None:
    table = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    print("predictions (predictions.json), as measured:")
    for p in table["predictions"]:
        if p["workload"] != workload:
            continue
        value = layer[p["metric"]]
        if p.get("per"):
            base = layer[p["per"]]
            value = value / base if base else 0.0
        holds = p["lo"] <= value <= p["hi"]
        name = p["metric"] + (f" / {p['per']}" if p.get("per") else "")
        print(f"  {'holds' if holds else 'FAILS'}  {name} = {value:.4g} "
              f"(predicted {p['lo']:g}..{p['hi']:g}; moves "
              f"{', '.join(p['moves']) or 'nothing'}) {p['why']}")


def run_reference() -> int:
    """Time the re-anchor reference cases and compare with their baselines."""
    table = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    arrfree = load_arrfree()
    workdir = make_workdir()
    try:
        runner = Runner(arrfree, workdir, None)
        tally = checks.Tally()
        print("reference cases (median of 3 runs; baseline from single runs):")
        for ref in table["reference_cases"]:
            forms = (workloads.staircase(ref["staircase"]) if "staircase" in ref
                     else getattr(workloads, ref["forms"]))
            expect, value = ref["expect"], ref.get("value")
            if expect == "rgin":
                value = workloads.GOLDEN_RGIN[value]
            case = workloads.ArrangementCase(ref["id"], forms, ref["gin_seed"],
                                             ref["coeff"], expect,
                                             tuple(value) if value else None)
            times = []
            for _ in range(3):
                (started, ended), problems = runner.run(case)
                tally.record(case.id, problems)
                times.append(ended - started)
            tracer = spans.Tracer(spans.arrfree_patches(arrfree))
            with tracer.installed():
                runner.run(case, tracer)
            batches = spans.layer_metrics(tracer.spans)["gin.batches"]
            print(f"  {ref['id']:<18} {statistics.median(times):8.3f} s "
                  f"(baseline {ref['baseline_s']} s), gin batches {batches}"
                  + (f" (baseline {ref['batches']})" if "batches" in ref else ""))
        for case_id, problems in tally.problems:
            print(f"  FAILED {case_id}: {'; '.join(problems)}")
        return 0 if tally.failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def make_workdir() -> Path:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="time the reference cases instead of a workload")
    args = parser.parse_args(argv)
    if not args.reference and args.workload is None:
        parser.error("--workload is required")
    return args


def fix_hash_seed() -> None:
    """Re-execute this process with string hashing fixed.

    Set iteration order inside arrfree follows the hash seed, and with it
    the order of some of the work: one case took 1.06 s to 1.36 s across
    processes and the same time within one.  exec replaces this process, so
    no child is left to wait for.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.reference:
        return run_reference()
    passes = workloads.Passes(args.workload, args.seed)
    committed = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
        committed = golden[args.workload]
    workdir = make_workdir()
    try:
        # Set-up is timed on the host clock too, so its drift is divided out.
        with hostclock.HostClock() as clock:
            setup = []
            for _ in range(SETUP_REPEATS):
                started = perf_counter()
                arrfree = load_arrfree()
                warm_up(arrfree, args.workload, workdir)
                setup.append((started, perf_counter()))
        setup = [clock.seconds(*interval) for interval in setup]
        runner = Runner(arrfree, workdir, committed)
        checks.selftest(runner.closed_form)
        tally = checks.Tally()
        if args.trace:
            patches = spans.arrfree_patches(arrfree) + spans.library_patches(runner.api)
            tracer = spans.Tracer(patches)
            plain, traced = run_traced(passes, runner, args.seconds, tally, tracer)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            layer = spans.layer_metrics(tracer.spans)
            untraced_s = sum(b - a for one in plain for (a, b), _ in one)
            layer["trace.untraced_wall_s"] = untraced_s
            layer["trace.overhead_frac"] = layer["trace.case_wall_s"] / untraced_s - 1
        else:
            with hostclock.HostClock() as clock:
                intervals = run_passes(passes, runner, args.seconds, tally)
            cases = [i for one in intervals for i, _ in one]
            flat = [clock.seconds(*i) for i in cases]
            wall = sum(clock.wall(*i) for i in cases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {tally.attempted} cases, "
          f"{tally.failed} failed")
    for case_id, problems in tally.problems:
        print(f"  FAILED {case_id}: {'; '.join(problems)}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed}
    if args.trace:
        print(f"traced {len(traced)} passes; tracing overhead "
              f"{layer['trace.overhead_frac']:+.2%} of {untraced_s:.3f} s untraced")
        for name, value in layer.items():
            print(f"  {name:<36} {value:.6g}")
        report_predictions(args.workload, layer)
        result["metrics"] = {name: metric(value, unit) for name, unit, value in (
            (m["name"], m["unit"], layer[m["name"]]) for m in benchmark_spec()["per_layer"])}
    else:
        p = TAIL_PERCENTILE[args.workload]
        tail, beyond = percentile(flat, p)
        correct = tally.attempted - tally.failed
        values = {
            "setup_s": statistics.median(setup),
            "cases_per_s": correct / sum(flat),
            "case_s_p50": statistics.median(flat),
            "case_s_tail": tail,
            "correct_frac": correct / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"{len(intervals)} passes, {len(flat)} timed cases, {sum(flat):.3f} s "
              f"in the program at the reference host speed ({wall:.3f} s wall)")
        for name, value in values.items():
            print(f"  {name:<14} {value:.6g} {UNITS[name]}")
        print(f"  {'failed_frac':<14} {tally.failed / tally.attempted:.6g} frac")
        print(f"  case_s_tail is p{p}, with {beyond} of {len(flat)} samples beyond it")
        result["metrics"] = {name: metric(value, UNITS[name])
                             for name, value in values.items()}
    print(json.dumps(result))
    return 0


def benchmark_spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    fix_hash_seed()
    try:
        sys.exit(main())
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

"""Shared builders for the test suite."""

import importlib.util
import sys
from pathlib import Path

from arrfree import Arrangement, Polynomial, PowerProduct, borel_closure
from arrfree.cli import parse_expression
from arrfree.polyring import var_names


def poly(text, nvars):
    """Parse a polynomial over the display variables x, y, z, w / x1.."""
    return parse_expression(text, var_names(nvars))


def polys(texts, nvars):
    return [poly(t, nvars) for t in texts]


def random_exponent(total, nvars, rng):
    exps = [0] * nvars
    for _ in range(total):
        exps[rng.randrange(nvars)] += 1
    return PowerProduct(exps)


def random_polynomial(nvars, max_deg, terms, rng, bound=9):
    d = {}
    for _ in range(terms):
        pp = random_exponent(rng.randint(0, max_deg), nvars, rng)
        c = rng.randint(-bound, bound)
        if c:
            d[pp] = d.get(pp, 0) + c
    return Polynomial(d, nvars)


def random_linear_form(nvars, rng, bound=5):
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(nvars)]
        if any(coeffs):
            break
    d = {}
    for i, c in enumerate(coeffs):
        if c:
            d[PowerProduct.variable(i + 1, nvars)] = c
    return Polynomial(d, nvars)


def random_borel_ideal(nvars, max_deg, n_seeds, rng):
    """Borel closure of a few random monomials, minimalized."""
    seeds = [random_exponent(rng.randint(1, max_deg), nvars, rng)
             for _ in range(n_seeds)]
    return borel_closure(seeds, nvars)


def monomial_gens(B):
    """Minimal generators of a monomial ideal as polynomials."""
    return [Polynomial.monomial(pp, B.nvars) for pp in B.generators]


def distinct_random_forms(nvars, count, rng, bound=4):
    """Random pairwise non-proportional linear forms."""
    seen = set()
    forms = []
    while len(forms) < count:
        f = random_linear_form(nvars, rng, bound)
        vec = [f.coefficient(PowerProduct.variable(i + 1, nvars))
               for i in range(nvars)]
        first = next(c for c in vec if c)
        key = tuple(c / first for c in vec)
        if key in seen:
            continue
        seen.add(key)
        forms.append(f)
    return forms


def bench_workloads(monkeypatch):
    """The benchmark's input module, bench/workloads.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def arrangement(rows):
    """The arrangement of integer coefficient rows."""
    names = var_names(len(rows[0]))
    return Arrangement([parse_expression(
        "+".join(f"({c})*{v}" for c, v in zip(row, names)), names) for row in rows])

"""Shared builders for the test suite."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from arrfree import (Arrangement, ExponentVector, FreenessReport, GinCertificate,
                     MonomialIdeal, Polynomial, PowerProduct,
                     StronglyStableIdeal, betti_eliahou_kervaire, buchberger,
                     normal_form, sectional_matrix)
from arrfree import groebner as groebner_module
from arrfree.cli import ParseError, parse_expression
from arrfree.groebner import _int_terms, _normalize, _pack, _poly, _residues
from arrfree.polyring import var_names


def poly(text, nvars):
    """Parse a polynomial over the display variables x, y, z, w / x1.."""
    return parse_expression(text, var_names(nvars))


def polys(texts, nvars):
    return [poly(t, nvars) for t in texts]


def residues(f, p=None):
    """The kernel's input for f: its integer terms m * f in packed keys (m
    the lcm of its denominators), read mod p when p is set."""
    return _residues(_int_terms(f)[0], p)


def groebner(gens, p=None, **kwargs):
    """``buchberger`` of the polynomials gens, over GF(p) when p is set:
    the kernel reads their integer terms mod p."""
    return buchberger([residues(g) for g in gens], ring=(gens[0].nvars, p), **kwargs)


def reduce_mod(f, G, p=None):
    """``normal_form(f, G)``, over GF(p) when p is set: the kernel's
    reduction by the monic divisors mod p, as a polynomial whose
    coefficients are residues in [1, p)."""
    if p is None:
        return normal_form(f, G)
    divisors = [_pack(_normalize(residues(g, p), p), f.nvars) for g in G if g]
    # through the module, so that a test's patch of _reduce sees the call
    rem, _ = groebner_module._reduce(residues(f, p), divisors, p, f.nvars)
    m = _int_terms(f)[1]          # the remainder is that of m * f
    return _poly({k: v * pow(m, -1, p) % p for k, v in rem.items()}, 1, f.nvars)


def derivative(f, i):
    """The formal derivative df/dx_i (1-based index), term by term."""
    j = i - 1
    return Polynomial({PowerProduct(e - (k == j) for k, e in enumerate(pp)): c * pp[j]
                       for pp, c in f.terms() if pp[j]}, f.nvars)


def s_polynomial(f, g):
    """The S-polynomial of two nonzero polynomials."""
    lt_f, lt_g = f.leading_power_product(), g.leading_power_product()
    lcm = PowerProduct(map(max, lt_f, lt_g))

    def part(h, lt):
        quotient = PowerProduct(a - b for a, b in zip(lcm, lt))
        return Polynomial.monomial(quotient, h.nvars,
                                   coeff=1 / h.leading_coefficient()) * h
    return part(f, lt_f) - part(g, lt_g)


def defining_polynomial(A):
    """The product of the forms of an arrangement."""
    Q = Polynomial.constant(1, A.nvars)
    for f in A.forms:
        Q = Q * f
    return Q


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


def borel_closure(gens, nvars):
    """Smallest strongly stable ideal containing the given monomials: their
    closure under the adjacent moves x_(j-1) * t / x_j, since any move
    x_i * t / x_j with i < j is a chain of them."""
    seen, queue = set(), [tuple(g) for g in gens]
    while queue:
        t = queue.pop()
        if t not in seen:
            seen.add(t)
            queue.extend(t[:j - 1] + (t[j - 1] + 1, t[j] - 1) + t[j + 1:]
                         for j in range(1, len(t)) if t[j])
    return MonomialIdeal(seen, nvars)


def random_borel_ideal(nvars, max_deg, n_seeds, rng):
    """Borel closure of a few random monomials, minimalized."""
    seeds = [random_exponent(rng.randint(1, max_deg), nvars, rng)
             for _ in range(n_seeds)]
    return borel_closure(seeds, nvars)


def degree_monomials(degree, nvars):
    """All exponent tuples of the given total degree, x_1's exponent
    falling first."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in degree_monomials(degree - first, nvars - 1):
            yield (first,) + rest


def standard_monomials_oracle(B, i, d):
    """Number of degree-d monomials in x_1..x_i outside B, each compared
    with every generator in x_1..x_i exponent by exponent: the oracle of
    ``count_standard_monomials``, which tests divisibility on packed ints."""
    if d < 0:
        return 0
    gens = [g[:i] for g in B.generators if all(e == 0 for e in g[i:])]
    if any(not any(g) for g in gens):
        return 0  # unit ideal
    count = 0
    for mono in degree_monomials(d, i):
        if not any(all(a <= b for a, b in zip(g, mono)) for g in gens):
            count += 1
    return count


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


def row_reduce(rows):
    """Gauss-Jordan elimination over QQ: (reduced rows, pivot columns, det).

    The reduced row echelon form has a leading 1 in each pivot row and zero
    rows last.  ``det`` is the determinant of the leading square block (the
    first len(rows) columns), 0 when that block is singular.  The oracle of
    ``polyring._bareiss`` and of ``gin.random_linear_change``.
    """
    m = [[Fraction(c) for c in row] for row in rows]
    pivots: list = []
    det = Fraction(1)
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            m[top], m[pivot] = m[pivot], m[top]
            det = -det
        lead = m[top][col]
        det *= lead
        m[top] = [v / lead for v in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[top])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    if pivots != list(range(len(m))):
        det = Fraction(0)
    return m, pivots, det


def linear_change_oracle(l, rng, bound=None, modulus=None):
    """The rows of a random invertible l x l matrix, drawn as
    ``gin.random_linear_change`` draws them but checked by ``row_reduce``:
    a draw with determinant 0 over QQ, or 0 mod p, is redrawn.  The oracle
    of that draw loop, sharing no code with ``polyring._bareiss``.
    """
    lo, hi = (-bound, bound) if modulus is None else (0, modulus - 1)
    while True:
        rows = tuple(tuple(rng.randint(lo, hi) for _ in range(l)) for _ in range(l))
        det = row_reduce(rows)[2]
        if det and (modulus is None or det.numerator % modulus):
            return rows


def _parse_monomial(text, l):
    poly = parse_expression(text, var_names(l))
    if len(poly) != 1 or poly.leading_coefficient() != 1:
        raise ParseError(f"not a monomial: {text!r}")
    return poly.leading_power_product()


def report_from_dict(data):
    """Rebuild a report from its JSON form.

    The sectional matrix and Betti table are pure functions of the rgin, so
    they are recomputed and checked against the serialized rows.
    """
    l = data["l"]
    cert = None
    if data.get("provenance"):
        prov = data["provenance"]
        cert = GinCertificate(
            seed=prov["seed"], trials=prov["trials"],
            coeff_mode=prov["coeff_mode"],
            matrices=tuple(tuple(tuple(row) for row in m)
                           for m in prov["matrices"]))
    B = StronglyStableIdeal._checked(StronglyStableIdeal(
        (_parse_monomial(s, l) for s in data["rgin"]), l), cert)
    dmax = len(data["sectional_matrix"][0]) - 1
    M = sectional_matrix(B, dmax)
    if [list(row) for row in M.values] != data["sectional_matrix"]:
        raise ParseError("sectional matrix does not match its rgin")
    betti = None
    if data.get("betti") is not None:
        betti = betti_eliahou_kervaire(B)
        if {str(k): v for k, v in betti.beta0.items()} != data["betti"]["b0"] or \
                {str(k): v for k, v in betti.beta1.items()} != data["betti"]["b1"]:
            raise ParseError("betti table does not match its rgin")
    exponents = None
    if data.get("exponents") is not None:
        exponents = ExponentVector(data["exponents"])
    return FreenessReport(
        free=data["free"], n=data["n"], l=l,
        essential=data["essential"], rgin=B, sectional=M,
        d0=data["d0"], regularity=data["regularity"],
        exponents=exponents, betti=betti, provenance=cert)

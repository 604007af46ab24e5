"""Acceptance gate: every criterion checked at exact integer equality.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
"""

import random
import time
from contextlib import contextmanager

import pytest

from arrfree import (Arrangement, GinConfig, MonomialIdeal, Polynomial,
                     PowerProduct, StronglyStableIdeal, analyze, buchberger,
                     check_conjecture_Z, hilbert_function, is_cohen_macaulay,
                     leading_term_ideal, normal_form, realizable_as_free,
                     regularity_stable, rgin, rgin_from_exponents,
                     sectional_matrix, supersolvable_from_exponents)
from helpers import (monomial_gens, polys, random_borel_ideal,
                     random_linear_form, random_polynomial)


@contextmanager
def criterion(num, description):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS  {description} "
          f"({time.time() - started:.2f}s)")


FIVE_FREE = ["x", "y", "z", "x+y", "x-y"]
FIVE_NOT_FREE = ["x", "x+y-z", "x+z", "x+2z", "x+y+z"]


def test_criterion_1_golden_free_case():
    with criterion(1, "five planes: golden rgin and free verdict"):
        started = time.time()
        A = Arrangement(polys(FIVE_FREE, 3))
        report = analyze(A, GinConfig(seed=7))
        elapsed = time.time() - started
        assert str(report.rgin) == "<x^4, x^3*y, x^2*y^2, x*y^4, y^6>"
        assert report.free is True
        assert elapsed <= 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_golden_not_free_case():
    with criterion(2, "five planes: golden rgin and non-free verdict"):
        started = time.time()
        A = Arrangement(polys(FIVE_NOT_FREE, 3))
        report = analyze(A, GinConfig(seed=7))
        elapsed = time.time() - started
        assert str(report.rgin) == \
            "<x^4, x^3*y, x^2*y^2, x*y^4, y^5, x*y^3*z^2>"
        assert report.free is False
        assert elapsed <= 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_sectional_tables():
    with criterion(3, "sectional matrices entry-for-entry through degree 7"):
        A = Arrangement(polys(FIVE_FREE, 3))
        rep = analyze(A, GinConfig(seed=7))
        M = rep.sectional
        assert rep.d0 == 5
        assert M.row(1)[:8] == (1, 1, 1, 1, 0, 0, 0, 0)
        assert M.row(2)[:8] == (1, 2, 3, 4, 2, 1, 0, 0)
        assert M.row(3)[:8] == (1, 3, 6, 10, 12, 13, 13, 13)
        assert M.m(3, 5) == M.m(3, 6) == M.m(3, 7) == 13
        assert sum(M.m(2, d) for d in range(0, 6)) == 1 + 2 + 3 + 4 + 2 + 1 == 13

        A2 = Arrangement(polys(FIVE_NOT_FREE, 3))
        rep2 = analyze(A2, GinConfig(seed=7))
        M2 = rep2.sectional
        assert rep2.d0 == 4
        assert M2.row(1)[:8] == (1, 1, 1, 1, 0, 0, 0, 0)
        assert M2.row(2)[:8] == (1, 2, 3, 4, 2, 0, 0, 0)
        assert M2.row(3)[:8] == (1, 3, 6, 10, 12, 12, 11, 11)
        assert M2.m(3, 4) == M2.m(3, 5) == 12
        assert M2.m(3, 6) == 11


def test_criterion_4_mixed_generator_ideal():
    with criterion(4, "two-generator ideal: rgin, rows, triangle equality"):
        gens = polys(["x^4 - y^2*z^2", "x*y^2 - y*z^2 - z^3"], 3)
        B = rgin(gens, GinConfig(seed=5))
        assert str(B) == "<x^3, x^2*y^2, x*y^4, y^6>"
        M = sectional_matrix(B, 8)
        assert M.row(1)[:4] == (1, 1, 1, 0)
        assert M.row(2)[:8] == (1, 2, 3, 3, 2, 1, 0, 0)
        assert M.row(3)[:9] == (1, 3, 6, 9, 11, 12, 12, 12, 12)
        from arrfree import triangle_equality
        assert triangle_equality(M, 3, 4)
        assert M.m(3, 4) < sum(M.m(j, 3) for j in range(1, 4))


def test_criterion_5_cohen_macaulay_trio():
    with criterion(5, "three quotient tables with CM verdicts true/false/false"):
        cfg = GinConfig(seed=11)
        names = ("x", "y", "z", "w")

        # intersection of <xz, yw> and <x+z, xy>, generators frozen after an
        # elimination computation and re-checked by membership below
        from arrfree.cli import parse_expression
        gens = [parse_expression(t, names) for t in
                ("x^2*z + x*z^2", "x*y*z", "x*y*w", "y*z*w")]
        for factor in (("x*z", "y*w"), ("x+z", "x*y")):
            gb = buchberger([parse_expression(t, names) for t in factor])
            assert all(normal_form(g, gb.elements).is_zero for g in gens)
        B1 = rgin(gens, cfg)
        M1 = sectional_matrix(B1, 4)
        assert M1.values == ((1, 1, 1, 0, 0),
                             (1, 2, 3, 0, 0),
                             (1, 3, 6, 6, 6),
                             (1, 4, 10, 16, 22))
        assert is_cohen_macaulay(B1) is True

        # <x> meet <xz, yw> = <xz, xyw>
        B2 = rgin([parse_expression(t, names) for t in ("x*z", "x*y*w")], cfg)
        M2 = sectional_matrix(B2, 4)
        assert M2.values == ((1, 1, 0, 0, 0),
                             (1, 2, 2, 1, 1),
                             (1, 3, 5, 6, 7),
                             (1, 4, 9, 15, 22))
        assert is_cohen_macaulay(B2) is False

        B3 = StronglyStableIdeal(
            [(2, 0, 0, 0), (1, 2, 0, 0), (1, 1, 1, 0), (0, 4, 0, 0)], 4)
        M3 = sectional_matrix(B3, 5)
        assert M3.values == ((1, 1, 0, 0, 0, 0),
                             (1, 2, 2, 1, 0, 0),
                             (1, 3, 5, 5, 5, 5),
                             (1, 4, 9, 14, 19, 24))
        assert is_cohen_macaulay(B3) is False
        assert M3.m(3, 3) == 5
        assert M3.m(3, 2) + M3.m(2, 3) == 5 + 1


def test_criterion_6_four_plane_pipeline():
    with criterion(6, "four planes: betti, exponents and rgin from one run"):
        A = Arrangement(polys(["x", "y", "z", "x-y"], 3))
        report = analyze(A, GinConfig(seed=13))
        assert str(report.rgin) == "<x^3, x^2*y, x*y^2, y^4>"
        assert report.exponents == (1, 1, 2)
        assert report.betti.beta0 == {3: 3, 4: 1}
        assert report.betti.beta1 == {4: 2, 5: 1}


def test_criterion_7_seven_plane_pair():
    with criterion(7, "two seven-plane arrangements share one rgin"):
        expected = "<x^6, x^5*y, x^4*y^2, x^3*y^4, x^2*y^5, x*y^7, y^8>"
        for seed, forms in ((17, ["x", "y", "z", "x-z", "x+z", "y-z", "y+z"]),
                            (19, ["x", "y", "z", "x+y-z", "x+y+z",
                                  "x-y-z", "x-y+z"])):
            started = time.time()
            report = analyze(Arrangement(polys(forms, 3)), GinConfig(seed=seed))
            elapsed = time.time() - started
            assert str(report.rgin) == expected
            assert report.free and report.exponents == (1, 3, 3)
            assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_8_realizability_suite():
    with criterion(8, "realizability: four refusals and one verified witness"):
        v = realizable_as_free(StronglyStableIdeal(
            [(3, 0), (2, 2), (1, 4), (0, 6)], 2))
        assert not v.realizable and "minimal degree 3 is 1" in v.reason

        v = realizable_as_free(StronglyStableIdeal(
            [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 5, 0)], 3))
        assert not v.realizable and v.reason == "no minimal generator of degree 4"

        v = realizable_as_free(StronglyStableIdeal(
            [(3, 0), (2, 1), (1, 3), (0, 4)], 2))
        assert not v.realizable and "does not drop" in v.reason

        v = realizable_as_free(StronglyStableIdeal(
            [(5, 0, 0), (4, 1, 0), (3, 2, 0), (2, 4, 0), (1, 6, 0),
             (0, 7, 0)], 3))
        assert not v.realizable and "beta0(6) = 1 < beta0(7) = 2" in v.reason

        B = StronglyStableIdeal(
            [(6, 0, 0), (5, 1, 0), (4, 2, 0), (3, 4, 0), (2, 5, 0),
             (1, 7, 0), (0, 9, 0)], 3)
        v = realizable_as_free(B, GinConfig(seed=23))
        assert v.realizable and v.exponents == (1, 2, 4) and v.verified
        assert v.arrangement.n == 7


def test_criterion_9_conjecture_harness():
    with criterion(9, "third-variable degree bound: one holds, one fails"):
        holding = StronglyStableIdeal(
            [(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 4, 0), (0, 5, 0),
             (1, 3, 2)], 3)
        r = check_conjecture_Z(holding)
        assert r.holds and r.d0 == 4
        assert PowerProduct((1, 3, 2)).degree() == 6 > 5

        failing = StronglyStableIdeal(
            [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0)], 3)
        r = check_conjecture_Z(failing)
        assert not r.holds and r.violations == (PowerProduct((1, 0, 1)),)


# ---------------------------------------------------------------------------
# criterion 10: randomized property suites (fixed seeds)
# ---------------------------------------------------------------------------

def _borel_corpus(count, rng, max_l=4, max_deg=6):
    corpus = []
    while len(corpus) < count:
        nv = rng.randint(2, max_l)
        B = random_borel_ideal(nv, max_deg, rng.randint(1, 3), rng)
        if B.is_zero or B.is_unit:
            continue
        corpus.append(B)
    return corpus


def _all_exponent_vectors(max_sum, max_l):
    out = []
    for l in range(2, max_l + 1):
        def rec(prefix, remaining):
            if len(prefix) == l:
                out.append(tuple(prefix))
                return
            lo = prefix[-1]
            slots = l - len(prefix)
            for v in range(lo, remaining + 1):
                if v * slots <= remaining:
                    rec(prefix + [v], remaining - v)
        rec([1], max_sum - 1)
    return out


def _assert_triangle_inequality(M):
    for i in range(2, M.nrows + 1):
        for d in range(1, M.dmax + 1):
            assert M.m(i, d) <= M.m(i - 1, d) + M.m(i, d - 1)


def test_criterion_10a_rgin_idempotence():
    with criterion("10a", "rgin idempotence on 50 random Borel ideals"):
        rng = random.Random(802701)
        for i, B in enumerate(_borel_corpus(50, rng)):
            assert rgin(monomial_gens(B), GinConfig(seed=1000 + i)) == B


def test_criterion_10b_triangle_inequality():
    with criterion("10b", "triangle inequality on 50 sectional matrices"):
        rng = random.Random(271828)
        for B in _borel_corpus(50, rng):
            _assert_triangle_inequality(sectional_matrix(B))


def test_criterion_10c_hilbert_invariance():
    with criterion("10c", "Hilbert functions preserved by rgin on 50 ideals"):
        rng = random.Random(314159)
        done = 0
        while done < 50:
            nv = rng.randint(2, 3)
            gens = [random_polynomial(nv, 3, 3, rng) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            done += 1
            lt = leading_term_ideal(buchberger(gens))
            B = rgin(gens, GinConfig(seed=2000 + done))
            top = max(B.max_generator_degree() or 0, lt.max_generator_degree() or 0)
            for d in range(0, top + 3):
                assert hilbert_function(lt, d) == hilbert_function(B, d)


def test_criterion_10d_verdict_agreement_20_arrangements():
    with criterion("10d", "both freeness tests agree on 20 arrangements"):
        rng = random.Random(161803)
        vectors = _all_exponent_vectors(8, 4)
        picked = [vectors[i] for i in
                  rng.sample(range(len(vectors)), 10)]
        arrangements = [supersolvable_from_exponents(e) for e in picked]
        # perturbed variants: replace the last hyperplane with a random form
        perturbed = 0
        while perturbed < 10:
            e = picked[perturbed % len(picked)]
            base = supersolvable_from_exponents(e)
            candidate = list(base.forms[:-1]) + \
                [random_linear_form(base.l, rng, bound=7)]
            try:
                arrangements.append(Arrangement(candidate))
            except Exception:
                continue
            perturbed += 1
        assert len(arrangements) == 20
        free_flags = []
        for i, A in enumerate(arrangements):
            r1 = analyze(A, GinConfig(seed=3000 + i))
            r2 = analyze(A, GinConfig(seed=3500 + i))
            assert r1.free == r2.free
            free_flags.append(r1.free)
        assert all(free_flags[:10])      # the staircase constructions are free
        assert not all(free_flags[10:])  # perturbations break at least one


def test_criterion_10e_exponent_roundtrips():
    with criterion("10e", "exponents <-> rgin roundtrips for all sums <= 8"):
        from arrfree import exponents_from_rgin
        vectors = _all_exponent_vectors(8, 4)
        assert len(vectors) == 30
        for e in vectors:
            B = rgin_from_exponents(e)
            assert exponents_from_rgin(B) == e
            v = realizable_as_free(B, verify=False)
            assert v.realizable and v.exponents == e


def test_criterion_10f_generator_degree_coverage():
    with criterion("10f", "no degree gaps in arrangement rgins"):
        rng = random.Random(577215)
        reports = []
        for i, e in enumerate(_all_exponent_vectors(7, 3)):
            A = supersolvable_from_exponents(e)
            reports.append(analyze(A, GinConfig(seed=4000 + i)))
        for _ in range(5):
            from helpers import distinct_random_forms
            forms = distinct_random_forms(3, 5, rng)
            reports.append(analyze(Arrangement(forms), GinConfig(seed=rng.randint(0, 10**6))))
        for rep in reports:
            B = rep.rgin
            if B.is_unit:
                continue
            degrees = {g.degree() for g in B.generators}
            for d in range(rep.n - 1, regularity_stable(B) + 1):
                assert d in degrees
            _assert_triangle_inequality(rep.sectional)


@pytest.mark.stretch
def test_criterion_11_ten_line_pair_modular():
    with criterion(11, "ten-line pair: distinct rgins in two-prime modular mode"):
        started = time.time()

        def lin(cx, cy, cz):
            d = {}
            for i, c in enumerate((cx, cy, cz)):
                if c:
                    d[PowerProduct.variable(i + 1, 3)] = c
            return Polynomial(d, 3)

        first = Arrangement([
            lin(0, 0, 1), lin(0, 1, -4), lin(1, 1, -7), lin(-7, 1, 25),
            lin(0, 1, 4), lin(2, 1, 10), lin(-2, 1, -10), lin(-1, 3, -5),
            lin(4, 3, 0), lin(-4, 3, 0)])
        second = Arrangement([
            lin(0, 0, 1), lin(0, 1, -4), lin(1, 2, -11), lin(-7, 2, 29),
            lin(0, 1, 4), lin(2, 1, 10), lin(-2, 1, -10), lin(-3, 10, -15),
            lin(4, 3, 0), lin(-4, 3, 0)])
        cfg = GinConfig(seed=29, mode="modular")
        from arrfree import jacobian_ideal
        B1 = rgin(jacobian_ideal(first), cfg)
        B2 = rgin(jacobian_ideal(second), cfg)
        assert B1.certificate.coeff_mode == "mod:32003,32009"
        assert MonomialIdeal(B1.generators, 3) != MonomialIdeal(B2.generators, 3)
        elapsed = time.time() - started
        assert elapsed <= 600.0, f"took {elapsed:.1f}s"

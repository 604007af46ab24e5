"""Randomized generic initial ideals: goldens, certification, agreement."""

import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrfree import (Arrangement, GenericityExhaustedError, GinConfig,
                     MonomialIdeal, Polynomial, PowerProduct,
                     buchberger, hilbert_function,
                     leading_term_ideal, random_linear_change,
                     regularity_stable, rgin)
from arrfree import gin as gin_module
from arrfree import groebner as groebner_module
from arrfree.groebner import _normalize
from arrfree.polyring import apply_linear_change
from helpers import arrangement, bench_workloads, groebner, monomial_gens, poly, polys, \
    linear_change_oracle, random_borel_ideal, random_polynomial, residues, row_reduce

CFG = GinConfig(seed=42)
INPUTS = Path(__file__).resolve().parents[1] / "inputs"
_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _packed(polys, p=None):
    # a trial's generators in the kernel's packed keys, as build returns them
    return [residues(f, p) for f in polys]


def _substituted(gens, rows):
    # the reference route: the rows substituted into each generator
    return [apply_linear_change(f, rows) for f in gens]


def _moved(gens, g, p):
    # substitution over QQ, read mod p term by term when p is set
    return _packed(_substituted(gens, g), p)


class _CountedRandom(random.Random):
    calls = 0

    def randint(self, a, b):
        self.calls += 1
        return super().randint(a, b)


class TestRandomLinearChange:
    def test_one_variable(self):
        g = random_linear_change(1, random.Random(3), 4)
        assert len(g) == 1 and g[0][0] != 0

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError, match="need l >= 1"):
            random_linear_change(0, random.Random(3), 1)

    def test_deterministic(self):
        a = random_linear_change(3, random.Random(9), 10)
        b = random_linear_change(3, random.Random(9), 10)
        assert a == b

    def test_always_invertible(self):
        rng = random.Random(10)
        for _ in range(20):
            random_linear_change(2, rng, 1)  # construction validates det != 0

    def test_modular_entries_uniform_and_invertible_mod_p(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_linear_change(2, rng, modulus=3)
            assert all(0 <= c < 3 for row in g for c in row)
            assert row_reduce(g)[2] % 3
        with pytest.raises(ValueError):
            random_linear_change(2, rng, 10, modulus=3)
        with pytest.raises(ValueError):
            random_linear_change(2, rng)

    @pytest.mark.parametrize("l", range(1, 6))
    def test_same_stream_as_the_oracle(self, l):
        # the same rows and the same generator state after each draw
        redrawn = {}
        for bound, modulus in [(1, None), (10, None), (None, 2), (None, 3),
                               (None, 32003), (None, 2 ** 61 - 1)]:
            for stream in range(200):
                a, b = _CountedRandom(stream), random.Random(stream)
                rows = random_linear_change(l, a, bound, modulus)
                assert rows == linear_change_oracle(l, b, bound, modulus)
                assert a.getstate() == b.getstate()
                redrawn[bound, modulus] = redrawn.get((bound, modulus), 0) + \
                    (a.calls > l * l)
        # bound 1 and moduli 2 and 3 make singular draws common
        assert all(redrawn[r] for r in [(1, None), (None, 2), (None, 3)])


class TestGoldens:
    def test_two_monomials(self):
        B = rgin(polys(["z^5", "x*y*z^3"], 3), CFG)
        assert str(B) == "<x^5, x^4*y, x^3*y^3>"

    def test_binomial_pair(self):
        B = rgin(polys(["x^4 - y^2*z^2", "x*y^2 - y*z^2 - z^3"], 3), CFG)
        assert str(B) == "<x^3, x^2*y^2, x*y^4, y^6>"

    def test_stable_fixed_point(self):
        five = MonomialIdeal([PowerProduct(e) for e in
                              [(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 4, 0), (0, 6, 0)]], 3)
        assert rgin(monomial_gens(five), CFG) == five


class TestCertification:
    def test_metadata(self):
        B = rgin(polys(["z^5", "x*y*z^3"], 3), CFG)
        cert = B.certificate
        assert cert.seed == 42 and cert.trials == 2
        assert cert.coeff_mode == "exact"
        assert len(cert.matrices) == 2
        assert all(len(m) == 3 and len(m[0]) == 3 for m in cert.matrices)

    def test_deterministic_runs(self):
        gens = polys(["x^4 - y^2*z^2", "x*y^2 - y*z^2 - z^3"], 3)
        a = rgin(gens, GinConfig(seed=5))
        b = rgin(gens, GinConfig(seed=5))
        assert a == b and a.certificate == b.certificate

    def test_seed_changes_matrices(self):
        gens = polys(["z^5", "x*y*z^3"], 3)
        a = rgin(gens, GinConfig(seed=5))
        b = rgin(gens, GinConfig(seed=6))
        assert a == b
        assert a.certificate.matrices != b.certificate.matrices

    def test_zero_input(self):
        B = rgin([Polynomial.zero(2)], CFG)
        assert B.is_zero

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GinConfig(trials=1)
        with pytest.raises(ValueError):
            GinConfig(mode="modular", primes=(32003, 32003))
        with pytest.raises(ValueError):
            GinConfig(mode="modular", primes=(32004, 7))
        with pytest.raises(ValueError, match="entry bound"):
            GinConfig(entry_bound=0)
        with pytest.raises(ValueError, match="unknown coefficient mode"):
            GinConfig(mode="x")

    def test_rejects_empty_and_modular_input(self):
        with pytest.raises(ValueError, match="at least one generator"):
            rgin([], CFG)


class TestGenericityFailure:
    def test_identity_matrices_exhaust(self, monkeypatch):
        def rigged(l, rng, bound):
            return tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
        monkeypatch.setattr(gin_module, "random_linear_change", rigged)
        monkeypatch.setattr(gin_module, "DRAWS_PER_TRIAL", 2)
        gens = polys(["z^5", "x*y*z^3"], 3)  # its own leading terms are not Borel
        with pytest.raises(GenericityExhaustedError) as err:
            rgin(gens, GinConfig(seed=1))
        assert len(err.value.observed) == 4  # 2 draws per trial x 2 trials

    def test_history_of_an_exhausted_run(self, monkeypatch):
        monkeypatch.setattr(gin_module, "DRAWS_PER_TRIAL", 2)
        gens = polys(["z^5", "x*y*z^3"], 3)
        seen = []

        def build(g, p):  # only draw 0 is generic; the rest keep gens
            seen.append((g, p))
            return _moved(gens, g, p) if len(seen) == 2 else _packed(gens)
        with pytest.raises(GenericityExhaustedError) as err:
            rgin(3, GinConfig(seed=2), build)
        assert seen[0] == (_IDENTITY, None)   # the unmoved generators come first
        draws = err.value.draws
        assert [(d.field, d.index) for d in draws] == [("exact", k) for k in range(4)]
        assert [(d.matrix, None) for d in draws] == seen[1:]
        assert [d.borel for d in draws] == [True, False, False, False]
        assert [d.kept for d in draws] == [True, False, False, False]
        assert err.value.observed == tuple(d.ideal for d in draws)
        assert len(err.value.observed) == 4
        assert "4 draws, 3 not Borel, 2 distinct candidates" in str(err.value)
        assert "larger entry bound" in str(err.value)

    def test_modular_exhaustion_does_not_suggest_entry_bound(self, monkeypatch):
        monkeypatch.setattr(gin_module, "DRAWS_PER_TRIAL", 1)
        gens = polys(["z^5", "x*y*z^3"], 3)
        with pytest.raises(GenericityExhaustedError) as err:
            rgin(3, GinConfig(seed=1, mode="modular"),
                 lambda g, p: _packed(gens, p))
        assert len(err.value.draws) == 2  # the first prime's budget
        assert "uniform mod p" in str(err.value)
        assert "entry bound" not in str(err.value)


def _x5(p):
    # strongly stable, smaller than the gin <x^5, x^4*y, x^3*y^3> and with
    # its Hilbert function, as every draw of one field must be
    return _packed(polys(["x^5", "x^4*y", "x^4*z^2", "x^3*y^4"], 3), p)


class TestRedraws:
    GENS = polys(["z^5", "x*y*z^3"], 3)
    GIN = "<x^5, x^4*y, x^3*y^3>"
    X5 = "<x^5, x^4*y, x^4*z^2, x^3*y^4>"

    @staticmethod
    def history(B):
        """(field, index, matrix, borel, kept, ideal) of each draw of B, in
        draw order, once the kept matrices, field by field, and the
        discarded ones are checked to be read off the draws."""
        draws = B.certificate.draws
        fields = dict.fromkeys(d.field for d in draws)
        assert B.certificate.matrices == tuple(
            d.matrix for f in fields for d in draws if d.field == f and d.kept)
        assert B.certificate.discarded == tuple(d.matrix for d in draws if not d.kept)
        return [(d.field, d.index, d.matrix, d.borel, d.kept, str(d.ideal))
                for d in draws]

    def test_order_within_a_degree(self):
        a = MonomialIdeal([(2, 0), (1, 1)], 2)
        b = MonomialIdeal([(2, 0), (0, 2)], 2)
        assert gin_module._larger(a, b)
        assert not gin_module._larger(b, a)

    def test_equal_ideals_are_not_larger(self):
        a = MonomialIdeal([(2, 0), (1, 1)], 2)
        assert not gin_module._larger(a, MonomialIdeal([(1, 1), (2, 0)], 2))

    def test_first_differing_degree_decides(self):
        a = MonomialIdeal([(2, 0), (1, 2), (0, 4)], 2)
        b = MonomialIdeal([(2, 0), (1, 1), (0, 5)], 2)
        assert gin_module._larger(b, a)
        assert not gin_module._larger(a, b)

    def test_smaller_borel_draw_is_discarded(self):
        seen = []

        def build(g, p):
            seen.append((g, p))
            if len(seen) == 2:
                return _x5(p)
            return _moved(self.GENS, g, p)
        B = rgin(3, CFG, build)
        assert seen[0] == (_IDENTITY, None)   # the unmoved generators come first
        draws = [m for m, _ in seen[1:]]
        assert str(B) == self.GIN
        assert B.certificate.matrices == tuple(draws[1:3])
        assert B.certificate.discarded == (draws[0],)
        assert self.history(B) == [("exact", 0, draws[0], True, False, self.X5),
                                   ("exact", 1, draws[1], True, True, self.GIN),
                                   ("exact", 2, draws[2], True, True, self.GIN)]

    def test_larger_candidate_resets_kept_draws_in_both_fields(self):
        # calls 0-2 (mod p1 draws 0 and 1, mod p2 draw 0) are kept until
        # call 3 (mod p2 draw 1) brings the larger gin
        seen = []

        def build(g, p):
            seen.append(g)
            if len(seen) <= 3:
                return _x5(p)
            return _moved(self.GENS, g, p)
        B = rgin(3, GinConfig(seed=42, mode="modular"), build)
        assert str(B) == self.GIN
        assert len(seen) == 7
        assert B.certificate.matrices == (seen[5], seen[6], seen[3], seen[4])
        assert B.certificate.discarded == tuple(seen[:3])
        p1, p2 = "mod32003", "mod32009"
        assert self.history(B) == [
            (p1, 0, seen[0], True, False, self.X5), (p1, 1, seen[1], True, False, self.X5),
            (p2, 0, seen[2], True, False, self.X5), (p2, 1, seen[3], True, True, self.GIN),
            (p2, 2, seen[4], True, True, self.GIN), (p1, 2, seen[5], True, True, self.GIN),
            (p1, 3, seen[6], True, True, self.GIN)]

    def test_later_draws_with_another_hilbert_function_raise(self):
        from arrfree import InternalConsistencyError
        calls = []

        def build(g, p):  # the unmoved build computes <x^5>, not the ideal
            calls.append(g)
            if len(calls) == 1:
                return _packed([poly("x^5", 3)], p)
            return _moved(self.GENS, g, p)
        with pytest.raises(InternalConsistencyError, match="Hilbert function"):
            rgin(3, CFG, build)
        assert len(calls) == 2

    def test_later_modular_draws_with_another_hilbert_function_raise(self):
        # each prime reads its Hilbert function off its first draw
        from arrfree import InternalConsistencyError
        calls = []

        def build(g, p):  # the first draw computes <x^5>, not the ideal
            calls.append(p)
            if len(calls) == 1:
                return _packed([poly("x^5", 3)], p)
            return _moved(self.GENS, g, p)
        with pytest.raises(InternalConsistencyError, match="Hilbert function"):
            rgin(3, GinConfig(seed=42, mode="modular"), build)
        assert len(calls) == 2 and calls[1] == calls[0]

    def test_draws_keep_their_streams(self):
        # the k-th draw of a field reads stream (k // trials, k % trials)
        rows = []

        def build(g, p):
            rows.append((g, p))
            return _x5(p) if len(rows) == 2 else _moved(self.GENS, g, p)
        rgin(3, CFG, build)
        assert rows[0] == (_IDENTITY, None)
        for k, (got, _) in enumerate(rows[1:]):
            rng = gin_module._trial_stream(CFG.seed, k // 2, k % 2, "exact")
            assert got == random_linear_change(3, rng, CFG.entry_bound)

    def test_modular_entries_lie_in_the_field(self):
        B = rgin(self.GENS, GinConfig(seed=5, mode="modular"))
        cert = B.certificate
        for m, p in zip(cert.matrices + cert.discarded, (32003, 32003, 32009, 32009)):
            assert all(0 <= c < p for row in m for c in row)

    def test_tiny_entry_bound_reaches_gin(self):
        # entries in {-1, 0, 1} often give a non-generic draw; it is redrawn
        # on its own instead of throwing its batch away
        gens = polys(["x^4 - y^2*z^2", "x*y^2 - y*z^2 - z^3"], 3)
        B = rgin(gens, GinConfig(seed=2, entry_bound=1))
        assert str(B) == "<x^3, x^2*y^2, x*y^4, y^6>"
        assert B.certificate.discarded
        history = self.history(B)
        assert all(kept == (ideal == str(B)) for *_, kept, ideal in history)
        assert not all(borel for _, _, _, borel, _, _ in history)   # one is not Borel

    @pytest.mark.stretch
    def test_ziegler_sweep_near_minimum_trials(self, monkeypatch):
        from arrfree import jacobian_rgin
        # the pair and its golden rgins, from the benchmark's input module
        workloads = bench_workloads(monkeypatch)
        pair = {name: arrangement(getattr(workloads, name.upper()))
                for name in ("ziegler_1", "ziegler_2")}
        trials = 0
        for seed in range(1, 21):
            for name, A in pair.items():
                B = jacobian_rgin(A, GinConfig(seed=seed, mode="modular"))
                assert B == MonomialIdeal(workloads.GOLDEN_RGIN[name], 3), (seed, name)
                trials += len(B.certificate.matrices) + len(B.certificate.discarded)
        assert trials <= 176  # 1.1 x the minimum of 20 x 2 x 4


class TestModularMode:
    def test_agrees_with_exact_on_golden_suite(self):
        from arrfree import Arrangement, jacobian_ideal
        golden = [
            polys(["z^5", "x*y*z^3"], 3),
            polys(["x^4 - y^2*z^2", "x*y^2 - y*z^2 - z^3"], 3),
            jacobian_ideal(Arrangement(polys(["x", "y", "z", "x+y", "x-y"], 3))),
            jacobian_ideal(Arrangement(polys(
                ["x", "x+y-z", "x+z", "x+2z", "x+y+z"], 3))),
        ]
        for i, gens in enumerate(golden):
            exact = rgin(gens, GinConfig(seed=3 + i))
            modular = rgin(gens, GinConfig(seed=3 + i, mode="modular"))
            assert MonomialIdeal(exact.generators, 3) == \
                MonomialIdeal(modular.generators, 3)
        assert modular.certificate.coeff_mode == "mod:32003,32009"
        assert len(modular.certificate.matrices) == 4  # 2 trials x 2 primes

    def test_bad_denominator(self):
        # x^2/7 is read as the primitive integer term x^2, which 7 keeps
        f = poly("x^2", 2).scale("1/7")
        modular = rgin([f], GinConfig(seed=1, mode="modular", primes=(7, 11)))
        assert str(modular) == str(rgin([f], GinConfig(seed=1))) == "<x^2>"

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_denominators_that_p_divides(self, seed):
        # x/3 + y is read as the integer terms x + 3*y: mod 3 nothing is
        # divided by 3, and the generator keeps its term x
        gens = [poly("x", 3).scale("1/3") + poly("y", 3), poly("z^2 + x*y", 3)]
        modular = rgin(gens, GinConfig(seed=seed, mode="modular", primes=(3, 5)))
        exact = rgin(gens, GinConfig(seed=seed))
        assert str(modular) == str(exact) == "<x, y^2>"

    def test_generator_that_p_divides(self):
        # every coefficient of the first generator vanishes mod 32003
        gens = polys(["32003*(x^2+y^2+z^2)", "x*y"], 3)
        exact = rgin(gens, GinConfig(seed=1))
        modular = rgin(gens, GinConfig(seed=1, mode="modular"))
        assert exact == modular == MonomialIdeal(
            [PowerProduct(e) for e in [(2, 0, 0), (1, 1, 0), (0, 3, 0)]], 3)
        # numerators divisible by p over a denominator it does not divide
        fifths = [poly("32003*x^2 + 64006*y^2", 3).scale("1/5"), poly("x*y", 3)]
        assert rgin(fifths, GinConfig(seed=1, mode="modular")) == \
            rgin(fifths, GinConfig(seed=1))


class TestResultIsCheckedOnce:
    def test_no_second_borel_check(self, monkeypatch):
        # rgin checks each draw through its own name and builds the result
        # without StronglyStableIdeal.__init__, which would check it again
        from arrfree import StronglyStableIdeal, monomial
        calls = []
        check = monomial.is_strongly_stable
        monkeypatch.setattr(monomial, "is_strongly_stable",
                            lambda B: calls.append(B) or check(B))
        B = rgin(polys(["z^5", "x*y*z^3"], 3), CFG)
        assert not calls
        assert type(B) is StronglyStableIdeal and B.certificate.seed == CFG.seed
        assert B == StronglyStableIdeal(B.generators, 3) and calls
        assert str(B) == TestRedraws.GIN


def _ziegler_modular():
    from arrfree import jacobian_rgin
    from arrfree.cli import load_input
    A = Arrangement(load_input(str(INPUTS / "ziegler_1.arr")).items)
    return jacobian_rgin(A, GinConfig(seed=29, mode="modular"))


def _reset_modular():
    seen = []

    def build(g, p):                   # three smaller draws, then the gin
        seen.append(g)
        return _x5(p) if len(seen) <= 3 else _moved(TestRedraws.GENS, g, p)
    return rgin(3, GinConfig(seed=42, mode="modular"), build)


_REDRAWN = polys(["x^4 - y^2*z^2", "x*y^2 - y*z^2 - z^3"], 3)


class TestWrappedNames:
    """bench/spans.py and CI's "Trial counts" and "Genericity draws" steps
    wrap gin.buchberger, gin.random_linear_change and gin.is_strongly_stable:
    one Buchberger run and one coordinate change per draw, and a Borel check
    on every draw that differs from the best candidate of that moment."""

    @pytest.mark.parametrize("run", [
        lambda: rgin(_REDRAWN, GinConfig(seed=2, entry_bound=1)),
        lambda: rgin(_REDRAWN, GinConfig(seed=10, mode="modular", primes=(7, 11))),
        _ziegler_modular, _reset_modular],
        ids=["exact", "modular", "modular-ziegler", "modular-reset"])
    def test_calls_per_draw(self, monkeypatch, run):
        calls = {"buchberger": 0, "random_linear_change": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(gin_module, name), **kw):
                calls[_name] += 1
                return _call(*args, **kw)
            monkeypatch.setattr(gin_module, name, counted)
        ideals, checked = [], []
        lti, check = gin_module.leading_term_ideal, gin_module.is_strongly_stable
        monkeypatch.setattr(gin_module, "leading_term_ideal",
                            lambda G: ideals.append(lti(G)) or ideals[-1])
        monkeypatch.setattr(gin_module, "is_strongly_stable",
                            lambda B: checked.append((B, check(B))) or checked[-1][1])
        B = run()
        draws = len(B.certificate.matrices) + len(B.certificate.discarded)
        assert calls == {"buchberger": draws, "random_linear_change": draws}
        assert len(ideals) == draws
        # replay the best candidate: the checked draws are those that differ
        verdicts, best, expected = iter(v for _, v in checked), None, []
        for ideal in ideals:
            if ideal != best:
                expected.append(ideal)
                if next(verdicts) and (best is None or gin_module._larger(ideal, best)):
                    best = ideal
        assert [I for I, _ in checked] == expected and best == B
        assert len(checked) < draws


class TestChainRule:
    def test_moved_product_and_substituted_partials_agree(self):
        # grad(Q o g) = g^T (grad Q o g) with g^T invertible, so the two
        # generator lists differ but span one ideal: one reduced basis
        from arrfree import Arrangement, jacobian_ideal
        from helpers import defining_polynomial, derivative, distinct_random_forms
        rng = random.Random(31)
        A = Arrangement(distinct_random_forms(3, 6, rng))
        for p in (None, 32003):
            for _ in range(3):
                # entries in [-10, 10] keep |det| below 32003: g stays invertible
                g = random_linear_change(3, rng, 10)
                Qg = apply_linear_change(defining_polynomial(A), g)
                moved = [derivative(Qg, i) for i in (1, 2, 3)]
                substituted = _substituted(jacobian_ideal(A), g)
                assert moved != substituted
                assert groebner(moved, p) == groebner(substituted, p)


P = 32003
STAIRCASE = INPUTS / "staircase.ideal"


@st.composite
def _generators(draw):
    """(l, gens): one to three generators of degree at most 4 in l <= 4
    variables with fractional coefficients; a constant one may follow, and
    the first may have every numerator divisible by P."""
    l = draw(st.integers(1, 4))
    monomial = st.lists(st.integers(0, l - 1), max_size=4).map(
        lambda vs: PowerProduct([vs.count(j) for j in range(l)]))
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    gens = [Polynomial(t, l) for t in draw(st.lists(
        st.dictionaries(monomial, coeff, min_size=1, max_size=5),
        min_size=1, max_size=3))]
    if draw(st.booleans()):
        gens.append(Polynomial.constant(draw(coeff), l))
    if draw(st.booleans()):
        gens[0] = gens[0].scale(P)
    return l, gens


class _Caught(Exception):
    pass


def _default_build(gens):
    """rgin's own builder for gens, caught when rgin makes it."""
    def catch(nonzero):
        raise _Caught(groebner_module.moved_generators(nonzero))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gin_module, "moved_generators", catch)
        with pytest.raises(_Caught) as caught:
            rgin(gens, GinConfig(mode="modular"))
    return caught.value.args[0]


class TestDefaultBuild:
    @pytest.mark.parametrize("p", [None, P], ids=["QQ", "GF32003"])
    @settings(max_examples=40, deadline=None)
    @given(_generators(), st.randoms(use_true_random=False))
    def test_matches_substitution(self, p, case, rng):
        # the moved products span what substitution gives, generator by
        # generator, once each is divided by the gcd of its numerators; mod
        # p, rational substitution read term by term is the oracle
        l, gens = case
        if p is None:
            g = random_linear_change(l, rng, 10)
        else:
            g = random_linear_change(l, rng, modulus=p)
        primitive = [f.scale(Fraction(1, math.gcd(
            *(c.numerator for _, c in f.terms())))) for f in gens]
        expected = [_normalize(t, p) for t in _moved(primitive, g, p)]
        got = [_normalize(t, p) for t in _default_build(gens)(g, p)]
        assert got == expected and all(got)

    def test_moves_each_power_product_once(self, monkeypatch):
        # x^3, x^2*y and x*y^2 + y^3 need x, x^2, x^3, x^2*y, x*y, x*y^2,
        # y, y^2 and y^3 moved, each as one product by a row
        calls = []
        product = groebner_module._product
        monkeypatch.setattr(groebner_module, "_product", lambda rows, *a:
                            calls.append(len(rows)) or product(rows, *a))
        build = _default_build(polys(["x^3", "x^2*y", "x*y^2 + y^3"], 2))
        for p in (None, P):
            calls.clear()
            build(random_linear_change(2, random.Random(1), 10), p)
            assert calls == [1] * 9

    def test_never_substitutes(self, monkeypatch):
        from arrfree import polyring
        from arrfree.cli import main

        def forbidden(*args):
            raise AssertionError("an rgin trial called apply_linear_change")
        monkeypatch.setattr(polyring, "apply_linear_change", forbidden)
        monkeypatch.setattr(gin_module, "apply_linear_change", forbidden)
        divisible = polys(["32003*(x^2+y^2+z^2)", "x*y"], 3)
        for mode in ("exact", "modular"):
            B = rgin(TestRedraws.GENS, GinConfig(seed=42, mode=mode))
            assert str(B) == TestRedraws.GIN
            assert str(rgin(divisible, GinConfig(seed=1, mode=mode))) == \
                "<x^2, x*y, y^3>"
        out = io.StringIO()
        assert main(["rgin", str(STAIRCASE), "--json"], out=out) == 0
        assert json.loads(out.getvalue()) == {
            "rgin": ["x^2", "x*y", "y^5"],
            "provenance": {"seed": 1, "trials": 2, "coeff_mode": "exact",
                           "matrices": [[[8, 7], [-5, 4]], [[5, -3], [-5, 0]]]}}


class TestOneRepresentation:
    """A draw is its integer rows from ``random_linear_change`` to the
    certificate, and a generator is read once as integer terms: no draw
    builds a ``Fraction``."""

    @pytest.mark.parametrize("mode", ["exact", "modular"])
    def test_no_second_representation(self, monkeypatch, mode):
        from arrfree import jacobian_rgin
        from arrfree.cli import load_input
        cfg = GinConfig(seed=7, mode=mode)
        A = Arrangement(load_input(str(INPUTS / "ziegler_1.arr")).items)
        staircase = load_input(str(STAIRCASE)).items
        runs = [lambda: jacobian_rgin(A, cfg), lambda: rgin(TestRedraws.GENS, cfg),
                lambda: rgin(staircase, cfg)]
        expected = [run() for run in runs]
        made = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs:
                            made.append(args) or new(cls, *args, **kwargs))
        for run, B in zip(runs, expected):
            got = run()
            assert got == B and got.certificate == B.certificate
        assert made == []


class TestStructuralProperties:
    def test_idempotent_on_borel_corpus(self):
        rng = random.Random(2024)
        done = 0
        while done < 15:
            nv = rng.randint(2, 4)
            B = random_borel_ideal(nv, 5, rng.randint(1, 2), rng)
            if B.is_zero or B.is_unit:
                continue
            done += 1
            assert rgin(monomial_gens(B), GinConfig(seed=done)) == B

    def test_hilbert_functions_preserved(self):
        rng = random.Random(2025)
        for i in range(10):
            gens = [random_polynomial(3, 3, 3, rng) for _ in range(2)]
            if all(g.is_zero for g in gens):
                continue
            lt = leading_term_ideal(buchberger(gens))
            B = rgin(gens, GinConfig(seed=100 + i))
            top = max([B.max_generator_degree() or 0, 1])
            for d in range(0, top + 3):
                assert hilbert_function(lt, d) == hilbert_function(B, d)

    def test_generator_degree_coverage(self):
        rng = random.Random(2026)
        for i in range(10):
            gens = [random_polynomial(3, 3, 3, rng) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            B = rgin(gens, GinConfig(seed=200 + i))
            if B.is_unit or B.is_zero:
                continue
            top_input = max(g.total_degree() for g in gens)
            reg = regularity_stable(B)
            degrees = {g.degree() for g in B.generators}
            for d in range(top_input, reg + 1):
                assert d in degrees

    def test_monomial_generator_degrees_survive(self):
        from helpers import random_exponent
        rng = random.Random(2027)
        done = 0
        while done < 10:
            nv = rng.randint(2, 3)
            seeds = [random_exponent(rng.randint(1, 4), nv, rng)
                     for _ in range(rng.randint(1, 3))]
            I = MonomialIdeal(seeds, nv)  # generic monomial ideal, rarely Borel
            if I.is_zero or I.is_unit:
                continue
            done += 1
            B = rgin(monomial_gens(I), GinConfig(seed=300 + done))
            input_degrees = {g.degree() for g in I.generators}
            got = {g.degree() for g in B.generators}
            assert input_degrees <= got

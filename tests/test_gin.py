"""Randomized generic initial ideals: goldens, certification, agreement."""

import random

import pytest

from arrfree import (GenericityExhaustedError, GinConfig, LinearChange,
                     MonomialIdeal, Polynomial, PowerProduct, buchberger,
                     hilbert_function, leading_term_ideal,
                     random_linear_change, regularity_stable, rgin)
from arrfree import gin as gin_module
from helpers import monomial_gens, poly, polys, random_borel_ideal, \
    random_polynomial

CFG = GinConfig(seed=42)


class TestRandomLinearChange:
    def test_one_variable(self):
        g = random_linear_change(1, random.Random(3), 4)
        assert g.matrix[0][0] != 0

    def test_deterministic(self):
        a = random_linear_change(3, random.Random(9), 10)
        b = random_linear_change(3, random.Random(9), 10)
        assert a == b

    def test_always_invertible(self):
        rng = random.Random(10)
        for _ in range(20):
            random_linear_change(2, rng, 1)  # construction validates det != 0


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


class TestGenericityFailure:
    def test_identity_matrices_exhaust(self, monkeypatch):
        def rigged(l, rng, bound):
            return LinearChange.identity(l)
        monkeypatch.setattr(gin_module, "random_linear_change", rigged)
        gens = polys(["z^5", "x*y*z^3"], 3)  # its own leading terms are not Borel
        with pytest.raises(GenericityExhaustedError) as err:
            rgin(gens, GinConfig(seed=1, max_retries=2))
        assert len(err.value.observed) == 4  # 2 retries x 2 trials

    def test_tiny_entry_bound_can_exhaust(self):
        # with entries in {-1, 0, 1} this seed never reaches agreement
        gens = polys(["x^4 - y^2*z^2", "x*y^2 - y*z^2 - z^3"], 3)
        with pytest.raises(GenericityExhaustedError) as err:
            rgin(gens, GinConfig(seed=2, entry_bound=1))
        assert err.value.observed
        # a slightly larger bound restores the golden answer
        B = rgin(gens, GinConfig(seed=2, entry_bound=2))
        assert str(B) == "<x^3, x^2*y^2, x*y^4, y^6>"


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
        f = poly("x^2", 2).scale("1/7")
        with pytest.raises(ZeroDivisionError):
            rgin([f], GinConfig(seed=1, mode="modular", primes=(7, 11)))


class TestChainRule:
    def test_moved_product_and_substituted_partials_agree(self):
        # grad(Q o g) = g^T (grad Q o g) with g^T invertible, so the two
        # generator lists differ but span one ideal: one reduced basis
        from arrfree import (GF, QQ, Arrangement, apply_linear_change,
                             defining_polynomial, jacobian_ideal)
        from helpers import distinct_random_forms
        rng = random.Random(31)
        A = Arrangement(distinct_random_forms(3, 6, rng))
        for field in (QQ, GF(32003)):
            for _ in range(3):
                # entries in [-10, 10] keep |det| below 32003: g stays invertible
                g = random_linear_change(3, rng, 10)
                Qg = apply_linear_change(defining_polynomial(A).convert(field), g)
                moved = [Qg.partial_derivative(i) for i in (1, 2, 3)]
                substituted = gin_module.substituted(jacobian_ideal(A), g, field)
                assert moved != substituted
                assert buchberger(moved) == buchberger(substituted)


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

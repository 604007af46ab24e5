"""Arrangements: validation, Jacobian ideals, freeness, exponents."""

import io
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrfree import (Arrangement, ArrangementError, DimensionError,
                     ExponentVector, GinConfig, INFINITE,
                     InternalConsistencyError, NotFreeRginError, Polynomial, PowerProduct,
                     StronglyStableIdeal, analyze, check_conjecture_Z,
                     exponents_from_rgin, jacobian_ideal, jacobian_rgin,
                     realizable_as_free, reduction_number, rgin,
                     rgin_from_exponents, supersolvable_from_exponents)
from arrfree import random_linear_change, variables
from arrfree import arrangement as arrangement_module
from arrfree import gin as gin_module
from arrfree import groebner as groebner_module
from arrfree.arrangement import (_free_by_generator_shape, is_cm_codim2_stable,
                                  sectional_bounds)
from arrfree.cli import load_input, report_to_dict
from arrfree.groebner import _expand, _poly
from arrfree.polyring import apply_linear_change
from helpers import arrangement as bench_arrangement
from helpers import (bench_workloads, borel_closure, defining_polynomial,
                     derivative, distinct_random_forms, poly, polys,
                     random_borel_ideal, random_linear_form, residues)

CFG = GinConfig(seed=9)
INPUTS = Path(__file__).resolve().parents[1] / "inputs"


def arrangement(texts, nvars):
    return Arrangement(polys(texts, nvars))


class TestValidate:
    def test_essential_frame(self):
        A = arrangement(["x", "y", "z", "x-y"], 3)
        assert A.essential and (A.n, A.l) == (4, 3)

    def test_non_essential(self):
        assert not arrangement(["x", "x-y"], 3).essential

    def test_repeated_hyperplane(self):
        with pytest.raises(ArrangementError,
                           match="^forms #1 and #2 define the same hyperplane$"):
            arrangement(["x", "2x"], 2)

    def test_repeated_up_to_rational_and_negative_multiples(self):
        forms = polys(["2x - y", "z", "-2x + y", "z", "x + y"], 3)
        forms[0] = forms[0].scale(Fraction(1, 2))           # x - y/2
        forms[3] = forms[3].scale(Fraction(-3, 4))
        with pytest.raises(ArrangementError) as err:
            Arrangement(forms)
        assert str(err.value) == ("forms #1 and #3 define the same hyperplane; "
                                  "forms #2 and #4 define the same hyperplane")

    def test_primitive_rows_keep_signs(self):
        A = Arrangement([poly("2x - 4y", 3).scale(Fraction(1, 3)),
                         poly("-z", 3), poly("x", 3)])
        assert A.rows == ((1, -2, 0), (0, 0, -1), (1, 0, 0))
        assert A.content == Fraction(2, 3)

    def test_each_hyperplane_read_once(self, monkeypatch):
        forms = polys(["x", "y", "z", "x - y", "2x + 3y - z"], 3)
        read = []

        def counted(f):
            read.append(f)
            return primitive_row(f)

        primitive_row = arrangement_module._primitive_row
        monkeypatch.setattr(arrangement_module, "_primitive_row", counted)
        A = Arrangement(forms)
        assert read == forms
        assert A.rows[4] == (2, 3, -1) and A.content == 1

    def test_rejects_empty_mixed_and_modular_forms(self):
        with pytest.raises(ArrangementError, match="at least one hyperplane"):
            Arrangement([])
        with pytest.raises(DimensionError, match="form #2 lives in 2 variables"):
            Arrangement(polys(["x"], 3) + polys(["y"], 2))

    def test_nonlinear_rejected(self):
        with pytest.raises(ArrangementError, match=r"^form #1 \(x\^2\) is not linear"):
            arrangement(["x^2"], 2)
        # every form that is not linear is named, and no duplicate is sought
        with pytest.raises(ArrangementError, match=r"^form #2 \(x \+ 1\) is not "
                           r"linear homogeneous; form #3 \(x \+ 1\) is not"):
            arrangement(["x", "x + 1", "x + 1"], 2)


def expanded_product(A):
    """Q = the product of the forms, as ``_expand`` builds it from the
    primitive rows, times the content."""
    return _poly(_expand(A.rows, None)[0], 1, A.nvars).scale(A.content)


class TestDefiningPolynomial:
    def test_product(self):
        A = arrangement(["x", "y", "z", "x+y", "x-y"], 3)
        assert expanded_product(A) == poly("x^3*y*z - x*y^3*z", 3)

    def test_single(self):
        A = Arrangement([Polynomial.variable(1, 1)])
        assert expanded_product(A) == Polynomial.variable(1, 1)

    def test_degree_is_count(self):
        rng = random.Random(12)
        for _ in range(10):
            forms = distinct_random_forms(3, rng.randint(1, 5), rng)
            A = Arrangement([f.scale(random_fraction(rng)) for f in forms])
            Q = expanded_product(A)
            assert Q == defining_polynomial(A) and Q.total_degree() == A.n


class TestJacobianIdeal:
    def test_single_hyperplane_is_unit(self):
        A = Arrangement([Polynomial.variable(1, 1)])
        gens = jacobian_ideal(A)
        assert gens == [Polynomial.constant(1, 1)]

    def test_braid_like(self):
        A = arrangement(["x", "y", "z", "x-y"], 3)
        gens = jacobian_ideal(A)
        assert len(gens) == 3
        assert all(g.total_degree() == 3 for g in gens)


def perturbed_staircase():
    """The staircase with exponents (1, 2, 3), last form made random."""
    base = supersolvable_from_exponents((1, 2, 3))
    rng = random.Random(4)
    while True:
        forms = list(base.forms[:-1]) + [random_linear_form(3, rng, bound=7)]
        try:
            return Arrangement(forms)
        except ArrangementError:         # two forms define one hyperplane
            continue


class TestUniqueGin:
    """The gin is unique, so every seed in either coefficient mode gives the
    same rgin of an input file."""

    @pytest.mark.parametrize("path", sorted(INPUTS.glob("*.arr")),
                             ids=lambda path: path.stem)
    def test_one_rgin_per_file(self, path):
        A = load_input(str(path)).as_arrangement()
        rgins = {jacobian_rgin(A, GinConfig(seed=seed, mode=mode))
                 for seed in range(1, 9) for mode in ("exact", "modular")}
        assert len(rgins) == 1, rgins


class TestTrialRoutes:
    """Moving the forms gives what substituting into the partials gives."""

    CASES = {
        "five_free": ["x", "y", "z", "x+y", "x-y"],
        "five_not_free": ["x", "x+y-z", "x+z", "x+2z", "x+y+z"],
        "seven_a": ["x", "y", "z", "x-z", "x+z", "y-z", "y+z"],
        "seven_b": ["x", "y", "z", "x+y-z", "x+y+z", "x-y-z", "x-y+z"],
    }

    def arrangements(self):
        for name, forms in self.CASES.items():
            yield name, arrangement(forms, 3)
        yield "staircase", supersolvable_from_exponents((1, 2, 3))
        yield "perturbed", perturbed_staircase()
        yield "fractions", Arrangement([  # non-integer coefficients
            poly("x", 3).scale(Fraction(2, 3)), poly("y - z", 3).scale(Fraction(-7, 4)),
            poly("z", 3), poly("3x + 5y", 3).scale(Fraction(1, 10)),
            poly("x + y + z", 3).scale(Fraction(5, 6))])

    @pytest.mark.parametrize("mode", ["exact", "modular"])
    def test_same_rgin_and_matrices(self, mode):
        cfg = GinConfig(seed=13, mode=mode)
        for name, A in self.arrangements():
            moved = jacobian_rgin(A, cfg)
            substituted = rgin(jacobian_ideal(A), cfg)
            assert moved.generators == substituted.generators, name
            assert moved.certificate == substituted.certificate, name

    @pytest.mark.parametrize("mode", ["exact", "modular"])
    @pytest.mark.parametrize("l", range(2, 5))
    def test_random_arrangements(self, l, mode):
        # one form that p divides and one with fraction coefficients
        rng = random.Random(50 + l)
        A = random_arrangement(l, rng)
        cfg = GinConfig(seed=l, mode=mode)
        moved = jacobian_rgin(A, cfg)
        substituted = rgin(jacobian_ideal(A), cfg)
        assert moved.generators == substituted.generators
        assert moved.certificate == substituted.certificate

    def test_forms_without_an_image_mod_p(self):
        # x/p and p*y have no image mod p, but their product does
        p = 32003
        A = Arrangement([poly("x", 3).scale(Fraction(1, p)), poly("y", 3).scale(p),
                         poly("z", 3), poly("x+y", 3), poly("x-y+z", 3)])
        cfg = GinConfig(seed=5, mode="modular", primes=(p, 32009))
        moved = jacobian_rgin(A, cfg)
        substituted = rgin(jacobian_ideal(A), cfg)
        assert moved.generators == substituted.generators
        assert moved.certificate == substituted.certificate


def random_fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 40))


def random_arrangement(l, rng):
    """l + 1 forms in l variables: one that 32003 divides, one with
    fraction coefficients, the rest integer."""
    forms = distinct_random_forms(l, l + 1, rng)
    return Arrangement([forms[0].scale(32003), forms[1].scale(random_fraction(rng)),
                        *forms[2:]])


class TestUnmovedHint:
    """Every exact draw skips pairs by the Hilbert function of a truncated
    run on the unmoved generators, and gives what it gives without it."""

    @staticmethod
    def both(A, cfg):
        hinted = jacobian_rgin(A, cfg)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(gin_module, "hilbert_hint", lambda *a, **k: None)
            plain = jacobian_rgin(A, cfg)
        return hinted, plain

    def assert_same(self, A, cfg):
        hinted, plain = self.both(A, cfg)
        assert hinted.generators == plain.generators
        assert hinted.certificate == plain.certificate
        assert hinted.certificate.discarded == plain.certificate.discarded

    @pytest.mark.parametrize("l", range(2, 5))
    def test_random_arrangements(self, l):
        rng = random.Random(70 + l)
        for seed in range(3):
            forms = distinct_random_forms(l, rng.randint(l, l + 3), rng)
            self.assert_same(Arrangement(forms), GinConfig(seed=seed))
        self.assert_same(random_arrangement(l, rng), GinConfig(seed=l))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ziegler_pair(self, seed, monkeypatch):
        workloads = bench_workloads(monkeypatch)
        for rows in (workloads.ZIEGLER_1, workloads.ZIEGLER_2):
            self.assert_same(bench_arrangement(rows), GinConfig(seed=seed))

    def test_trials_reduce_almost_nothing_to_zero(self, monkeypatch):
        # zero remainders of the dense rows inside the trials of one
        # corpus_exact pass; the hint's own run is not a trial.  The hints
        # are kept alive, so no later engine reuses the id of one.
        hints, zeros = {}, []
        hint = gin_module.hilbert_hint
        monkeypatch.setattr(gin_module, "hilbert_hint", lambda *a, **k:
                            hints.setdefault(id(h := hint(*a, **k)), h))
        original = groebner_module._Engine._reduce_row

        def counted(engine, *a):
            out = original(engine, *a)
            zeros.append(id(engine) not in hints and not out)
            return out
        monkeypatch.setattr(groebner_module._Engine, "_reduce_row", counted)
        cases = bench_workloads(monkeypatch).corpus_exact(1, 0)
        for case in cases:
            jacobian_rgin(bench_arrangement(case.forms), GinConfig(seed=case.gin_seed))
        assert len(cases) == 13 and len(hints) == 13
        assert zeros and sum(zeros) <= 8   # 64 when every first draw runs unhinted


PACKED_FIELDS = pytest.mark.parametrize("p", [None, 32003], ids=["QQ", "GF32003"])


class TestPackedTrials:
    """Each rgin trial is built by ``_expand`` in the kernel's packed keys."""

    @PACKED_FIELDS
    @pytest.mark.parametrize("l", range(2, 6))
    def test_trials_are_the_moved_partials(self, l, p, monkeypatch):
        builds = []
        monkeypatch.setattr(arrangement_module, "rgin",
                            lambda nvars, cfg, build: builds.append(build))
        rng = random.Random(60 + l)
        for _ in range(3 if l < 5 else 1):     # substitution is slow at l = 5
            A = random_arrangement(l, rng)
            jacobian_rgin(A, CFG)
            if p is None:
                g = random_linear_change(l, rng, 10)
            else:
                g = random_linear_change(l, rng, modulus=p)
            trial = builds.pop()(g, p)
            # the reference: the primitive product, moved, then differentiated,
            # read mod p term by term when p is set
            Qg = apply_linear_change(defining_polynomial(A).scale(1 / A.content), g)
            assert trial == [residues(derivative(Qg, i), p) for i in range(1, l + 1)]
            for t in trial:
                assert all(c and (p is None or 0 < c < p) for c in t.values())

    @PACKED_FIELDS
    @pytest.mark.parametrize("l", range(1, 6))
    def test_euler_relation(self, l, p):
        # sum x_i * dQ/dx_i = n * Q on _expand's output, with entries far
        # outside [0, p) and rows that p divides
        rng = random.Random(70 + l)
        for n in (1, 4, 7):
            rows = [[rng.randint(-40000, 40000) for _ in range(l)] for _ in range(n)]
            rows[0] = [32003 * rng.randint(1, 3)] + [0] * (l - 1)
            Q, *partials = [_poly(t, 1, l) for t in _expand(rows, p)]
            euler = Polynomial.zero(l)
            for x, dQ in zip(variables(l), partials):
                euler = euler + x * dQ
            assert residues(euler, p) == residues(Q.scale(n), p)
            assert Q.is_zero == (p is not None)


class TestScaledForms:
    """J(A) depends only on the hyperplanes, not on how each form is scaled."""

    @pytest.mark.parametrize("mode", ["exact", "modular"])
    def test_same_rgin_and_matrices(self, mode):
        # forms that vanish mod p, then forms whose denominators p divides,
        # then both; the other forms get random fractions
        cfg = GinConfig(seed=13, mode=mode)
        rng = random.Random(23)
        p, q = cfg.primes
        for name, A in TestTrialRoutes().arrangements():
            before = jacobian_rgin(A, cfg)
            for primes in ([p, q], [Fraction(1, p), Fraction(-1, q)],
                           [p, Fraction(1, p), -q, Fraction(1, q)]):
                factors = [Fraction(c) for c in primes]
                factors += [random_fraction(rng) for _ in A.forms[len(factors):]]
                rng.shuffle(factors)
                after = jacobian_rgin(
                    Arrangement([f.scale(c) for f, c in zip(A.forms, factors)]), cfg)
                assert after.generators == before.generators, (name, primes)
                assert after.certificate == before.certificate, (name, primes)


class TestAgainstSympy:
    @pytest.mark.parametrize("l", range(1, 6))
    def test_product_and_partials(self, l):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(f"s0:{l}")

        def to_sympy(f):
            return sympy.Poly.from_dict(
                {tuple(pp): sympy.Rational(c) for pp, c in f.terms()}, *xs)

        rng = random.Random(40 + l)
        for _ in range(4):
            n = 1 if l == 1 else rng.randint(2, 6)
            A = Arrangement([f.scale(random_fraction(rng))
                             for f in distinct_random_forms(l, n, rng)])
            Q = sympy.prod(sympy.expand(to_sympy(f).as_expr()) for f in A.forms)
            Q = sympy.Poly(sympy.expand(Q), *xs)
            assert to_sympy(expanded_product(A)) == Q
            assert [to_sympy(dQ) for dQ in jacobian_ideal(A)] == [Q.diff(x) for x in xs]


class TestFreenessGoldens:
    def test_free_five_planes(self):
        A = arrangement(["x", "y", "z", "x+y", "x-y"], 3)
        rep = analyze(A, CFG)
        assert rep.free and not rep.trivially_free
        assert str(rep.rgin) == "<x^4, x^3*y, x^2*y^2, x*y^4, y^6>"
        assert rep.exponents == (1, 1, 3)

    def test_three_lines_in_forty_variables(self):
        # the forms involve x1 and x2 alone, and so do the rgin's generators:
        # the sectional matrix enumerates monomials of x1, x2 only and
        # weights each by its multiples in the other 38 variables
        start = time.perf_counter()
        rep = analyze(arrangement(["x1", "x2", "x1+x2"], 40))
        assert time.perf_counter() - start < 10
        assert rep.free and str(rep.rgin) == "<x1^2, x1*x2, x2^3>"

    def test_sectional_bounds_match_report(self):
        for texts in (["x", "y", "z", "x+y", "x-y"],
                      ["x", "x+y-z", "x+z", "x+2z", "x+y+z"]):
            rep = analyze(arrangement(texts, 3), CFG)
            d0, reg, dmax = sectional_bounds(rep.rgin)
            assert (d0, reg) == (rep.d0, rep.regularity)
            assert dmax == rep.sectional.dmax == max(reg, d0) + 2
        assert sectional_bounds(StronglyStableIdeal([], 3))[:2] == (None, None)

    def test_infinite_reduction_number_gives_no_d0(self):
        B = StronglyStableIdeal([(1, 0, 0)], 3)     # no pure power of x_2
        assert reduction_number(B, 1) is INFINITE
        assert sectional_bounds(B)[0] is None

    # x_2^(d0+1) is a minimal generator when d0 is finite, so d0 + 2 never
    # exceeds regularity + 1 and the default dmax is regularity + 2 alone
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda l: st.tuples(st.just(l), st.lists(
        st.lists(st.integers(0, 3), min_size=l, max_size=l), max_size=3))))
    def test_default_dmax_is_regularity_plus_two(self, case):
        l, seeds = case
        B = StronglyStableIdeal.from_ideal(borel_closure(seeds, l))
        d0, reg, dmax = sectional_bounds(B)
        if B.is_zero:
            assert (reg, dmax) == (None, 2)
            return
        assert dmax == reg + 2
        if d0 is not None:
            assert PowerProduct((0, d0 + 1) + (0,) * (l - 2)) in B.generators
            assert d0 + 2 <= reg + 1

    def test_not_free_five_planes(self):
        A = arrangement(["x", "x+y-z", "x+z", "x+2z", "x+y+z"], 3)
        rep = analyze(A, CFG)
        assert not rep.free
        assert str(rep.rgin) == "<x^4, x^3*y, x^2*y^2, x*y^4, y^5, x*y^3*z^2>"
        assert rep.exponents is None

    def test_trivially_free(self):
        A = Arrangement([Polynomial.variable(1, 1)])
        rep = analyze(A, CFG)
        assert rep.free and rep.trivially_free
        assert rep.exponents == (1,)
        assert rep.sectional.is_zero  # the zero-matrix branch of both tests

    def test_sectional_free(self):
        A = arrangement(["x", "y", "z", "x+y", "x-y"], 3)
        rep = analyze(A, CFG)
        assert rep.free and rep.d0 == 5
        M = rep.sectional
        assert M.m(3, 5) == M.m(3, 6) == M.m(3, 7) == 13
        assert sum(M.m(2, d) for d in range(6)) == 13

    def test_sectional_not_free(self):
        A = arrangement(["x", "x+y-z", "x+z", "x+2z", "x+y+z"], 3)
        rep = analyze(A, CFG)
        assert not rep.free and rep.d0 == 4
        M = rep.sectional
        assert M.m(3, 4) == M.m(3, 5) == 12
        assert M.m(3, 6) == 11

    def test_methods_agree_in_one_run(self):
        A = arrangement(["x", "y", "z", "x+y", "x-y"], 3)
        rep = analyze(A, CFG)
        assert rep.free and report_to_dict(rep)["method"] == "both"
        assert analyze(A, CFG) == rep

    # analyze decides by both, so negating either one raises
    @pytest.mark.parametrize("entry", [analyze], ids=["both"])
    @pytest.mark.parametrize("patched", ["_free_by_sectional",
                                         "_free_by_generator_shape"])
    def test_negated_verdict_raises(self, monkeypatch, patched, entry):
        test = getattr(arrangement_module, patched)
        monkeypatch.setattr(arrangement_module, patched, lambda *a: not test(*a))
        for texts in (["x", "y", "z", "x+y", "x-y"],
                      ["x", "x+y-z", "x+z", "x+2z", "x+y+z"]):
            with pytest.raises(InternalConsistencyError,
                               match="freeness verdicts disagree"):
                entry(arrangement(texts, 3), CFG)

    def test_planar_arrangements_always_free(self):
        rng = random.Random(4)
        for _ in range(5):
            forms = distinct_random_forms(2, rng.randint(2, 6), rng)
            rep = analyze(Arrangement(forms), GinConfig(seed=31))
            assert rep.free

    def test_non_essential_freeness_no_exponents(self):
        A = arrangement(["x", "y", "x-y"], 3)  # rank 2 in 3-space
        rep = analyze(A, CFG)
        assert rep.free and not rep.essential
        assert rep.exponents is None
        with pytest.raises(NotFreeRginError):
            exponents_from_rgin(rep.rgin)
        # in 4-space the rgin is that of the essentialization, exponents
        # (1, 2), padded with zeros: its round trip passes
        A = arrangement(["x", "y", "x+y"], 4)
        rep = analyze(A, CFG)
        assert rep.free and not rep.essential and rep.exponents is None
        assert str(rep.rgin) == str(rgin_from_exponents((1, 2))) \
            == "<x^2, x*y, y^3>"


def three_probe_oracle(B, n):
    """The paper's generator-shape test read literally: x1^(n-1) is a
    minimal generator, so is a pure power of x2, and no minimal generator
    involves x3 or a later variable."""
    if B.is_unit:
        return True
    l = B.nvars
    x1_power = PowerProduct(tuple(n - 1 if j == 0 else 0 for j in range(l)))
    has_x1 = x1_power in B.generators
    has_x2_power = l >= 2 and any(
        g.degree() >= 1 and g.degree() == g[1] for g in B.generators)
    no_higher = all(g.max_variable() <= 2 for g in B.generators)
    return has_x1 and has_x2_power and no_higher


class TestGeneratorShape:
    def test_agrees_with_three_probe_oracle(self):
        # on a strongly stable B the three probes say that B is the
        # two-variable lex segment on n generators
        rng = random.Random(17)
        free = checks = 0
        for _ in range(400):
            l = rng.randint(1, 4)
            B = StronglyStableIdeal.from_ideal(
                random_borel_ideal(l, 6, rng.randint(1, 3), rng))
            for n in range(1, 9):
                verdict = _free_by_generator_shape(B, n, is_cm_codim2_stable(B))
                assert verdict == three_probe_oracle(B, n), (B, n)
                free += verdict
                checks += 1
        for e in all_exponent_vectors(7, 3):
            R = rgin_from_exponents(e)
            B = StronglyStableIdeal([g + (0,) for g in R.generators], len(e) + 1)
            shape = is_cm_codim2_stable(B)
            for n in (sum(e) - 1, sum(e), sum(e) + 1):
                assert _free_by_generator_shape(B, n, shape) == three_probe_oracle(B, n)
                assert _free_by_generator_shape(B, n, shape) == (n == sum(e))
        unit = StronglyStableIdeal([(0, 0, 0)], 3)
        assert _free_by_generator_shape(unit, 4, None) and three_probe_oracle(unit, 4)
        assert free > 40 and checks - free > 1000


class TestExponentConversions:
    def test_exponents_from_rgin_goldens(self):
        quad = StronglyStableIdeal(
            [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 4, 0)], 3)
        assert exponents_from_rgin(quad) == (1, 1, 2)
        seven = StronglyStableIdeal(
            [(6, 0, 0), (5, 1, 0), (4, 2, 0), (3, 4, 0), (2, 5, 0),
             (1, 7, 0), (0, 8, 0)], 3)
        assert exponents_from_rgin(seven) == (1, 3, 3)
        five = StronglyStableIdeal(
            [(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 4, 0), (0, 6, 0)], 3)
        assert exponents_from_rgin(five) == (1, 1, 3)

    def test_rgin_from_exponents_goldens(self):
        assert str(rgin_from_exponents((1, 1, 2))) == "<x^3, x^2*y, x*y^2, y^4>"
        assert str(rgin_from_exponents((1, 3, 3))) == \
            "<x^6, x^5*y, x^4*y^2, x^3*y^4, x^2*y^5, x*y^7, y^8>"
        assert str(rgin_from_exponents((1, 2, 4))) == \
            "<x^6, x^5*y, x^4*y^2, x^3*y^4, x^2*y^5, x*y^7, y^9>"

    def test_rgin_from_exponents_matches_the_constructor(self):
        # built without a minimalize pass, yet equal, in the same order, to
        # what the constructor minimalizes and checks
        vectors = [(1,)]
        for e in vectors:
            B = rgin_from_exponents(e)
            assert type(B) is StronglyStableIdeal and B.certificate is None
            assert B.generators == StronglyStableIdeal(B.generators, len(e)).generators
            if len(e) < 4:
                vectors += [e + (v,) for v in range(e[-1], 9 - sum(e))]
        assert len(vectors) == 1 + 7 + 12 + 11

    def test_requires_leading_one(self):
        with pytest.raises(ValueError):
            rgin_from_exponents((2, 2))

    def test_exponent_vector_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            ExponentVector(())
        with pytest.raises(ValueError):
            ExponentVector((1, 0))
        with pytest.raises(ValueError):
            ExponentVector((2, 1))

    def test_roundtrip_all_small(self):
        for e in [ExponentVector((1,)), *all_exponent_vectors(8, 4)]:
            B = rgin_from_exponents(e)
            assert exponents_from_rgin(B) == e

    def test_shape_violations(self):
        with pytest.raises(NotFreeRginError):
            exponents_from_rgin(StronglyStableIdeal(
                [(3, 0), (2, 2), (1, 4), (0, 6)], 2))


def all_exponent_vectors(max_sum, max_l):
    out = []
    for l in range(2, max_l + 1):
        def rec(prefix, remaining):
            if len(prefix) == l:
                out.append(ExponentVector(prefix))
                return
            lo = prefix[-1]
            slots = l - len(prefix)
            for v in range(lo, remaining + 1):
                if v * slots <= remaining:
                    rec(prefix + [v], remaining - v)
        rec([1], max_sum - 1)
    return out


class TestSupersolvable:
    def test_golden_seven(self):
        A = supersolvable_from_exponents((1, 2, 4))
        assert [str(f) for f in A.forms] == [
            "x", "x - y", "x - 2*y", "x - z", "x - 2*z", "x - 3*z", "x - 4*z"]
        assert A.essential and A.n == 7

    def test_two_lines(self):
        A = supersolvable_from_exponents((1, 1))
        assert [str(f) for f in A.forms] == ["x", "x - y"]

    def test_frame(self):
        A = supersolvable_from_exponents((1, 1, 1))
        assert [str(f) for f in A.forms] == ["x", "x - y", "x - z"]

    def test_requires_leading_one(self):
        with pytest.raises(ValueError):
            supersolvable_from_exponents((2, 3))

    def test_construction_soundness_all_small(self):
        for i, e in enumerate(all_exponent_vectors(8, 4)):
            A = supersolvable_from_exponents(e)
            rep = analyze(A, GinConfig(seed=50 + i))
            assert rep.free and rep.exponents == e
            assert rep.rgin == rgin_from_exponents(e)


class TestStructuralLaws:
    def test_free_reports(self):
        cases = [(1, 1), (1, 3), (1, 1, 2), (1, 2, 2), (1, 1, 1, 2)]
        for i, e in enumerate(cases):
            A = supersolvable_from_exponents(e)
            rep = analyze(A, GinConfig(seed=70 + i))
            n, l = rep.n, rep.l
            # generator counts: n in total, l of them in degree n - 1
            degs = [g.degree() for g in rep.rgin.generators]
            assert len(degs) == n
            assert sum(1 for d in degs if d == n - 1) == l
            # regularity bound for free essential arrangements
            assert rep.regularity <= 2 * n - l - 1
            # top lex-segment step ties to the reduction number
            from arrfree import is_cm_codim2_stable
            shape = is_cm_codim2_stable(rep.rgin)
            lam = shape.lambdas
            assert lam[-1] == rep.d0 + 1
            assert all(b - a in (1, 2) for a, b in zip(lam, lam[1:]))
            # first Betti column pattern of a realizable staircase
            assert rep.betti.beta0[n - 1] == rep.betti.beta1[n] + 1 == l


class TestRealizability:
    def test_wrong_count_at_minimal_degree(self):
        B = StronglyStableIdeal([(3, 0), (2, 2), (1, 4), (0, 6)], 2)
        v = realizable_as_free(B)
        assert not v.realizable and "minimal degree 3 is 1" in v.reason

    def test_degree_hole(self):
        B = StronglyStableIdeal([(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 5, 0)], 3)
        v = realizable_as_free(B)
        assert not v.realizable and v.reason == "no minimal generator of degree 4"

    def test_flat_chain(self):
        B = StronglyStableIdeal([(3, 0), (2, 1), (1, 3), (0, 4)], 2)
        v = realizable_as_free(B)
        assert not v.realizable and "does not drop" in v.reason

    def test_increasing_chain(self):
        B = StronglyStableIdeal([(5, 0, 0), (4, 1, 0), (3, 2, 0),
                                 (2, 4, 0), (1, 6, 0), (0, 7, 0)], 3)
        v = realizable_as_free(B)
        assert not v.realizable
        assert "beta0(6) = 1 < beta0(7) = 2" in v.reason

    def test_yes_with_witness(self):
        B = rgin_from_exponents((1, 2, 4))
        v = realizable_as_free(B, GinConfig(seed=77))
        assert v.realizable and v.exponents == (1, 2, 4) and v.verified
        assert [str(f) for f in v.arrangement.forms][0] == "x"

    def test_one_variable_unit_ideal(self):
        # the single hyperplane x has Jacobian ideal <1>; in more variables
        # the unit ideal, and the zero ideal in any, are no such rgin
        v = realizable_as_free(rgin_from_exponents((1,)))
        assert v.realizable and v.exponents == (1,) and v.verified
        assert [str(f) for f in v.arrangement.forms] == ["x"]
        for B in (StronglyStableIdeal([(0, 0)], 2), StronglyStableIdeal([], 1),
                  StronglyStableIdeal([], 2)):
            v = realizable_as_free(B)
            assert not v.realizable and v.reason == (
                "the unit and zero ideals are not Jacobian rgins of "
                "essential free arrangements")
        with pytest.raises(NotFreeRginError):
            exponents_from_rgin(StronglyStableIdeal([(0, 0)], 2))

    def test_not_lex_segment(self):
        B = StronglyStableIdeal([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0)], 3)
        v = realizable_as_free(B)
        assert not v.realizable and "codimension 2" in v.reason

    @pytest.mark.parametrize("argv, shown", [
        (["analyze", "inputs/five_planes.arr", "--seed", "7"], "verdict   : FREE\n"),
        (["realize", "inputs/realizable.ideal", "--seed", "7"], "YES: exponents (1, 2, 4)")])
    def test_shape_read_once(self, monkeypatch, argv, shown):
        # a FREE analyze and each chain test of a realize read the
        # lex-segment shape of their ideal once and hand it to the exponent
        # reader; realize runs the chain test twice, before and after it
        # bounds the verification draw by the witness's size
        from arrfree.cli import main
        calls = []
        shape = arrangement_module.is_cm_codim2_stable
        monkeypatch.setattr(arrangement_module, "is_cm_codim2_stable",
                            lambda B: calls.append(B) or shape(B))
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        out = io.StringIO()
        assert main(argv, out=out) == 0
        assert shown in out.getvalue()
        assert len(calls) == (2 if argv[0] == "realize" else 1)


def lambda_count_oracle(B):
    """Realizability read off the lambdas of the lex segment: the counts of
    lambda_i = i + s must start at l - 1 and never increase with s."""
    shape = is_cm_codim2_stable(B)
    if shape is None:
        return False
    lam, n = shape.lambdas, shape.n
    counts = [sum(1 for i, v in enumerate(lam, start=1) if v == i + s)
              for s in range(0, lam[-1] - n + 2)]
    return (1 + counts[0] == B.nvars
            and all(a >= b for a, b in zip(counts, counts[1:]))
            and sum(counts) == len(lam))


class TestRealizabilityOracle:
    def test_chain_test_agrees_with_lambda_counts(self):
        rng = random.Random(23)
        verdicts = []
        for _ in range(600):
            l = rng.randint(2, 4)
            lam = [rng.randint(1, 2)]
            for _ in range(rng.randint(0, 6)):
                lam.append(lam[-1] + rng.randint(1, 3))
            n = len(lam) + 1
            gens = [(n - 1,) + (0,) * (l - 1)]
            gens += [(n - 1 - i, v) + (0,) * (l - 2)
                     for i, v in enumerate(lam, start=1)]
            B = StronglyStableIdeal(gens, l)
            v = realizable_as_free(B, verify=False)
            assert v.realizable == lambda_count_oracle(B), B
            verdicts.append(v.realizable)
        for e in all_exponent_vectors(7, 4):
            B = rgin_from_exponents(e)
            assert realizable_as_free(B, verify=False).realizable
            assert lambda_count_oracle(B)
        assert verdicts.count(True) > 30 and verdicts.count(False) > 300


class TestConjectureHarness:
    def test_holding_case(self):
        B = StronglyStableIdeal([(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 4, 0),
                                 (0, 5, 0), (1, 3, 2)], 3)
        result = check_conjecture_Z(B)
        assert result.holds and result.d0 == 4 and not result.vacuous

    def test_failing_case(self):
        B = StronglyStableIdeal([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0)], 3)
        result = check_conjecture_Z(B)
        assert not result.holds and result.d0 == 2
        assert result.violations == (PowerProduct((1, 0, 1)),)

    def test_vacuous_case(self):
        B = StronglyStableIdeal([(2, 0, 0), (1, 1, 0), (0, 3, 0)], 3)
        result = check_conjecture_Z(B)
        assert result.holds and result.vacuous

    def test_no_pure_power_of_the_second_variable(self):
        # no degree meets an infinite d0: every third-variable generator
        # violates, and the check is not vacuous
        B = StronglyStableIdeal([(2, 0, 0), (1, 1, 0), (1, 0, 1)], 3)
        result = check_conjecture_Z(B)
        assert not result.holds and result.d0 is None and not result.vacuous
        assert result.violations == (PowerProduct((1, 0, 1)),)


class TestVerdictAgreement:
    def test_on_mixed_corpus(self):
        rng = random.Random(404)
        free_count = 0
        for i in range(4):
            e = [(1, 2), (1, 1, 2), (1, 3), (1, 1, 1)][i]
            A = supersolvable_from_exponents(e)
            r1 = analyze(A, GinConfig(seed=500 + i))
            r2 = analyze(A, GinConfig(seed=600 + i))
            assert r1.free == r2.free == True
            free_count += 1
        for i in range(4):
            forms = distinct_random_forms(3, 5, rng)
            A = Arrangement(forms)
            r1 = analyze(A, GinConfig(seed=700 + i))
            r2 = analyze(A, GinConfig(seed=800 + i))
            assert r1.free == r2.free

"""Ring arithmetic, the term order, and linear changes of coordinates."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrfree import DimensionError, Polynomial, PowerProduct, variables
from arrfree.polyring import _bareiss, apply_linear_change
from helpers import (derivative, poly, random_linear_form, random_polynomial,
                     row_reduce)

exponents3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


class TestDegRevLex:
    def test_contract_examples(self):
        assert PowerProduct((2, 0, 0)) > PowerProduct((1, 1, 0))
        assert PowerProduct((1, 1, 0)) < PowerProduct((2, 0, 0))
        a = PowerProduct((1, 2, 3))
        assert a == PowerProduct((1, 2, 3)) and a <= a and a >= a
        assert not (a < a or a > a)
        # difference (-1, 2, -1): last nonzero entry negative
        assert PowerProduct((0, 2, 0)) > PowerProduct((1, 0, 1))

    def test_degree_dominates(self):
        assert PowerProduct((0, 0, 3)) > PowerProduct((2, 0, 0))

    def test_length_mismatch(self):
        a, b = PowerProduct((1, 0)), PowerProduct((1, 0, 0))
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(DimensionError):
                compare(a, b)

    @given(exponents3, exponents3)
    def test_antisymmetry(self, a, b):
        pa, pb = PowerProduct(a), PowerProduct(b)
        assert (pa < pb) == (pb > pa) and (pa <= pb) == (pb >= pa)
        # exactly one of <, == and > holds
        assert (pa < pb) + (pa == pb) + (pa > pb) == 1
        assert (pa == pb) == (a == b)
        assert (pa <= pb) == (pa < pb or pa == pb)

    @given(exponents3, exponents3, exponents3)
    def test_transitivity(self, a, b, c):
        pa, pb, pc = PowerProduct(a), PowerProduct(b), PowerProduct(c)
        if pa <= pb and pb <= pc:
            assert pa <= pc

    @given(exponents3, exponents3, exponents3)
    def test_multiplicative(self, a, b, s):
        pa, pb, ps = PowerProduct(a), PowerProduct(b), PowerProduct(s)
        if pa > pb:
            assert pa * ps > pb * ps

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerProduct((1, -1))
        with pytest.raises(ValueError):
            PowerProduct(())

    @given(st.integers(1, 5).flatmap(
        lambda l: st.tuples(*[st.tuples(*[st.integers(0, 6)] * l)] * 2)))
    def test_unvalidated_products(self, ab):
        a, b = ab
        pa, pb = PowerProduct(a), PowerProduct(b)
        product = pa * pb
        assert type(product) is PowerProduct
        assert product == PowerProduct(tuple(x + y for x, y in zip(a, b)))
        with pytest.raises(DimensionError):
            pa * PowerProduct(a + (0,))

    @pytest.mark.parametrize("op", ["divides", "__mul__", "__lt__"])
    def test_operand_length_mismatch(self, op):
        with pytest.raises(DimensionError, match="different lengths"):
            getattr(PowerProduct((1, 0, 0)), op)(PowerProduct((1, 0)))


class TestInputChecks:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: PowerProduct.variable(0, 3), IndexError,
         "variable index 0 out of range 1..3"),
        (lambda: PowerProduct.variable(4, 3), IndexError,
         "variable index 4 out of range 1..3"),
        (lambda: Polynomial({(1, 0): 1}, 3), DimensionError,
         "PowerProduct((1, 0)) has 2 exponents, expected 3"),
        (lambda: Polynomial.zero(2).leading_power_product(), ValueError,
         "the zero polynomial has no leading term"),
        (lambda: variables(2)[0] ** -1, ValueError,
         "exponent must be a non-negative integer"),
        (lambda: apply_linear_change(poly("x", 2), [[1, 2]]), DimensionError,
         "a change of 2 variables needs 2 rows, got 1"),
        (lambda: apply_linear_change(poly("x", 2), [[1, 0], [0, 1], [0, 0]]),
         DimensionError, "a change of 2 variables needs 2 rows, got 3"),
        (lambda: apply_linear_change(poly("x", 2), [[1, 0], [0, 1, 0]]),
         DimensionError, "row 2 of the change has 3 entries, expected 2"),
    ], ids=["variable-0", "variable-4", "term-length", "zero-leading-term",
            "negative-power", "non-square-change", "change-row-count",
            "change-row-length"])
    def test_rejected(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message

    def test_third_positional_argument(self):
        # the place of the coefficient field, which polynomials no longer
        # take: a stale call fails instead of skipping the term checks
        with pytest.raises(TypeError, match="takes 3 positional arguments but 4"):
            Polynomial({(1, 0): 1}, 2, object())


class TestArithmetic:
    def test_multiply_examples(self):
        x, y, z = variables(3)
        assert (x + y) * (x - y) == x * x - y * y
        q = x * y * z * (x + y) * (x - y)
        assert q == poly("x^3*y*z - x*y^3*z", 3)
        one = Polynomial.constant(1, 3)
        assert q * one == q

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionError):
            variables(2)[0] * variables(3)[0]

    def test_ring_axioms_random(self):
        rng = random.Random(101)
        for _ in range(40):
            f = random_polynomial(3, 3, 4, rng)
            g = random_polynomial(3, 3, 4, rng)
            h = random_polynomial(3, 3, 4, rng)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f
            assert (f + g) - g == f

    def test_exactness(self):
        f = Polynomial({PowerProduct((1, 0)): Fraction(1, 3)}, 2)
        g = f + f + f
        assert g == Polynomial.variable(1, 2)

    def test_degree_additivity(self):
        rng = random.Random(7)
        for _ in range(30):
            f = random_polynomial(2, 4, 3, rng)
            g = random_polynomial(2, 4, 3, rng)
            if f.is_zero or g.is_zero:
                continue
            assert (f * g).total_degree() == f.total_degree() + g.total_degree()

    def test_pow(self):
        x, y = variables(2)
        assert (x + y) ** 3 == poly("x^3 + 3x^2*y + 3x*y^2 + y^3", 2)
        assert (x + y) ** 0 == Polynomial.constant(1, 2)


class TestDerivatives:
    """The term-by-term derivative of tests/helpers.py, the oracle of the
    kernel's partials."""

    def test_examples(self):
        f = poly("x^3*y*z - x*y^3*z", 3)
        assert derivative(f, 1) == poly("3x^2*y*z - y^3*z", 3)
        assert derivative(poly("x^2", 3), 3).is_zero

    def test_euler_identity_on_products_of_forms(self):
        rng = random.Random(55)
        xs = variables(3)
        for _ in range(20):
            n = rng.randint(1, 5)
            q = Polynomial.constant(1, 3)
            for _ in range(n):
                q = q * random_linear_form(3, rng)
            if q.is_zero:
                continue
            euler = Polynomial.zero(3)
            for i, xi in enumerate(xs, start=1):
                euler = euler + xi * derivative(q, i)
            assert euler == q.scale(n)


class TestLinearChange:
    def test_identity(self):
        f = poly("x^2 + y", 2)
        assert apply_linear_change(f, [[1, 0], [0, 1]]) == f

    def test_swap(self):
        f = poly("x^2 + y", 2)
        swapped = apply_linear_change(f, [[0, 1], [1, 0]])
        assert swapped == poly("y^2 + x", 2)

    def test_inverse_roundtrip(self):
        g = [[2, 1, 0], [1, 1, 3], [0, -1, 1]]
        f = poly("x^3*y*z - x*y^3*z", 3)
        g_inv = [[Fraction(c, 7) for c in row]
                 for row in ([4, -1, 3], [-1, 2, -6], [-1, 2, 1])]
        assert apply_linear_change(apply_linear_change(f, g), g_inv) == f

    def test_singular_change_substitutes(self):
        # substitution needs no inverse: x, y -> x + y, x + y
        f = poly("x^2 + y", 2)
        assert apply_linear_change(f, [[1, 1], [1, 1]]) == poly("(x+y)^2 + x + y", 2)

    def test_row_reduce(self):
        rows, pivots, det = row_reduce([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
        assert rows == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]
        assert pivots == [0, 1] and det == 0
        assert row_reduce([[0, 1], [1, 0]])[2] == -1
        assert row_reduce([["1/2", 1, 7], [0, 3, 5]])[1:] == ([0, 1], Fraction(3, 2))

    def test_degree_preserved_and_homomorphism(self):
        rng = random.Random(99)
        g = [[1, 2, 0], [0, 1, 5], [3, 0, 1]]
        for _ in range(15):
            f1 = random_polynomial(3, 3, 4, rng)
            f2 = random_polynomial(3, 3, 4, rng)
            t1 = apply_linear_change(f1, g)
            t2 = apply_linear_change(f2, g)
            assert apply_linear_change(f1 * f2, g) == t1 * t2
            assert apply_linear_change(f1 + f2, g) == t1 + t2
            if not f1.is_zero:
                assert t1.total_degree() == f1.total_degree()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_linear_change(poly("x", 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestBareiss:
    """The fraction-free elimination behind ``random_linear_change`` and the
    essentiality check, against Gauss-Jordan over QQ (``row_reduce``)."""

    @staticmethod
    def _check(rows):
        _, pivots, det = row_reduce(rows)
        assert _bareiss(rows) == (len(pivots), det)

    def test_examples(self):
        assert _bareiss([[0, 2, 4], [1, 1, 1], [1, 3, 5]]) == (2, 0)
        assert _bareiss([[0, 1], [1, 0]]) == (2, -1)
        assert _bareiss([[2, 1, 0], [1, 1, 3], [0, -1, 1]]) == (3, 7)
        assert _bareiss([[0, 0], [0, 0]]) == (0, 0)
        assert _bareiss([[1, 2, 3]]) == (1, 1)         # leading block [1]
        assert _bareiss([[0, 2, 3]]) == (1, 0)         # leading block [0]
        assert _bareiss([]) == (0, 1)
        for rows in ([], [[0, 0], [0, 0]], [[1, 2, 3]], [[0, 2, 3]]):
            self._check(rows)

    @pytest.mark.parametrize("bound", [1, 9, (1 << 61) - 1])
    def test_random_against_row_reduce(self, bound):
        # square and n x l shapes with small entries are often singular;
        # zero rows, repeated rows and 61-bit entries are mixed in
        rng = random.Random(bound)
        for _ in range(150):
            n, l = rng.randint(1, 5), rng.randint(1, 5)
            if rng.random() < 0.4:
                l = n
            rows = [[rng.randint(-bound, bound) for _ in range(l)] for _ in range(n)]
            if rng.random() < 0.2:
                rows[rng.randrange(n)] = [0] * l
            if n > 1 and rng.random() < 0.2:
                rows[rng.randrange(n)] = list(rows[0])
            self._check(rows)

    def test_rank_of_rank_deficient_products(self):
        # rows in the span of r < min(n, l) random rows: rank r exactly
        rng = random.Random(4)
        for _ in range(40):
            n, l = rng.randint(2, 6), rng.randint(2, 6)
            r = rng.randint(1, min(n, l) - 1)
            basis = [[rng.randint(-(1 << 61), 1 << 61) for _ in range(l)] for _ in range(r)]
            rows = [[sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(l)]
                    for coeffs in ([rng.randint(-5, 5) for _ in range(r)] for _ in range(n))]
            self._check(rows)
            assert _bareiss(rows)[0] <= r


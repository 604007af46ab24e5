"""Monomial ideal combinatorics: staircases, sectional matrices, Betti data."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrfree import (INFINITE, DimensionError, LexSegmentShape, MonomialIdeal,
                     NotStronglyStableError,
                     PowerProduct, StronglyStableIdeal, betti_eliahou_kervaire,
                     codimension, hilbert_function,
                     is_cm_codim2_stable, is_cohen_macaulay,
                     is_strongly_stable, reduction_number,
                     regularity_stable, sectional_matrix, triangle_equality)
from arrfree import monomial as monomial_module
from arrfree.cli import render_sectional_matrix
from arrfree.monomial import count_standard_monomials, degree_monomials
from helpers import borel_closure, random_borel_ideal, random_exponent, \
    standard_monomials_oracle


def B(gens, nvars):
    return MonomialIdeal([PowerProduct(g) for g in gens], nvars)


FIVE = B([(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 4, 0), (0, 6, 0)], 3)
FIVE_Z = B([(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 4, 0), (0, 5, 0), (1, 3, 2)], 3)
# x2*x4^3 has degree 4 and is divisible by x2, but its largest variable is x4
X2X4 = B([(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 2, 0, 0, 0), (1, 0, 1, 0, 0),
          (0, 1, 1, 0, 0), (1, 0, 0, 3, 0), (0, 1, 0, 3, 0), (1, 0, 0, 2, 1),
          (0, 1, 0, 2, 1), (1, 0, 0, 1, 2), (0, 1, 0, 1, 2)], 5)


def _all_moves(t):
    # every x_i * t / x_j with i < j, not only the adjacent ones
    for j in range(len(t)):
        if t[j]:
            for i in range(j):
                moved = list(t)
                moved[j] -= 1
                moved[i] += 1
                yield PowerProduct(moved)


def _stable_all_pairs(I):
    return all(m in I for g in I.generators for m in _all_moves(g))


def _closure_all_pairs(gens, nvars):
    seen, queue = set(), list(gens)
    while queue:
        t = queue.pop()
        if t not in seen:
            seen.add(t)
            queue.extend(_all_moves(t))
    return MonomialIdeal(seen, nvars)


# monomial ideals in l = 1..6 variables: up to four generators of degree <= 4
small_ideals = st.integers(1, 6).flatmap(lambda l: st.lists(
    st.lists(st.integers(0, l - 1), max_size=4).map(
        lambda vs: PowerProduct([vs.count(k) for k in range(l)])),
    min_size=1, max_size=4).map(lambda gens: MonomialIdeal(gens, l)))

# the same shape with exponents past 2^16 mixed in, and the zero ideal
wide_ideals = st.integers(1, 4).flatmap(lambda l: st.lists(
    st.lists(st.sampled_from([0, 1, 2, 3, 2**16 - 1, 2**16, 2**20 + 1]),
             min_size=l, max_size=l).map(PowerProduct),
    max_size=4).map(lambda gens: MonomialIdeal(gens, l)))


class TestMinimalizeContains:
    def test_examples(self):
        assert B([(2,), (3,)], 1).generators == (PowerProduct((2,)),)
        already = B([(2, 0), (0, 3)], 2)
        assert MonomialIdeal(already.generators, 2) == already
        mixed = MonomialIdeal([PowerProduct(g) for g in
                               [(1, 1), (2, 1), (0, 3), (1, 3)]], 2)
        assert mixed == B([(1, 1), (0, 3)], 2)

    def test_generator_order(self):
        # by degree, then DegRevLex descending: PowerProduct compares by DegRevLex
        rng = random.Random(3)
        same_degree = 0
        for _ in range(30):
            gens = random_borel_ideal(4, 5, 3, rng).generators
            for a, b in zip(gens, gens[1:]):
                assert a.degree() < b.degree() or a > b
                same_degree += a.degree() == b.degree()
        assert same_degree > 100

    def test_membership(self):
        I = B([(2, 0)], 2)
        assert PowerProduct((3, 1)) in I
        assert PowerProduct((1, 5)) not in I
        assert PowerProduct((0, 0)) not in MonomialIdeal((), 2)
        with pytest.raises(DimensionError):
            PowerProduct((3, 1, 0)) in I

    def test_unit_and_zero(self):
        assert MonomialIdeal([(0, 0)], 2).is_unit
        assert MonomialIdeal((), 2).is_zero
        # the unit generator swallows everything else
        assert B([(0, 0), (2, 1)], 2) == MonomialIdeal([(0, 0)], 2)


class TestInputChecks:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: MonomialIdeal([(1, 0)], 3), DimensionError,
         "PowerProduct((1, 0)) has 2 exponents, expected 3"),
        (lambda: count_standard_monomials(FIVE, 0, 2), IndexError,
         "row index 0 out of range 1..3"),
        (lambda: count_standard_monomials(FIVE, 4, 2), IndexError,
         "row index 4 out of range 1..3"),
    ], ids=["generator-length", "row-0", "row-l+1"])
    def test_rejected(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message


class TestBorel:
    def test_examples(self):
        assert is_strongly_stable(B([(2, 0), (1, 1), (0, 5)], 2))
        assert not is_strongly_stable(B([(0, 1)], 2))
        assert is_strongly_stable(FIVE)

    def test_unit_and_zero_are_stable(self):
        assert is_strongly_stable(MonomialIdeal([(0, 0, 0)], 3))
        assert is_strongly_stable(MonomialIdeal((), 3))

    def test_closure_is_stable(self):
        rng = random.Random(5)
        for _ in range(25):
            I = random_borel_ideal(rng.randint(2, 4), 5, rng.randint(1, 3), rng)
            assert is_strongly_stable(I)

    @settings(deadline=None)
    @given(wide_ideals, st.sampled_from([2**16 - 1, 2**16, 2**20 + 1]))
    @example(MonomialIdeal((), 1), 2**16)
    @example(MonomialIdeal([(0,)], 1), 2**16)
    @example(MonomialIdeal([(2**16 - 1,)], 1), 1)
    @example(MonomialIdeal([(0, 0, 0, 0)], 4), 2**16 - 1)
    @example(MonomialIdeal((), 4), 2**16 - 1)
    def test_wide_exponents_agree_with_all_pairs(self, I, N):
        # the packed check widens its fields to the largest exponent; x_1^N * I
        # is strongly stable exactly when I is, and its moves into x_1 cross
        # 2^16 when N = 2^16 - 1
        assert is_strongly_stable(I) == _stable_all_pairs(I)
        shifted = MonomialIdeal([PowerProduct((g[0] + N,) + g[1:])
                                 for g in I.generators], I.nvars)
        assert is_strongly_stable(shifted) == _stable_all_pairs(shifted) \
            == _stable_all_pairs(I)

    def test_certified_constructor_rejects(self):
        # the public constructor still checks; only gin.rgin skips the check
        with pytest.raises(NotStronglyStableError):
            StronglyStableIdeal([PowerProduct((0, 1))], 2)
        with pytest.raises(NotStronglyStableError):     # minimalized first
            StronglyStableIdeal([(2, 0, 0), (1, 1, 0), (0, 0, 3), (1, 1, 1)], 3)
        with pytest.raises(NotStronglyStableError):
            StronglyStableIdeal.from_ideal(MonomialIdeal([(0, 2)], 2))

    @settings(deadline=None)
    @given(small_ideals)
    def test_adjacent_moves_agree_with_all_pairs(self, I):
        assert is_strongly_stable(I) == _stable_all_pairs(I)
        closed = borel_closure(I.generators, I.nvars)
        assert closed == _closure_all_pairs(I.generators, I.nvars)
        assert is_strongly_stable(closed) and _stable_all_pairs(closed)
        # dropping a generator may or may not leave a Borel ideal
        for k in range(len(closed.generators)):
            J = MonomialIdeal(closed.generators[:k] + closed.generators[k + 1:],
                              I.nvars)
            assert is_strongly_stable(J) == _stable_all_pairs(J)


def counting_oracle(I, i, d):
    """Inclusion-exclusion count of degree-d standard monomials in x_1..x_i."""
    gens = [g[:i] for g in I.generators if all(e == 0 for e in g[i:])]
    total = math.comb(d + i - 1, i - 1)
    inside = 0
    for r in range(1, len(gens) + 1):
        for sub in itertools.combinations(gens, r):
            lcm = tuple(max(col) for col in zip(*sub))
            rest = d - sum(lcm)
            if rest >= 0:
                inside += (-1) ** (r + 1) * math.comb(rest + i - 1, i - 1)
    return total - inside


class TestCounting:
    def test_direct_examples(self):
        assert count_standard_monomials(MonomialIdeal((), 3), 3, 5) == 21
        assert count_standard_monomials(B([(1, 0, 0)], 3), 3, 4) == 5

    def test_against_inclusion_exclusion(self):
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            nv = rng.randint(2, 4)
            I = random_borel_ideal(nv, 5, rng.randint(1, 2), rng)
            if len(I.generators) > 9:
                continue  # keep the 2^gens oracle affordable
            checked += 1
            for i in range(1, nv + 1):
                for d in range(0, 8):
                    assert count_standard_monomials(I, i, d) == counting_oracle(I, i, d)

    @staticmethod
    def check_packed(I, degrees):
        for d in degrees:
            assert hilbert_function(I, d) == standard_monomials_oracle(I, I.nvars, d), (I, d)
            for i in range(1, I.nvars + 1):
                assert count_standard_monomials(I, i, d) == \
                    standard_monomials_oracle(I, i, d), (I, i, d)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_against_tuple_comparison(self, l):
        # the packed test of count_standard_monomials and hilbert_function
        # against the exponent-by-exponent comparison of the oracle, on
        # Borel and non-Borel ideals, the zero ideal and the unit ideal
        rng = random.Random(3400 + l)
        ideals = [MonomialIdeal((), l), MonomialIdeal([(0,) * l], l)]
        for _ in range(6):
            ideals.append(random_borel_ideal(l, 5, rng.randint(1, 3), rng))
            ideals.append(MonomialIdeal([random_exponent(rng.randint(1, 6), l, rng)
                                         for _ in range(rng.randint(1, 4))], l))
        assert l == 1 or not all(map(is_strongly_stable, ideals))
        for I in ideals:
            self.check_packed(I, range((I.max_generator_degree() or 0) + 4))

    @pytest.mark.parametrize("d", [1, 3, 7, 15])
    def test_widest_fields(self, d):
        # d = 2^k - 1 fills the k value bits of each field: an exponent d
        # sits at the top of its field, generators of degree d + 1 would
        # carry into the spare bit and must be dropped, and some lie beyond
        # x_1..x_i
        rng = random.Random(d)
        for l in (1, 2, 3, 4):
            for _ in range(3):
                gens = [PowerProduct([d + 1] + [0] * (l - 1)),
                        PowerProduct([0] * (l - 1) + [d])]
                gens += [random_exponent(rng.randint(d - 1, d + 1), l, rng)
                         for _ in range(rng.randint(0, 3))]
                self.check_packed(MonomialIdeal(gens, l), (d - 1, d, d + 1))
        assert count_standard_monomials(B([(d + 1,)], 1), 1, d) == 1

    @pytest.mark.parametrize("l", [6, 7, 8])
    def test_generators_in_few_variables(self, l):
        # generators in x_1..x_3 only: rows 4..l weight each standard
        # monomial of x_1..x_k by its multiples in the other variables, and
        # rows 1 and 2 of the first ideal keep no generator at all
        rng = random.Random(3500 + l)
        pad = (0,) * (l - 3)
        ideals = [B([(0, 0, 2) + pad, (0, 1, 1) + pad], l)]
        for _ in range(2):
            small = [random_borel_ideal(3, 4, rng.randint(1, 2), rng).generators,
                     [random_exponent(rng.randint(1, 4), 3, rng)
                      for _ in range(rng.randint(1, 3))]]
            ideals += [B([tuple(g) + pad for g in gens], l) for gens in small]
        if l == 8:
            ideals += [MonomialIdeal((), l), MonomialIdeal([(0,) * l], l)]
        for I in ideals:
            self.check_packed(I, range((I.max_generator_degree() or 0) + 4))

    def test_degree_monomials_count(self):
        assert sum(1 for _ in degree_monomials(6, 3)) == math.comb(8, 2)


class TestSectionalMatrix:
    def test_five_planes_rows(self):
        M = sectional_matrix(FIVE, 8)
        assert M.row(2)[:7] == (1, 2, 3, 4, 2, 1, 0)
        assert M.row(3)[:8] == (1, 3, 6, 10, 12, 13, 13, 13)

    def test_nonfree_rows(self):
        M = sectional_matrix(FIVE_Z, 8)
        assert M.row(3)[:8] == (1, 3, 6, 10, 12, 12, 11, 11)

    def test_whole_ring_is_zero(self):
        M = sectional_matrix(MonomialIdeal([(0, 0, 0)], 3), 4)
        assert M.is_zero

    @pytest.mark.parametrize("entry", [(0, 0), (4, 0), (1, -1), (1, 3)])
    def test_entry_out_of_range(self, entry):
        M = sectional_matrix(FIVE, 2)
        with pytest.raises(IndexError, match="out of range"):
            M.m(*entry)
        if entry[0] in (0, 4):
            with pytest.raises(IndexError, match="row index"):
                M.row(entry[0])

    def test_rejects_negative_dmax(self):
        with pytest.raises(ValueError, match="dmax must be non-negative"):
            sectional_matrix(FIVE, -1)
        assert sectional_matrix(FIVE, 0).row(3) == (1,)

    def test_refuses_non_borel(self):
        I = B([(0, 1)], 2)
        with pytest.raises(NotStronglyStableError):
            sectional_matrix(I, 3)
        raw = tuple(count_standard_monomials(I, 2, d) for d in range(4))
        assert raw == (1, 1, 1, 1)

    def test_triangle_inequality_everywhere(self):
        rng = random.Random(77)
        for _ in range(30):
            I = random_borel_ideal(rng.randint(2, 4), 5, rng.randint(1, 3), rng)
            M = sectional_matrix(I)
            for i in range(2, M.nrows + 1):
                for d in range(1, M.dmax + 1):
                    assert M.m(i, d) <= M.m(i - 1, d) + M.m(i, d - 1)

    def test_stable_rows_beyond_top_degree(self):
        rng = random.Random(78)
        for _ in range(20):
            I = random_borel_ideal(rng.randint(2, 4), 4, rng.randint(1, 3), rng)
            if I.is_zero or I.is_unit:
                continue
            top = I.max_generator_degree()
            M = sectional_matrix(I, top + 3)
            for i in range(1, M.nrows + 1):
                for d in range(top, top + 3):
                    assert M.m(i, d + 1) == sum(M.m(j, d) for j in range(1, i + 1))
                    if i >= 2:
                        assert M.m(i, d + 1) == M.m(i - 1, d + 1) + M.m(i, d)


class TestTriangleEquality:
    def test_example_positions(self):
        I = B([(3, 0, 0), (2, 2, 0), (1, 4, 0), (0, 6, 0)], 3)
        M = sectional_matrix(I, 8)
        assert M.row(3)[:8] == (1, 3, 6, 9, 11, 12, 12, 12)
        assert triangle_equality(M, 3, 4)
        # equality in the third row does not imply the full-sum growth
        assert M.m(3, 4) < sum(M.m(j, 3) for j in range(1, 4))

    def test_failure_position(self):
        J2 = B([(2, 0, 0, 0), (1, 2, 0, 0), (1, 1, 1, 0), (0, 4, 0, 0)], 4)
        M = sectional_matrix(J2, 5)
        assert M.m(3, 3) == 5
        assert not triangle_equality(M, 3, 3)
        assert M.m(3, 2) + M.m(2, 3) == 6

    def test_zero_ideal_always_equal(self):
        M = sectional_matrix(MonomialIdeal((), 3), 6)
        for i in (2, 3):
            for d in range(1, 7):
                assert triangle_equality(M, i, d)

    def test_position_bounds(self):
        M = sectional_matrix(MonomialIdeal((), 2), 3)
        with pytest.raises(IndexError):
            triangle_equality(M, 1, 1)
        with pytest.raises(IndexError):
            triangle_equality(M, 2, 0)

    def test_row_propagation(self):
        rng = random.Random(79)
        for _ in range(25):
            I = random_borel_ideal(rng.randint(3, 4), 5, rng.randint(1, 2), rng)
            if I.is_zero or I.is_unit:
                continue
            reg = regularity_stable(I)
            M = sectional_matrix(I, reg + 3)
            for i in range(2, M.nrows + 1):
                if all(triangle_equality(M, i, d) for d in range(1, reg + 1)):
                    for s in range(i, M.nrows + 1):
                        for d in range(1, M.dmax + 1):
                            assert triangle_equality(M, s, d)

    def test_summation_form(self):
        rng = random.Random(80)
        for _ in range(25):
            I = random_borel_ideal(rng.randint(2, 4), 5, rng.randint(1, 2), rng)
            if I.is_zero or I.is_unit:
                continue
            reg = regularity_stable(I)
            M = sectional_matrix(I, reg + 1)
            for i in range(1, M.nrows):
                lhs = all(triangle_equality(M, i + 1, d) for d in range(1, reg + 1))
                rhs = M.m(i + 1, reg) == sum(M.m(i, d) for d in range(0, reg + 1))
                assert lhs == rhs


class TestEliahouKervaireDefect:
    """M(i,d) - M(i-1,d) - M(i,d-1) is minus the number of degree-d minimal
    generators whose largest variable is x_i."""

    def test_largest_variable_not_divisibility(self):
        assert is_strongly_stable(X2X4)
        M = sectional_matrix(X2X4)
        assert triangle_equality(M, 2, 4)
        assert not triangle_equality(M, 4, 4)
        row2 = render_sectional_matrix(M).splitlines()[2].split()
        assert row2[0] == "i=2:" and not row2[1 + 4].startswith("!")

    # the ideals of test_row_propagation (seed 79) and test_summation_form (80)
    @pytest.mark.parametrize("seed, min_vars", [(79, 3), (80, 2)])
    def test_defect_counts_generators(self, seed, min_vars):
        rng = random.Random(seed)
        defects = 0
        for _ in range(25):
            I = random_borel_ideal(rng.randint(min_vars, 4), 5, rng.randint(1, 2), rng)
            if I.is_zero or I.is_unit:
                continue
            M = sectional_matrix(I, regularity_stable(I) + 3)
            m_table = betti_eliahou_kervaire(I).m_table
            for i in range(2, M.nrows + 1):
                for d in range(1, M.dmax + 1):
                    defect = M.m(i, d) - M.m(i - 1, d) - M.m(i, d - 1)
                    assert defect == -m_table.get((i, d), 0)
                    defects += defect < 0
        assert defects > 20


class TestReductionNumbers:
    def test_examples(self):
        assert reduction_number(FIVE, 1) == 5
        assert reduction_number(FIVE_Z, 1) == 4
        # no pure power of the last variable
        assert reduction_number(B([(1, 0)], 2), 0) is INFINITE
        # the first variable does have a pure power here
        assert reduction_number(B([(1, 0)], 2), 1) == 0

    def test_matches_vanishing_row(self):
        rng = random.Random(81)
        for _ in range(25):
            nv = rng.randint(2, 4)
            I = random_borel_ideal(nv, 5, rng.randint(1, 2), rng)
            if I.is_zero or I.is_unit:
                continue
            reg = regularity_stable(I)
            M = sectional_matrix(I, reg + 2)
            for i in range(0, nv):
                r = reduction_number(I, i)
                row = M.row(nv - i)
                if r is INFINITE:
                    assert row[-1] != 0
                else:
                    assert max((d for d, v in enumerate(row) if v), default=-1) == r

    def test_bounds(self):
        with pytest.raises(IndexError):
            reduction_number(FIVE, 3)

    def test_infinite_is_math_inf(self):
        r = reduction_number(B([(1, 0)], 2), 0)
        assert r is INFINITE and INFINITE is math.inf
        assert r > 2**64


class TestRegularity:
    def test_examples(self):
        assert regularity_stable(B([(2, 0), (1, 1), (0, 5)], 2)) == 5
        assert regularity_stable(B([(1, 0)], 2)) == 1
        assert regularity_stable(FIVE) == 6

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            regularity_stable(MonomialIdeal((), 2))


class TestBetti:
    def test_staircase_example(self):
        bt = betti_eliahou_kervaire(B([(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 4, 0)], 3))
        assert bt.beta0 == {3: 3, 4: 1}
        assert bt.beta1 == {4: 2, 5: 1}

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError, match="unit ideal"):
            betti_eliahou_kervaire(MonomialIdeal([(0, 0, 0)], 3))

    def test_koszul_pair(self):
        bt = betti_eliahou_kervaire(B([(1, 0), (0, 1)], 2))
        assert bt.beta0 == {1: 2}
        assert bt.beta1 == {2: 1}

    def test_five_planes(self):
        bt = betti_eliahou_kervaire(FIVE)
        assert bt.beta0 == {4: 3, 5: 1, 6: 1}
        assert bt.beta1 == {5: 2, 6: 1, 7: 1}
        assert bt.m_table == {(1, 4): 1, (2, 4): 2, (2, 5): 1, (2, 6): 1}

    def test_generator_count(self):
        rng = random.Random(82)
        for _ in range(25):
            I = random_borel_ideal(rng.randint(2, 4), 5, rng.randint(1, 3), rng)
            if I.is_zero or I.is_unit:
                continue
            bt = betti_eliahou_kervaire(I)
            assert sum(bt.beta0.values()) == len(I.generators)


def lex_segment_oracle(I):
    """The full shape check: generators in x_1, x_2 only, one for each x_1
    power from n-1 down to 0, a pure power of x_1, and x_2-exponents rising
    strictly from at least 1.  Strong stability implies all but the first
    condition and a pure power of x_2."""
    if I.is_zero or I.is_unit or I.nvars < 2:
        return None
    if any(g.max_variable() > 2 for g in I.generators):
        return None
    by_x1 = {}
    for g in I.generators:
        if g[0] in by_x1:
            return None
        by_x1[g[0]] = g[1]
    n = max(by_x1) + 1
    if sorted(by_x1) != list(range(n)) or by_x1[n - 1] != 0:
        return None
    lambdas = tuple(by_x1[n - 1 - i] for i in range(1, n))
    if any(a >= b for a, b in zip(lambdas, lambdas[1:])) or (lambdas and lambdas[0] < 1):
        return None
    return LexSegmentShape(n=n, lambdas=lambdas)


def codimension_oracle(I):
    """The largest index of a variable with a pure-power generator."""
    if I.is_unit:
        return I.nvars
    return max((var for var in range(1, I.nvars + 1)
                if any(g.degree() == g[var - 1] > 0 for g in I.generators)),
               default=0)


def _shape_kind(I):
    if I.is_zero or I.is_unit:
        return "zero" if I.is_zero else "unit"
    if any(g.max_variable() > 2 for g in I.generators):
        return "past x_2"
    if not any(g[0] == 0 for g in I.generators):
        return "no power of x_2"
    return "lex segment"


def _shape_cases():
    """Strongly stable ideals with l = 1..5: the zero and unit ideals, Borel
    closures of random monomials, and for l >= 2 Borel closures of random
    monomials in x_1, x_2, half of them with a pure power of x_2."""
    rng = random.Random(19)
    cases = []
    for l in range(1, 6):
        cases += [MonomialIdeal((), l), MonomialIdeal([(0,) * l], l)]
        cases += [random_borel_ideal(l, 5, rng.randint(1, 3), rng) for _ in range(40)]
        for _ in range(40 if l >= 2 else 0):
            seeds = [random_exponent(rng.randint(1, 6), 2, rng)
                     for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                seeds.append((0, rng.randint(1, 8)))
            cases.append(borel_closure(
                [PowerProduct(tuple(t) + (0,) * (l - 2)) for t in seeds], l))
    return cases


class TestLexSegmentShape:
    def test_agrees_with_full_check(self):
        kinds = []
        for I in _shape_cases():
            assert is_cm_codim2_stable(I) == lex_segment_oracle(I), I
            kinds.append(_shape_kind(I))
        # one zero and one unit ideal for each l, and every other kind
        assert all(kinds.count(kind) >= 5 for kind in (
            "zero", "unit", "past x_2", "no power of x_2", "lex segment"))

    def test_codimension_agrees_with_largest_index(self):
        cases = _shape_cases()
        assert all(codimension(I) == codimension_oracle(I) for I in cases)
        assert {codimension(I) for I in cases} == set(range(6))

    def test_examples(self):
        shape = is_cm_codim2_stable(FIVE)
        assert shape and shape.n == 5 and shape.lambdas == (1, 2, 4, 6)
        assert is_cm_codim2_stable(FIVE_Z) is None
        assert is_cm_codim2_stable(B([(1, 0)], 2)) is None

    def test_maximal_ideal(self):
        shape = is_cm_codim2_stable(B([(1, 0), (0, 1)], 2))
        assert shape and shape.n == 2 and shape.lambdas == (1,)


class TestCohenMacaulay:
    def test_codimension(self):
        assert codimension(FIVE) == 2
        assert codimension(B([(1, 0, 0)], 3)) == 1
        assert codimension(MonomialIdeal([(0, 0, 0)], 3)) == 3

    def test_verdicts(self):
        assert is_cohen_macaulay(FIVE)
        J2 = B([(2, 0, 0, 0), (1, 2, 0, 0), (1, 1, 1, 0), (0, 4, 0, 0)], 4)
        assert not is_cohen_macaulay(J2)
        assert is_cohen_macaulay(MonomialIdeal((), 3))

    def test_rejects_non_stable(self):
        with pytest.raises(NotStronglyStableError):
            is_cohen_macaulay(B([(0, 1, 0)], 3))

    def test_checks_stability_once(self, monkeypatch):
        calls = []

        def counted(I):
            calls.append(I)
            return is_strongly_stable(I)

        monkeypatch.setattr(monomial_module, "is_strongly_stable", counted)
        J2 = B([(2, 0, 0, 0), (1, 2, 0, 0), (1, 1, 1, 0), (0, 4, 0, 0)], 4)
        for I, cm in ((FIVE, True), (J2, False)):
            calls.clear()
            assert is_cohen_macaulay(I) is cm
            assert len(calls) == 1


def sectional_cm_oracle(I):
    """The paper's criterion: S/B is Cohen-Macaulay of codimension c iff the
    reduction number r_(l-c) is finite and the triangle equality holds at
    (c+1, d) for every d up to the regularity."""
    if I.is_zero or I.is_unit:
        return True
    c = codimension(I)
    if c == I.nvars:
        return True  # zero-dimensional quotients are Cohen-Macaulay
    reg = regularity_stable(I)
    if reduction_number(I, I.nvars - c) is INFINITE:
        return False
    M = sectional_matrix(I, max(reg, 1))
    return all(triangle_equality(M, c + 1, d) for d in range(1, reg + 1))


def _cm_cases():
    """Random strongly stable ideals with l = 1..5, each l also with a pure
    power of x_l (codim = l), and the zero and unit ideals."""
    rng = random.Random(16)
    cases = []
    for l in range(1, 6):
        cases += [MonomialIdeal((), l), MonomialIdeal([(0,) * l], l),
                  borel_closure([PowerProduct([0] * (l - 1) + [2])], l)]
        for _ in range(40):
            cases.append(random_borel_ideal(l, 5, rng.randint(1, 3), rng))
    return cases


class TestCohenMacaulayClosedForm:
    """pd(S/B) = codim B (Eliahou-Kervaire, Auslander-Buchsbaum) against the
    paper's sectional criterion."""

    def test_agrees_with_sectional_criterion(self):
        verdicts = []
        for I in _cm_cases():
            assert is_cohen_macaulay(I) == sectional_cm_oracle(I), I
            if not (I.is_zero or I.is_unit):
                verdicts.append((is_cohen_macaulay(I), codimension(I) == I.nvars))
        # both verdicts occur, and so do codim = l and codim < l
        assert verdicts.count((True, False)) > 20
        assert verdicts.count((False, False)) > 20
        assert verdicts.count((True, True)) >= 5

    def test_reads_no_sectional_matrix(self, monkeypatch):
        cases = _cm_cases()
        expected = [sectional_cm_oracle(I) for I in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("is_cohen_macaulay built a sectional matrix")

        monkeypatch.setattr(monomial_module, "sectional_matrix", forbidden)
        monkeypatch.setattr(monomial_module, "count_standard_monomials", forbidden)
        assert [is_cohen_macaulay(I) for I in cases] == expected

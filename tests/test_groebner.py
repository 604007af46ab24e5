"""Buchberger, normal forms, leading term ideals and Hilbert functions."""

import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrfree import (Arrangement, DegreeCapExceeded, GinConfig,
                     MonomialIdeal, Polynomial, PowerProduct, buchberger,
                     hilbert_function, jacobian_ideal, jacobian_rgin,
                     leading_term_ideal, normal_form, random_linear_change)
from arrfree import gin as gin_module
from arrfree import groebner as groebner_module
from arrfree.cli import load_input
from arrfree.groebner import (_W, _degree, _exponents, _fields,
                              _guards, _key, _max_fields, _pack,
                              _power_product, _reduce, _tail)
from arrfree.polyring import apply_linear_change
from helpers import (arrangement, bench_workloads, degree_monomials, groebner,
                     poly, polys, random_exponent, random_polynomial, reduce_mod,
                     residues, row_reduce, s_polynomial)

INPUTS = Path(__file__).resolve().parents[1] / "inputs"
# the prime of the kernel's coefficient field, None for QQ
FIELDS = pytest.mark.parametrize("p", [None, 32003], ids=["QQ", "GF32003"])

# three exponent vectors of one length l <= 6
exponent_triples = st.integers(1, 6).flatmap(lambda l: st.tuples(
    *[st.tuples(*[st.integers(0, 6)] * l)] * 3)).map(
        lambda t: tuple(PowerProduct(e) for e in t))

TOP = (1 << 15) - 1         # the largest exponent a kernel field holds


# References for the pair update, which works on exponent fields with
# groebner._max_fields directly, and for the reducers, which inline the
# guard-bit test of _divides.
def _lcm(a, b, nvars):
    """The key of lcm(a, b); no limit applies."""
    r = _max_fields(_fields(a, nvars), _fields(b, nvars), _guards(nvars))
    return (sum(_exponents(r, nvars)) << _W * nvars) - r


def _coprime(a, b, nvars):
    """No variable divides both: the lcm is the product."""
    ra, rb = _fields(a, nvars), _fields(b, nvars)
    return _max_fields(ra, rb, _guards(nvars)) == ra + rb


def _divides(a, b, nvars):
    """The monomial of key a divides that of key b."""
    g = _guards(nvars)
    return (_fields(b, nvars) | g) - _fields(a, nvars) & g == g


class TestSortKeys:
    """The kernel's packed int monomials against PowerProduct."""

    @given(exponent_triples)
    def test_order_agrees_with_degrevlex(self, t):
        a, b, _ = t
        ka, kb = _key(a), _key(b)
        assert (ka > kb) - (ka < kb) == (a > b) - (a < b)

    @given(exponent_triples)
    def test_arithmetic_agrees(self, t):
        a, b, c = t
        l = len(a)
        ka, kb, kc = _key(a), _key(b), _key(c)
        ab = ka + kb
        assert ab == _key(a * b)
        assert ab - ka == kb
        assert _degree(ab, l) == (a * b).degree()
        assert _lcm(ka, kb, l) == _key(PowerProduct(map(max, a, b)))
        assert _divides(ka, kb, l) == a.divides(b)
        assert _divides(ka, ab, l) and _divides(kc, _key(a * c), l)
        assert _coprime(ka, kb, l) == all(x == 0 or y == 0 for x, y in zip(a, b))

    @given(exponent_triples)
    def test_round_trip(self, t):
        for a in t:
            back = _power_product(_key(a), len(a))
            assert type(back) is PowerProduct and back == a
            assert _key(back) == _key(a)

    @pytest.mark.parametrize("l", range(1, 7))
    def test_field_boundaries(self, l):
        for i in range(l):
            top = PowerProduct([TOP if j == i else 0 for j in range(l)])
            below = PowerProduct([TOP - 1 if j == i else 0 for j in range(l)])
            assert _power_product(_key(top), l) == top
            assert _degree(_key(top), l) == TOP
            assert _divides(_key(below), _key(top), l)
            assert not _divides(_key(top), _key(below), l)
            for j in range(l):
                x = PowerProduct.variable(j + 1, l)
                assert _divides(_key(x), _key(top), l) == (i == j)
                assert not _divides(_key(top), _key(x), l)
                assert _coprime(_key(top), _key(x), l) == (i != j)
                # an lcm may pass the limit; its key stays exact
                lcm = PowerProduct(map(max, top, x))
                assert _power_product(_lcm(_key(top), _key(x), l), l) == lcm
                assert _degree(_lcm(_key(top), _key(x), l), l) == lcm.degree()

    def test_degree_limit_raises_at_once(self):
        big = Polynomial.monomial(PowerProduct((TOP + 1, 0, 0)), 3)
        x = poly("x", 3)
        with pytest.raises(DegreeCapExceeded, match="kernel limit"):
            buchberger([poly("x - y", 3), big])
        with pytest.raises(DegreeCapExceeded, match="kernel limit"):
            normal_form(big, [x])
        with pytest.raises(DegreeCapExceeded, match="kernel limit"):
            normal_form(x, [big])
        hint = MonomialIdeal([PowerProduct((TOP + 1, 0, 0))], 3)
        with pytest.raises(DegreeCapExceeded, match="kernel limit"):
            buchberger(polys(["x^2", "y^2"], 3), hilbert=hint)
        # an S-pair whose lcm reaches degree 2^15 raises before it is built
        gens = polys([f"x^{TOP - 1}*y - z^{TOP}", "y*z"], 3)
        with pytest.raises(DegreeCapExceeded, match=f"S-pair lcm degree {TOP + 1}"):
            buchberger(gens)


class TestNormalForm:
    def test_generator_membership(self):
        f = poly("x^2*y - 3y + 1", 2)
        assert normal_form(f, [f]).is_zero

    def test_no_reducible_term(self):
        gb = buchberger([poly("x", 2)])
        y2 = poly("y^2", 2)
        assert normal_form(y2, gb.elements) == y2

    def test_two_step_division(self):
        assert normal_form(poly("x^2", 2), [poly("x - y", 2)]) == poly("y^2", 2)

    def test_empty_divisor_list(self):
        f = poly("x + 1", 2)
        assert normal_form(f, []) == f

    @FIELDS
    def test_exact_difference_in_ideal(self, p):
        rng = random.Random(17)
        G = polys(["x^2 - y", "x*y - 1"], 2)
        gb = groebner(G, p)
        lts = [g.leading_power_product() for g in G]
        nonzero = 0
        for _ in range(20):
            f = random_polynomial(2, 4, 4, rng)
            r = reduce_mod(f, G, p)
            assert reduce_mod(f - r, gb.elements, p).is_zero
            assert not any(lt.divides(pp) for pp, _ in r.terms() for lt in lts)
            nonzero += not r.is_zero
        assert nonzero > 10

    def test_first_divisor_priority(self):
        f = poly("x*y", 2)
        r1 = normal_form(f, [poly("x", 2), poly("x*y - 1", 2)])
        r2 = normal_form(f, [poly("x*y - 1", 2), poly("x", 2)])
        assert r1.is_zero and r2 == poly("1", 2)


class TestBuchberger:
    def test_single_monomial(self):
        gb = buchberger([poly("x", 2)])
        assert [str(g) for g in gb.elements] == ["x"]

    def test_hand_traced_basis(self):
        gb = buchberger(polys(["x^2", "x*y + y^2"], 2))
        assert {str(g) for g in gb.elements} == {"x^2", "x*y + y^2", "y^3"}
        assert leading_term_ideal(gb) == MonomialIdeal(
            [PowerProduct(e) for e in [(2, 0), (1, 1), (0, 3)]], 2)

    def test_all_spairs_reduce_to_zero(self):
        rng = random.Random(23)
        for _ in range(20):
            gens = [random_polynomial(3, 3, 3, rng) for _ in range(2)]
            if all(g.is_zero for g in gens):
                continue
            gb = buchberger(gens)
            if len(gb) < 2:
                continue
            for i in range(len(gb.elements)):
                for j in range(i + 1, len(gb.elements)):
                    s = s_polynomial(gb.elements[i], gb.elements[j])
                    assert normal_form(s, gb.elements).is_zero

    def test_basis_is_reduced(self):
        rng = random.Random(24)
        for _ in range(15):
            gens = [random_polynomial(3, 3, 3, rng) for _ in range(2)]
            if all(g.is_zero for g in gens):
                continue
            gb = buchberger(gens)
            lts = [g.leading_power_product() for g in gb.elements]
            for i, g in enumerate(gb.elements):
                assert g.leading_coefficient() == 1
                for pp, _ in g.terms():
                    for j, lt in enumerate(lts):
                        if i != j:
                            assert not lt.divides(pp)

    def test_permutation_invariance(self):
        rng = random.Random(25)
        gens = polys(["x^2 - y*z", "x*y^2 - z^3", "y^4 - x*z^2"], 3)
        reference = buchberger(gens)
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            gb = buchberger(shuffled)
            assert gb.elements == reference.elements
            assert leading_term_ideal(gb) == leading_term_ideal(reference)

    def test_input_membership(self):
        gens = polys(["x^3 - 2x*y", "x^2*y - 2y^2 + x"], 2)
        gb = buchberger(gens)
        for g in gens:
            assert normal_form(g, gb.elements).is_zero

    def test_membership_iff_zero_normal_form(self):
        rng = random.Random(26)
        gens = polys(["x^2 - y*z", "y^2 - x*z"], 3)
        gb = buchberger(gens)
        one = poly("1", 3)
        assert not normal_form(one, gb.elements).is_zero  # proper ideal
        for _ in range(15):
            combo = Polynomial.zero(3)
            for g in gens:
                combo = combo + random_polynomial(3, 2, 3, rng) * g
            assert normal_form(combo, gb.elements).is_zero
            assert not normal_form(combo + one, gb.elements).is_zero

    def test_zero_ideal(self):
        gb = buchberger([Polynomial.zero(2), Polynomial.zero(2)])
        assert len(gb) == 0
        assert leading_term_ideal(gb).is_zero
        assert normal_form(poly("x", 2), gb.elements) == poly("x", 2)

    def test_unit_ideal(self):
        gb = buchberger(polys(["x", "x + 1"], 2))
        assert [str(g) for g in gb.elements] == ["1"]
        assert leading_term_ideal(gb).is_unit

    @FIELDS
    def test_degree_cap(self, p):
        gens = polys(["x^2 - y*z", "x*y^2 - z^3", "y^4 - x*z^2"], 3)
        with pytest.raises(DegreeCapExceeded, match="generator"):
            groebner(gens, p, degree_cap=3)
        with pytest.raises(DegreeCapExceeded, match="S-pair"):
            groebner(gens, p, degree_cap=7)
        assert groebner(gens, p, degree_cap=8) == groebner(gens, p)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            buchberger([])

    def test_prime_field_mode(self):
        gens = polys(["x^2 + 3y^2", "x*y - 2"], 2)
        gb = groebner(gens, 7)
        assert gb.p == 7 and gb != groebner(gens)
        for g in gb.elements:
            assert g.leading_coefficient() == 1
            assert all(0 <= c < 7 and c.denominator == 1 for _, c in g.terms())
        # read mod 7, the S-polynomial and the generators reduce to zero
        s = s_polynomial(gb.elements[0], gb.elements[-1])
        assert reduce_mod(s, gb.elements, 7).is_zero
        assert all(reduce_mod(g, gb.elements, 7).is_zero for g in gens)


class TestCompositeModulus:
    """A run modulo p*q is a run mod p and a run mod q at once (Z/pq = Z/p x
    Z/q) while every leading coefficient it inverts is a unit; one that
    vanishes modulo one prime only raises ZeroDivisorError."""

    P, Q = 32003, 32009

    @pytest.mark.parametrize("l, texts", [
        (2, ["32009*x + y", "x*y"]),              # a generator's, as it is fed
        (3, ["x^2 + y^2", "x^2 + 32010*y^2"]),    # a remainder's, on term dicts
        (2, ["x + y", "x + 32010*y"]),            # a remainder's, on dense rows
    ], ids=["generator", "sparse", "dense"])
    def test_lead_that_one_prime_divides_splits(self, l, texts):
        gens = [residues(f) for f in polys(texts, l)]
        with pytest.raises(groebner_module.ZeroDivisorError, match="32009 is not a unit"):
            buchberger(gens, ring=(l, self.P * self.Q))
        for p in (self.P, self.Q):      # each prime alone runs through
            buchberger(gens, ring=(l, p))

    @pytest.mark.parametrize("m", [32003, 32003 * 32009, 2 ** 61 - 1],
                             ids=["8-bytes", "16-bytes", "24-bytes"])
    def test_fields_round_trip(self, m):
        # the routes through 64-bit words against int.to_bytes and
        # int.from_bytes: residues below m in, packed row fields out
        rng, width = random.Random(m), groebner_module._width(m)
        vals = [rng.randrange(m) for _ in range(50)] + [0, m - 1]
        assert groebner_module._to_bytes(vals, width) == \
            b"".join(v.to_bytes(width, "little") for v in vals)
        fields = [rng.randrange(1 << 8 * width) for _ in range(50)] + [(1 << 8 * width) - 1]
        assert list(groebner_module._from_bytes(b"".join(
            v.to_bytes(width, "little") for v in fields), width)) == fields

    @pytest.mark.parametrize("l, texts", [
        (3, ["x^2 - y*z", "x*y^2 - z^3", "y^4 - x*z^2"]),
        (2, ["x + y", "x + 2*y"]),
        (3, ["x^2 + 2*x*y + 3*y^2 + 4*y*z + 5*z^2", "x*y + 6*x*z + 7*y^2 + 8*z^2"]),
    ], ids=["sparse", "dense-linear", "dense"])
    def test_unit_pivots_give_each_primes_basis(self, l, texts):
        gens = [residues(f) for f in polys(texts, l)]
        joint = buchberger(gens, ring=(l, self.P * self.Q))
        for p in (self.P, self.Q):
            alone = buchberger(gens, ring=(l, p))
            assert leading_term_ideal(joint) == leading_term_ideal(alone)
            assert {frozenset((pp, c % p) for pp, c in g.terms() if c % p)
                    for g in joint} == {frozenset(g.terms()) for g in alone}


class TestLeadingTermIdeal:
    def test_trusted_on_the_corpus_trials(self, monkeypatch):
        # the engine's leading terms, taken as they are, against the ideal
        # that minimalizes them again, on every trial of the exact corpus
        bases = []
        original = gin_module.buchberger
        monkeypatch.setattr(gin_module, "buchberger",
                            lambda *a, **k: bases.append(original(*a, **k)) or bases[-1])
        for case in bench_workloads(monkeypatch).corpus_exact(1, 0):
            jacobian_rgin(arrangement(case.forms), GinConfig(seed=case.gin_seed))
        assert len(bases) > 13
        for G in bases:
            lts = [_power_product(d[1], G.nvars) for d in G._divisors]
            B = leading_term_ideal(G)
            assert type(B) is MonomialIdeal and B == MonomialIdeal(lts, G.nvars)


@st.composite
def homogeneous_forms(draw, top=4, dense=True):
    """l <= 4 variables and up to three nonzero forms of degree <= top; with
    ``dense``, each holds at least half of the monomials of its degree."""
    l = draw(st.integers(1, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        monomials = list(degree_monomials(draw(st.integers(1, top)), l))
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(monomials),
                               max_size=len(monomials)).filter(
            lambda c: 2 * sum(map(bool, c)) >= len(c) if dense else any(c)))
        gens.append(Polynomial({PowerProduct(m): c for m, c in zip(monomials, coeffs)
                                if c}, l))
    return l, gens


class TestDenseRows:
    @pytest.mark.parametrize("p", [None, 3, 32003, 2**61 - 1],
                             ids=["QQ", "GF3", "GF32003", "GF2^61-1"])
    @settings(max_examples=40, deadline=None)
    @given(homogeneous_forms())
    def test_rows_and_dicts_agree(self, p, case):
        l, gens = case
        # a coefficient that p divides becomes 1, so the forms stay dense
        gens = [Polynomial({m: c if p is None or c % p else 1
                            for m, c in g.terms()}, l) for g in gens]
        assert groebner_module._dense([residues(g, p) for g in gens], l)
        rows = groebner(gens, p)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(groebner_module, "_dense", lambda gens, nvars: False)
            dicts = groebner(gens, p)
        assert [d[1] for d in rows._divisors] == [d[1] for d in dicts._divisors]
        assert leading_term_ideal(rows) == leading_term_ideal(dicts)
        assert rows.elements == dicts.elements

    @pytest.mark.parametrize("p", [2**32 - 5, 2**61 - 1])
    def test_fields_hold_the_most_steps(self, p):
        # Each g_j = m_j + m_(j+1) + ... over the degree-16 monomials m_0 >
        # m_1 > ... of three variables has a negated row of entries p - 1,
        # and f is chosen so that every step of its reduction after the
        # first takes c = p - 1: before column k leads it holds about
        # (k - 1) * p^2, past 2 * bits(p) bits from k = 66 on (from k = 3
        # for the 32-bit prime)
        cols = groebner_module._columns(3, 16)[0]
        gens = [{k: 1 for k in cols[j:]} for j in range(70)]
        gens.append({k: (1 - i) % p for i, k in enumerate(cols)})
        rows = groebner_module.hilbert_hint(gens, (3, p))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(groebner_module, "_dense", lambda gens, nvars: False)
            dicts = groebner_module.hilbert_hint(gens, (3, p))
        # f's remainder leads at column 70, after 70 steps
        assert rows.packed[70][1] == cols[70]
        assert [(d[1], d[2], dict(_tail(d, 3, p))) for d in rows.divisors] == \
            [(d[1], d[2], dict(d[3])) for d in dicts.divisors]

    @FIELDS
    def test_sparse_homogeneous_input_stays_on_dicts(self, p):
        # a dense row of degree 2^15 - 1 has about 5 * 10^8 columns; these
        # must stay on term dicts, where the degree limit raises at once
        gens = polys([f"x^{TOP - 1}*y - z^{TOP}", "y*z"], 3)
        assert all(g.is_homogeneous() for g in gens)
        assert not groebner_module._dense([residues(g, p) for g in gens], 3)
        with pytest.raises(DegreeCapExceeded, match=f"S-pair lcm degree {TOP + 1}"):
            groebner(gens, p)


def _dense_form(l, d, p, rng):
    """A random degree-d form over GF(p) in l variables, in descending key
    order, that holds at least half of the monomials of its degree."""
    cols = groebner_module._columns(l, d)[0]
    while True:
        terms = {k: rng.randrange(1, p) for k in cols if rng.random() < 0.8}
        if 2 * len(terms) >= len(cols):
            return terms


class TestColumns:
    """``_columns`` lists the keys without sorting: the counter's level step
    from the key of 1, a product adding keys, must already descend."""

    @pytest.mark.parametrize("l, top", [(l, 12) for l in range(1, 9)] + [(16, 5), (40, 3)])
    def test_keys_descend_and_runs_start_without_x2(self, l, top):
        for d in range(top + 1):
            keys, index, starts = groebner_module._columns.__wrapped__(l, d)
            # the keys are distinct, so this is sorted(map(_key, ...)) with
            # each key's exponents alongside
            ordered = sorted(((_key(m), m) for m in degree_monomials(d, l)), reverse=True)
            assert keys == [k for k, _ in ordered]
            assert index == {k: i for i, k in enumerate(keys)}
            # a run starts at each monomial without x_2, a group of runs at
            # each without x_2 and x_3
            assert starts == [(i, e[2] == 0) for i, (_, m) in enumerate(ordered)
                              if (e := m + (0, 0))[1] == 0]

    def test_degrees_past_the_cache(self):
        # each degree is one level step from the one built before it, far
        # past the 64 degrees the cache keeps; a degree built from 0 takes no
        # recursion, even at the field limit
        for d in range(201):
            keys = groebner_module._columns.__wrapped__(3, d)[0]
        assert keys == sorted(map(_key, map(PowerProduct, degree_monomials(200, 3))),
                              reverse=True)
        assert groebner_module._columns.__wrapped__(2, 150)[0] == \
            sorted(map(_key, map(PowerProduct, degree_monomials(150, 2))), reverse=True)
        assert groebner_module._columns.__wrapped__(1, TOP)[0] == [_key(PowerProduct((TOP,)))]

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_plan_cuts_runs_and_groups(self, l):
        # from every column o, the runs are the columns that share the
        # exponents of x_3, ..., x_l and the groups the runs that share those
        # of x_4, ..., x_l, both cut at o
        for d in range(11):
            ordered = sorted(((_key(m), m) for m in degree_monomials(d, l)), reverse=True)
            keys, size = [k for k, _ in ordered], len(ordered)
            runs_at = [i for i in range(1, size) if ordered[i][1][2:] != ordered[i - 1][1][2:]]
            groups_at = {i for i in runs_at if ordered[i][1][3:] != ordered[i - 1][1][3:]}
            for o in range(size):
                cuts = [o, *(i for i in runs_at if i > o), size]
                expected = []
                for a, e in zip(cuts, cuts[1:]):
                    if a == o or a in groups_at:
                        expected.append((keys[a], []))
                    expected[-1][1].append((a - o, e - o))
                assert groebner_module._plan.__wrapped__(l, d, o) == expected, (d, o)


class TestPackedLayout:
    """A dense GF(p) element is read into the run blocks of its negated row
    once, and every row -x^q * g is laid out from them with one join per
    group of runs."""

    @pytest.mark.parametrize("p", [32003, 2**61 - 1])
    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_rows_against_term_by_term(self, p, l):
        rng = random.Random(l * 1000 + p % 97)
        for _ in range(6):
            d = rng.randint(1, 4 if l < 5 else 3)
            engine = groebner_module._Engine(p, None, None, l, True)
            # a first element, and the remainder of a second form by it
            for terms in (_dense_form(l, d, p, rng), _dense_form(l, d, p, rng)):
                reference = groebner_module._normalize(
                    _reduce(dict(terms), [(*e[:3], _tail(e, l, p)) for e in engine.divisors],
                            p, l, top=True)[0], p)
                g = engine._nf(dict(terms))
                if g is None:
                    assert not reference
                    continue
                # the lazily decoded tail is _pack's tail of that remainder
                packed = _pack(reference, l)
                assert g[:3] == packed[:3]
                assert _tail(g, l, p) == sorted(packed[3], reverse=True)
                engine.add(g)
            for g in engine.divisors:
                full = {g[1]: 1, **dict(_tail(g, l, p))}
                for _ in range(4):
                    q = _key(random_exponent(rng.randint(0, 3), l, rng))
                    t = g[1] + q
                    cols, index, _ = groebner_module._columns(l, _degree(t, l))
                    # x^q * g built term by term from its dict
                    moved = {k + q: c for k, c in full.items()}
                    size = len(cols) - index[t]
                    row = _unpacked(engine._row(g, t), p, size)
                    for k, f in zip(cols[index[t]:], row):
                        # the negated row, and p - 1 times it the positive
                        # one, which the S-pair takes
                        c = moved.get(k, 0)
                        assert f % p == -c % p and f < p
                        assert (p - 1) * f % p == c


class TestDenseRationalLayout:
    """A dense QQ element keeps its primitive row from lt on, cut by the same
    plan as a GF(p) one, and every row x^q * g is laid out from its runs."""

    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_rows_against_term_by_term(self, l):
        rng = random.Random(l)
        for _ in range(6):
            d = rng.randint(1, 4 if l < 5 else 3)
            engine = groebner_module._Engine(None, None, None, l, True)
            for terms in (_dense_form(l, d, 10, rng), _dense_form(l, d, 10, rng)):
                terms = {k: c - 5 for k, c in terms.items() if c != 5}
                reference = groebner_module._normalize(
                    _reduce(dict(terms), [(*e[:3], _tail(e, l, None)) for e in engine.divisors],
                            None, l, top=True)[0], None)
                g = engine._nf(dict(terms))
                if g is None:
                    assert not reference
                    continue
                packed = _pack(reference, l)
                assert g[:3] == packed[:3]
                assert _tail(g, l, None) == sorted(packed[3], reverse=True)
                engine.add(g)
            for g in engine.divisors:
                full = {g[1]: g[2], **dict(_tail(g, l, None))}
                for _ in range(4):
                    q = _key(random_exponent(rng.randint(0, 3), l, rng))
                    t = g[1] + q
                    cols, index, _ = groebner_module._columns(l, _degree(t, l))
                    # x^q * g placed term by term from its dict
                    assert engine._row(g, t) == [full.get(k - q, 0) for k in cols[index[t]:]]


class TestTruncatedRun:
    @FIELDS
    @settings(max_examples=60, deadline=None)
    @given(homogeneous_forms(top=3, dense=False),
           st.lists(st.integers(0, 10), min_size=1, max_size=12))
    def test_counts_in_any_order(self, p, case, degrees):
        # a hint runs only as far as the degree asked, yet a lower degree
        # asked later still reads the full basis's count
        l, gens = case
        hint = groebner_module.hilbert_hint([residues(g) for g in gens], (l, p))
        B = leading_term_ideal(groebner(gens, p))
        for d in degrees:
            assert hint.count(d) == math.comb(d + l - 1, l - 1) - hilbert_function(B, d), d

    def test_hint_runs_only_as_far_as_asked(self):
        gens = polys(["x^2 - y*z", "x*y^2 - z^3", "y^4 - x*z^2"], 3)
        hint = groebner_module.hilbert_hint([residues(g) for g in gens], (3, None))
        hint.count(3)
        assert hint.pairs and min(_degree(k, 3) for k in hint.pairs.values()) > 3
        G = buchberger(gens, hilbert=hint)
        assert G == buchberger(gens)


class TestAgainstSympy:
    def test_random_ideals_match(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(29)
        xs = sympy.symbols("s0 s1 s2")
        for _ in range(12):
            gens = [random_polynomial(3, 3, 3, rng) for _ in range(2)]
            if all(g.is_zero for g in gens):
                continue
            sgens = []
            for g in gens:
                expr = 0
                for pp, c in g.terms():
                    mono = 1
                    for v, e in zip(xs, pp):
                        mono *= v ** e
                    expr += sympy.Rational(c) * mono
                sgens.append(expr)
            if all(e == 0 for e in sgens):
                continue
            ref = sympy.groebner(sgens, *xs, order="grevlex")
            mine = buchberger([g for g in gens if not g.is_zero])
            converted = set()
            for g in mine.elements:
                expr = 0
                for pp, c in g.terms():
                    mono = 1
                    for v, e in zip(xs, pp):
                        mono *= v ** e
                    expr += sympy.Rational(c) * mono
                converted.add(sympy.expand(expr))
            assert converted == {sympy.expand(e / sympy.LC(e, *xs, order="grevlex"))
                                 for e in ref.exprs}

    @FIELDS
    @pytest.mark.parametrize("nvars", range(1, 5))
    def test_whole_monic_bases_match(self, p, nvars):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(f"s0:{nvars}")
        rng = random.Random(31 + nvars)
        for k in range(8):   # homogeneous ideals, then inhomogeneous ones
            gens = [g for g in (
                _random_form(nvars, rng.randint(2, 3), rng.randint(2, 4), rng)
                if k < 4 else random_polynomial(nvars, 3, 3, rng)
                for _ in range(3)) if not g.is_zero]
            if not gens:
                continue
            sgens = [sympy.Poly.from_dict({tuple(pp): sympy.Rational(c)
                                           for pp, c in g.terms()}, *xs).as_expr()
                     for g in gens]
            options = {"order": "grevlex"} if p is None else {
                "order": "grevlex", "modulus": p}
            ref = set()
            for f in sympy.groebner(sgens, *xs, **options).polys:
                lc = f.LC(order="grevlex")
                terms = (((m, sympy.Rational(c / lc)) if p is None else
                          (m, int(c) * pow(int(lc), -1, p) % p))
                         for m, c in f.terms())
                ref.add(frozenset(terms))
            mine = {frozenset((tuple(pp), sympy.Rational(c) if p is None else int(c))
                              for pp, c in g.terms())
                    for g in groebner(gens, p).elements}
            assert mine == ref


class TestHilbert:
    def test_examples(self):
        assert hilbert_function(MonomialIdeal((), 3), 5) == 21
        five = MonomialIdeal([PowerProduct(e) for e in
                              [(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 4, 0), (0, 6, 0)]], 3)
        assert hilbert_function(five, 5) == 13
        axis = MonomialIdeal([PowerProduct((1, 0, 0))], 3)
        for d in range(0, 7):
            assert hilbert_function(axis, d) == d + 1

    def test_invariance_under_linear_change(self):
        rng = random.Random(37)
        for _ in range(12):
            gens = [random_polynomial(3, 3, 3, rng) for _ in range(2)]
            if all(g.is_zero for g in gens):
                continue
            lt = leading_term_ideal(buchberger(gens))
            while True:
                rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
                if row_reduce(rows)[2]:
                    break
            moved = [apply_linear_change(f, rows) for f in gens]
            lt2 = leading_term_ideal(buchberger(moved))
            for d in range(0, 11):
                assert hilbert_function(lt, d) == hilbert_function(lt2, d)


def _random_form(nvars, deg, terms, rng):
    """A random homogeneous polynomial of degree deg."""
    return Polynomial({random_exponent(deg, nvars, rng): rng.randint(1, 9)
                       for _ in range(terms)}, nvars)


def _hint(gens, rng, p=None):
    """The leading term ideal of gens after a random change of coordinates,
    over GF(p) when p is set: another ideal with the Hilbert function of
    gens."""
    g = random_linear_change(gens[0].nvars, rng, 5)
    return leading_term_ideal(groebner([apply_linear_change(f, g) for f in gens], p))


class TestHilbertDriven:
    @FIELDS
    def test_hint_gives_the_same_basis(self, p):
        rng = random.Random(41)
        for _ in range(12):
            nv = rng.randint(2, 4)
            gens = [_random_form(nv, rng.randint(1, 4), rng.randint(1, 4), rng)
                    for _ in range(rng.randint(2, 3))]
            hinted = groebner(gens, p, hilbert=_hint(gens, rng, p))
            assert hinted == groebner(gens, p)
            assert leading_term_ideal(hinted) == leading_term_ideal(groebner(gens, p))

    def test_hint_saves_reductions(self, monkeypatch):
        # the first Ziegler arrangement, moved by a random change
        rows = ((0, 0, 1), (0, 1, -4), (1, 1, -7), (-7, 1, 25), (0, 1, 4),
                (2, 1, 10), (-2, 1, -10), (-1, 3, -5), (4, 3, 0), (-4, 3, 0))
        A = Arrangement([poly("+".join(f"({c})*{v}" for c, v in zip(r, "xyz")), 3)
                         for r in rows])
        rng = random.Random(43)
        g = random_linear_change(3, rng, 5)
        gens = [apply_linear_change(f, g) for f in jacobian_ideal(A)]
        hint = _hint(jacobian_ideal(A), rng, 32003)
        # the moved generators are dense, so every reduction runs on packed rows
        calls, dict_calls = [], []
        original = groebner_module._Engine._reduce_packed
        monkeypatch.setattr(groebner_module._Engine, "_reduce_packed",
                            lambda *a: calls.append(1) or original(*a))
        reduce = groebner_module._reduce
        monkeypatch.setattr(groebner_module, "_reduce",
                            lambda *a, **k: dict_calls.append(1) or reduce(*a, **k))
        plain = leading_term_ideal(groebner(gens, 32003))
        unhinted, calls[:] = len(calls), []
        assert leading_term_ideal(groebner(gens, 32003, hilbert=hint)) == plain
        assert 0 < len(calls) < unhinted and not dict_calls

    def test_inhomogeneous_input_ignores_the_hint(self):
        gens = polys(["x^2 - y", "x*y - 1"], 2)
        wrong = MonomialIdeal([PowerProduct((1, 0))], 2)
        assert buchberger(gens, hilbert=wrong) == buchberger(gens)

    def test_outgrowing_the_hint_raises(self):
        from arrfree import InternalConsistencyError
        assert InternalConsistencyError is groebner_module.InternalConsistencyError
        gens = polys(["x^2", "y^2", "x*z - y*z"], 3)
        with pytest.raises(InternalConsistencyError, match="Hilbert function"):
            buchberger(gens, hilbert=MonomialIdeal([PowerProduct((2, 0, 0))], 3))

    def test_leading_terms_before_and_after_the_elements(self, monkeypatch):
        for p in (None, 32003):
            gens = polys(["x^2 - y*z", "x*y^2 - z^3", "y^4 - x*z^2"], 3)
            calls, full = [], []
            original = groebner_module._interreduce
            monkeypatch.setattr(groebner_module, "_interreduce",
                                lambda *a: calls.append(1) or original(*a))
            reduce = groebner_module._reduce

            def tracked(*a, top=False, **k):
                full.append(not top)
                return reduce(*a, top=top, **k)
            monkeypatch.setattr(groebner_module, "_reduce", tracked)
            G = groebner(gens, p)
            before = leading_term_ideal(G)
            # the engine only top-reduced, and nothing read the elements yet
            assert full and not any(full) and not calls
            assert len(G) == len(before.generators) and calls == [1] and all(full[-len(G):])
            assert leading_term_ideal(G) == before == MonomialIdeal(
                [g.leading_power_product() for g in G.elements], 3)
            assert calls == [1]
            # the engine's leading terms are those of the reduced basis, in order,
            # while some tail still holds a term that a leading term divides
            assert [_power_product(d[1], 3) for d in G._divisors] == \
                [g.leading_power_product() for g in G.elements]
            assert any(_divides(lt, k, 3) for *_, tail in G._divisors
                       for k, _ in tail for _, lt, _, _ in G._divisors)
            monkeypatch.undo()


P = 7


def _unpacked(row, p, size):
    """The fields of a packed GF(p) row of ``size`` columns, unreduced."""
    bits = 8 * groebner_module._width(p)
    assert row >> bits * size == 0
    return [row >> bits * i & (1 << bits) - 1 for i in range(size)]


def _k(*e):
    return _key(PowerProduct(e))


class TestLazyResidues:
    """Over GF(p) a subtraction leaves its entry as any integer, zero
    included; the kernel reads an entry mod p when it pops or emits it."""

    # f = b*x^2 + a*x*y + y^2 + m*p*x + (p + 4) by x + 3*y: popping x^2
    # leaves a - 3*b = -m*p at x*y, and the entry at x is m*p from the start
    @pytest.mark.parametrize("m, b, a", [(1, 3, 2), (2, 5, 1)])
    @pytest.mark.parametrize("top", [False, True])
    def test_entries_that_sum_to_multiples_of_p(self, m, b, a, top, monkeypatch):
        seen = []
        subtract = groebner_module._subtract
        monkeypatch.setattr(groebner_module, "_subtract", lambda work, *rest:
                            subtract(work, *rest) or seen.append(work.get(_k(1, 1))))
        divisors = [_pack({_k(1, 0): 1, _k(0, 1): 3}, 2)]
        work = {_k(2, 0): b, _k(1, 1): a, _k(0, 2): 1, _k(1, 0): m * P, _k(0, 0): P + 4}
        rem, mult = _reduce(work, divisors, P, 2, top=top)
        assert seen == [-m * P]
        # neither x*y nor x is a leading or remainder term, and the
        # remainder holds canonical residues
        assert rem == {_k(0, 2): 1, _k(0, 0): 4} and mult == 1
        assert max(rem) == _k(0, 2)

    def test_spair_terms_and_basis(self, monkeypatch):
        # S(x*y + 3*y^2, x^2 + 3*x*y + y^2) = 3*x*y^2 - 3*x*y^2 - y^3: the
        # x*y^2 entry cancels.  The generators fill their degree, so the
        # S-polynomial is a packed row over x^2*y, x*y^2, y^3, from the lcm
        # on: p - 1 times x times the first negated plus y times the second
        # negated, each field at most p^2, the leading one 0 mod p, and each
        # read mod p only when it leads
        outputs = []
        spair = groebner_module._Engine._spair_packed

        def recorded(self, *a):
            out = spair(self, *a)
            outputs.append(_unpacked(out, P, 3))
            return out
        monkeypatch.setattr(groebner_module._Engine, "_spair_packed", recorded)
        G = groebner(polys(["x*y + 3*y^2", "x^2 + 3*x*y + y^2"], 2), P)
        assert outputs[0] == [P * (P - 1), P * (P - 3), P - 1]
        assert [c % P for c in outputs[0]] == [0, 0, P - 1]
        assert all(0 <= c <= P * P for row in outputs for c in row)
        assert all(row[0] % P == 0 for row in outputs)
        for d in G._divisors:
            assert all(0 < c < P for c in [d[2], *dict(_tail(d, 2, P)).values()])
        assert [str(g) for g in G.elements] == ["x*y + 3*y^2", "x^2 + 6*y^2", "y^3"]


class TestReductionKeepsDegree:
    """DegRevLex orders by degree first, so no term that ``_reduce`` pops has
    a higher degree than the work it was given: a degree cap needs checking
    only on what goes in."""

    @FIELDS
    @settings(max_examples=40, deadline=None)
    @given(l=st.integers(2, 4), homogeneous=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_no_popped_term_above_the_input(self, p, l, homogeneous, seed):
        rng = random.Random(seed)

        def draw():
            while True:
                f = (_random_form(l, rng.randint(1, 3), rng.randint(1, 5), rng)
                     if homogeneous else random_polynomial(l, 3, rng.randint(1, 5), rng))
                if not f.is_zero:
                    return f
        gens = [draw() for _ in range(rng.randint(1, 3))]
        # every key _reduce can pop is in its work at the start or written
        # there by _subtract
        tops, calls = [], []
        reduce, subtract = groebner_module._reduce, groebner_module._subtract

        def reduced(work, *rest, **kw):
            tops.append(max((_degree(k, l) for k in work), default=-1))
            try:
                return reduce(work, *rest, **kw)
            finally:
                tops.pop()

        def subtracted(work, tail, q, b):
            if tops:
                calls.append(max((_degree(k + q, l) for k, _ in tail), default=-1))
                assert calls[-1] <= tops[-1]
            subtract(work, tail, q, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groebner_module, "_reduce", reduced)
            mp.setattr(groebner_module, "_subtract", subtracted)
            G = groebner(gens, p).elements
            # in the ideal, so its leading term reduces at least once
            f = gens[0] * poly("x", l) + draw()
            reduce_mod(f, G, p)
            reduce_mod(gens[0] * poly("y", l), gens, p)
        assert calls


def _update_oracle(packed, active, pairs, h, nvars):
    """The Gebauer-Moeller update as the engine once ran it, kept as a
    reference: the chain test pops its candidates from the front of a list
    and scans the kept and the pending ones with ``any``.  Returns the pairs
    and the active ids after h joins the basis."""
    G = _guards(nvars)
    rh = packed[h][0]
    pending = [(g, _max_fields(rh, packed[g][0], G)) for g in active]
    kept = []
    while pending:
        g, r = pending.pop(0)
        coprime = r == rh + packed[g][0]     # the lcm is the product
        rG = r | G
        if coprime or not any((rG - o) & G == G for _, o, _ in kept) \
                and not any((rG - o) & G == G for _, o in pending):
            kept.append((g, r, coprime))
    pairs = dict(pairs)
    for (i, j), lcm_ij in list(pairs.items()):
        r = _fields(lcm_ij, nvars)
        if ((r | G) - rh) & G == G \
                and _max_fields(packed[i][0], rh, G) != r \
                and _max_fields(rh, packed[j][0], G) != r:
            del pairs[(i, j)]
    for g, r, coprime in kept:
        if not coprime:
            pairs[(g, h)] = (sum(_exponents(r, nvars)) << _W * nvars) - r
    active = [g for g in active if ((packed[g][0] | G) - rh) & G != G] + [h]
    active.sort(key=lambda g: (packed[g][1], g))
    return pairs, active


class TestPairUpdate:
    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_against_the_pop_front_oracle(self, l):
        # random leading terms, with repeats and multiples among them and
        # some exponents past 2^10, added one by one: the new pairs the chain
        # test keeps, the old pairs it drops and the ids it retires are the
        # oracle's
        rng = random.Random(50 + l)
        kept = dropped = retired = 0
        for _ in range(40):
            engine = groebner_module._Engine(32003, None, None, l, False)
            for h in range(rng.randint(2, 14)):
                k = _key(PowerProduct([rng.randint(0, 4) if rng.random() < 0.9
                                       else rng.randint(1000, 6000) for _ in range(l)]))
                engine.packed.append((_fields(k, l), k, 1, []))
                pairs, active = _update_oracle(engine.packed, engine.active,
                                               engine.pairs, h, l)
                old_pairs, old_active = dict(engine.pairs), list(engine.active)
                engine.packed.pop()
                engine.add((_fields(k, l), k, 1, []))
                new = {ij: v for ij, v in engine.pairs.items() if ij[1] == h}
                assert new == {ij: v for ij, v in pairs.items() if ij[1] == h}
                assert old_pairs.keys() - engine.pairs.keys() == old_pairs.keys() - pairs.keys()
                assert set(old_active) - set(engine.active) == set(old_active) - set(active)
                assert engine.pairs == pairs and engine.active == active
                assert engine.divisors == [engine.packed[g] for g in active]
                kept += len(new)
                dropped += len(old_pairs.keys() - pairs.keys())
                retired += len(set(old_active) - set(active))
        # every branch of the update is exercised
        assert kept > 50 and dropped > 5 and retired > 5


class TestPackedUntilRead:
    def test_modular_rgin_decodes_no_tail(self):
        # rgin reads leading terms only: over GF(p) each basis element stays
        # packed from the reduction that finds it to every row that reuses
        # it, and no tail is ever listed, neither from a term dict by _pack
        # nor from the packed row by _tail
        A = Arrangement(load_input(str(INPUTS / "ziegler_1.arr")).items)
        cfg = GinConfig(seed=7, mode="modular")

        def decoded(*args):
            raise AssertionError("a tail was decoded")
        with pytest.MonkeyPatch.context() as m:
            m.setattr(groebner_module, "_pack", decoded)
            m.setattr(groebner_module, "_tail", decoded, raising=False)
            B = jacobian_rgin(A, cfg)
        assert B == jacobian_rgin(A, cfg)
        assert PowerProduct((6, 3, 7)) in B.generators

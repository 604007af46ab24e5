"""Buchberger's algorithm under DegRevLex, normal forms and Hilbert functions.

Inside the kernel a monomial x_1^e_1 ... x_l^e_l is one int, its packed
DegRevLex key (deg << W*l) - (e_l << W*(l-1)) - ... - e_1 with W = 16-bit
exponent fields (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  Plain int order is
DegRevLex, a product is a sum of keys and a quotient a difference.  The
fields alone, R = (deg << W*l) - key, hold the exponents with a spare top bit
each, so a divides b exactly when ((R_b | G) - R_a) & G == G for G the top
bits, an lcm is the fieldwise maximum and coprime monomials are those whose
lcm is R_a + R_b; the pair update reads these off the fields that each
packed basis element keeps.  Every exponent must stay below 2^15, so a
monomial of degree 2^15 or more raises ``DegreeCapExceeded`` on its way in,
and so does an S-pair whose lcm reaches that degree; reduction never raises
the degree.  ``_int_terms`` converts from ``PowerProduct`` on the way in and
``_poly`` converts back on the way out; the trial builders ``moved_partials``
and ``moved_generators`` build every rgin trial in these keys directly.

QQ and GF(p), whose prime p the kernel takes as an int (None for QQ), share
one fraction-free reduction kernel on integer term dicts.  Over QQ divisors
are kept primitive (content 1, positive leading coefficient) and the working
polynomial is rescaled instead of introducing fractions, with the
accumulated multiplier divided out at the end.  Over GF(p) divisors are
monic, so no rescaling ever happens.  Residues are
lazy: a subtraction neither drops a zero nor, over GF(p), reduces mod p; a
term is read mod p, or skipped as zero, only when it is popped or emitted.
When every generator is homogeneous and holds at least half of the monomials
of its degree, as after the random change of every rgin trial, Buchberger's
algorithm reduces on dense rows instead (degree by degree, as in Faugere's
F4, JPAA 139, 1999): a degree-d polynomial is a row over the degree-d keys
in descending order, each x^q * g built once per run.  Over QQ a row is a
list, and a step one list comprehension.  Over GF(p) it is one int, column k
in its k-th field of ``_width(p)`` bytes: a step is one multiply-add of a
negated row, and a field is read mod p only when it leads.  A basis element
stays packed: the remainder that finds it is read once into monic values,
which give its blocks, one per run of columns that differ in x_1 and x_2
only, and its tail, decoded by ``_tail`` only when the tails are reduced.
x^q * g is laid out with one join per group of runs that share the
exponents of x_4, ..., x_l, its runs q_1 + q_2 zero columns apart.

``gin.rgin`` runs both primes' k-th draws as one run modulo p*q, which is a
run mod p and one mod q (Z/pq = Z/p x Z/q) while every leading coefficient
that it inverts is a unit (the D5 principle: Della Dora, Dicrescenzo, Duval,
EUROCAL 1985).  One that vanishes mod one prime only raises ZeroDivisorError
and the draws run apart: answers, provenance and messages are as if separate.

Buchberger's algorithm only top-reduces each S-polynomial: it stops at the
first leading term that no basis element divides.  The leading terms, all
that the pair update and ``leading_term_ideal`` read, are those of full
reduction; the tails are reduced once, against the final basis, when
``GroebnerBasis.elements`` is first read.  Pairs are pruned with
Buchberger's coprimality and chain criteria (Gebauer-Moeller installation)
and selected by smallest lcm degree first.

For homogeneous generators a caller may pass the Hilbert function of their
ideal (Traverso, "Hilbert functions and the Buchberger algorithm", JSC 22,
1996): a monomial ideal that has it, or a ``hilbert_hint`` that runs share.
Homogeneous pairs are reduced degree by degree, so once the leading terms
found span as many degree-d monomials as the hint does, every remaining
degree-d pair reduces to zero and is dropped.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, islice
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from .monomial import MonomialIdeal, _levels
from .polyring import Polynomial, PowerProduct

__all__ = [
    "DegreeCapExceeded", "InternalConsistencyError", "ZeroDivisorError", "GroebnerBasis",
    "normal_form", "buchberger", "hilbert_hint",
    "leading_term_ideal",
    "moved_generators", "moved_partials", "product_and_partials",
]


class DegreeCapExceeded(RuntimeError):
    """The computation needed a total degree above the configured cap."""


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree did not; indicates a failed genericity
    certificate or a bug."""


class ZeroDivisorError(ArithmeticError):
    """A leading coefficient to invert is not a unit modulo a product of primes."""


# ---------------------------------------------------------------------------
# monomials as packed DegRevLex keys
# ---------------------------------------------------------------------------

_W = 16                     # bits per exponent field
_LIMIT = 1 << (_W - 1)      # exponents and input degrees stay below this


def _guards(nvars: int) -> int:
    """The top bit of each of the nvars exponent fields."""
    return ((1 << _W * nvars) - 1) // ((1 << _W) - 1) << (_W - 1)


def _fields(k: int, nvars: int) -> int:
    """R = (deg << W*l) - k: the exponent fields of the key k alone."""
    return -k & ((1 << _W * nvars) - 1)


def _exponents(r: int, nvars: int) -> list:
    """The exponents in the low W*l bits of r."""
    return [r >> _W * i & (1 << _W) - 1 for i in range(nvars)]


def _degree(k: int, nvars: int) -> int:
    return -(-k >> _W * nvars)


def _variables(nvars: int) -> list:
    """The keys of x_1, ..., x_l."""
    return [(1 << _W * nvars) - (1 << _W * j) for j in range(nvars)]


def _key(pp: PowerProduct) -> int:
    """The packed key of a power product; raises past the field limit."""
    deg = sum(pp)
    if deg >= _LIMIT:
        raise DegreeCapExceeded(
            f"monomial degree {deg} > kernel limit {_LIMIT - 1}")
    r = 0
    for e in reversed(pp):
        r = r << _W | e
    return (deg << _W * len(pp)) - r


def _power_product(k: int, nvars: int) -> PowerProduct:
    """The power product whose key is k (its exponents are valid)."""
    return tuple.__new__(PowerProduct, _exponents(-k, nvars))   # -k ends in R


def _max_fields(ra: int, rb: int, g: int) -> int:
    """The fieldwise maximum of two exponent fields; g = _guards(l)."""
    top = ((ra | g) - rb) & g          # guard bits of the fields where a >= b
    take_a = top | (top - (top >> (_W - 1)))   # widened to whole fields
    return ra & take_a | rb & ~take_a


# ---------------------------------------------------------------------------
# internal reduction kernel: integer terms, reduced mod p when p is set
# ---------------------------------------------------------------------------

def _int_terms(f: Polynomial) -> Tuple[dict, int]:
    """Integer terms of f, keyed by sort key, and m with terms = m * f: the
    coefficients scaled to integers by the lcm of their denominators."""
    denom_lcm = math.lcm(*(c.denominator for c in f._terms.values()))
    return {_key(pp): c.numerator * (denom_lcm // c.denominator)
            for pp, c in f._terms.items()}, denom_lcm


def _poly(terms: dict, denom: int, nvars: int) -> Polynomial:
    """The polynomial terms / denom."""
    return Polynomial({_power_product(k, nvars): Fraction(v, denom)
                       for k, v in terms.items()}, nvars, _trusted=True)


def _normalize(terms: dict, p: Optional[int]) -> dict:
    """Primitive with a positive lead over QQ (p is None); monic mod p."""
    if not terms:
        return terms
    lead = max(terms)
    if p is not None:
        inv = _inverse(terms[lead], p)
        return terms if inv == 1 else {k: c * inv % p for k, c in terms.items()}
    content = math.gcd(*terms.values()) * (-1 if terms[lead] < 0 else 1)
    return terms if content == 1 else {k: v // content for k, v in terms.items()}


def _inverse(c: int, m: int) -> int:
    """1/c mod m; ``ZeroDivisorError`` when c is not a unit mod m."""
    if math.gcd(c, m) != 1:
        raise ZeroDivisorError(f"{c} is not a unit mod {m}")
    return pow(c, -1, m)


def _pack(terms: dict, nvars: int) -> tuple:
    """The divisor (fields of lt, lt, lc, tail) of a normalized term dict."""
    lead = max(terms)
    return (_fields(lead, nvars), lead, terms[lead],
            [(k, c) for k, c in terms.items() if k != lead])


def _residues(terms: dict, p: Optional[int]) -> dict:
    """terms without its zero entries; mod p each entry is read mod p."""
    if p:
        return {k: r for k, v in terms.items() if (r := v % p)}
    return {k: v for k, v in terms.items() if v}


def _subtract(work: dict, tail: list, q: int, b: int) -> None:
    """work -= b * q * tail in place; q is a key.  Entries that reach zero
    stay, and mod p no entry is reduced: ``_reduce`` does both on reading."""
    get = work.get
    for k, gc in tail:
        k += q
        work[k] = get(k, 0) - b * gc


def _reduce(work: dict, divisors: Sequence[tuple], p: Optional[int],
            nvars: int, top: bool = False) -> Tuple[dict, int]:
    """Fraction-free reduction of an integer term dict, consumed in place.

    ``divisors`` holds ``_pack`` tuples with lc > 0 and tail the
    non-leading terms; mod p they are monic, so lc = 1 and the multiplier
    stays 1.  An entry of ``work`` may be zero, and mod p any integer: each
    term is read mod p when it is popped and skipped when it is zero.
    Returns (remainder, mult) with remainder = mult * NF(original work); with
    ``top`` it stops at the first leading term that no divisor reduces and
    returns that term with the rest of the work unreduced.  No term popped
    is of higher degree than the work (DegRevLex is degree-compatible).
    """
    mult = 1
    rem: dict = {}
    guards, mask = _guards(nvars), (1 << _W * nvars) - 1
    while work:
        t = max(work)
        c = work.pop(t)
        if p:
            c %= p
        if not c:
            continue
        rt = -t & mask | guards            # the fields of t, guard bits set
        for r, lt, lc, tail in divisors:
            if (rt - r) & guards == guards:     # lt divides t
                g = math.gcd(c, lc)
                a = lc // g
                if a != 1:
                    mult *= a
                    for k in work:
                        work[k] *= a
                    for k in rem:
                        rem[k] *= a
                _subtract(work, tail, t - lt, c // g)
                # drop the common content only when the multiplier grew:
                # after the other steps there is almost never any
                if a != 1 and mult.bit_length() > 512:
                    g = math.gcd(mult, *work.values(), *rem.values())
                    if g > 1:
                        for k in work:
                            work[k] //= g
                        for k in rem:
                            rem[k] //= g
                        mult //= g
                break
        else:
            rem[t] = c
            if top:
                rem.update(_residues(work, p))
                break
    return rem, mult


def _dense(gens: Sequence[dict], nvars: int) -> bool:
    """Every generator is homogeneous and holds at least half of the
    monomials of its degree, as after a random change of coordinates."""
    return all(_degree(min(g), nvars) == (d := _degree(max(g), nvars))
               and 2 * len(g) >= math.comb(d + nvars - 1, nvars - 1) for g in gens)


def _width(p: int) -> int:
    """Bytes per packed GF(p) column: a multiple of 8, 34 bits above p^2."""
    return -(-(2 * p.bit_length() + 34) // 64) * 8


@lru_cache(maxsize=64)
def _columns(nvars: int, d: int) -> Tuple[list, dict, list]:
    """The degree-d keys in descending order, the column of each, and the
    columns that start a run, the monomials without x_2, each with whether
    it starts a group of runs, the monomials without x_2 and x_3.  Keys add,
    so ``monomial._levels`` lists them: blocks by largest variable descend."""
    keys, = islice(_levels(0, _variables(nvars), d), d, None)   # no lower degree kept
    starts = [(i, not r >> _W) for i, k in enumerate(keys)
              if not (r := _fields(k, nvars) >> _W & (1 << 2 * _W) - 1) & (1 << _W) - 1]
    return keys, {k: i for i, k in enumerate(keys)}, starts


def _to_bytes(vals: list, width: int) -> bytes:
    """The ints 0 <= v < p as little-endian fields of ``width`` bytes; up to
    16 bytes p < 2^47 (``_width``), so a field is one 64-bit word or two."""
    if width <= 16 and sys.byteorder == "little":    # the order of ``array``
        words = array("Q", bytes(width * len(vals)))
        words[::width // 8] = array("Q", vals)
        return words.tobytes()
    return b"".join(v.to_bytes(width, "little") for v in vals)


def _from_bytes(b: bytes, width: int):
    """The fields of a packed row, as of ``_to_bytes``: the ints in order."""
    if width <= 16 and sys.byteorder == "little":
        w = array("Q", b)
        return w if width == 8 else [x | y << 64 for x, y in zip(w[::2], w[1::2])]
    return (int.from_bytes(b[i:i + width], "little") for i in range(0, len(b), width))


def _tail(d: tuple, nvars: int) -> list:
    """The tail of a packed element as ``_pack`` lists it.  A dense GF(p)
    element keeps there the bytes of its monic row from lt on instead, and
    this decodes them."""
    if type(d[3]) is not bytes:
        return d[3]
    cols, index, _ = _columns(nvars, _degree(d[1], nvars))
    o = index[d[1]]
    vals = _from_bytes(d[3], len(d[3]) // (len(cols) - o))
    return [(k, c) for k, c in zip(islice(cols, o + 1, None), islice(vals, 1, None)) if c]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def normal_form(f: Polynomial, G: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f on division by the list G.

    No term of the result is divisible by any leading term of G, and the
    difference f - result lies in the ideal generated by G.  Reduction always
    uses the first divisor in list order, so the result is deterministic.
    """
    divisors = [g for g in G if not g.is_zero]
    for g in divisors:
        f._check_compatible(g)
    if f.is_zero or not divisors:
        return f
    work, m0 = _int_terms(f)
    packed = [_pack(_normalize(_int_terms(g)[0], None), f.nvars) for g in divisors]
    rem, mult = _reduce(work, packed, None, f.nvars)
    return _poly(rem, m0 * mult, f.nvars)


class GroebnerBasis:
    """Reduced Groebner basis under DegRevLex: monic, interreduced, sorted.

    It holds the kernel's packed elements, top-reduced only: their leading
    terms generate the leading term ideal minimally and in order, but their
    tails are reduced, and the elements converted, only when ``elements`` is
    first read.  ``p`` is the prime of a basis over GF(p), None over QQ; a
    modular element holds the least non-negative residues.
    """

    __slots__ = ("_divisors", "_elements", "nvars", "p")

    def __init__(self, divisors: list, nvars: int, p: Optional[int]):
        self._divisors = divisors
        self._elements = None
        self.nvars = nvars
        self.p = p

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(
                _poly(terms, terms[max(terms)], self.nvars)
                for terms in _interreduce(self._divisors, self.p, self.nvars))
        return self._elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis) and self.nvars == other.nvars
                and self.p == other.p and self.elements == other.elements)

    def __repr__(self):
        return f"GroebnerBasis([{', '.join(str(g) for g in self.elements)}])"


def _interreduce(divisors: list, p: Optional[int], nvars: int) -> list:
    """Tail-reduce each packed divisor against the others."""
    divisors, final = [(*d[:3], _tail(d, nvars)) for d in divisors], []
    for i, (_, lt, lc, tail) in enumerate(divisors):
        rem, _ = _reduce({lt: lc, **dict(tail)}, divisors[:i] + divisors[i + 1:],
                         p, nvars)
        final.append(_normalize(rem, p))
    return final


class _Staircase:
    """Degree-d monomials of a monomial ideal as keys, for d rising: the
    set for d - 1 times each variable, plus the generators of degree d."""

    def __init__(self, gens, nvars: int):
        self.nvars = nvars
        self.gens: dict = {}       # degree -> keys of generators not yet used
        self.degree, self.monomials, self.counts = -1, set(), {}
        self.steps = _variables(nvars)
        for k in gens:
            self.add(k)

    def add(self, k: int) -> None:
        d = _degree(k, self.nvars)
        if d <= self.degree:       # homogeneous runs add only in the current degree
            self.monomials.add(k)
        else:
            self.gens.setdefault(d, []).append(k)

    def count(self, d: int) -> int:
        """The number of degree-d monomials; the counts of the degrees passed
        are kept, so a lower d still reads right."""
        while self.degree < d:
            self.counts[self.degree] = len(self.monomials)
            self.degree += 1
            self.monomials = {k + step for k in self.monomials
                              for step in self.steps}
            self.monomials.update(self.gens.pop(self.degree, ()))
        return len(self.monomials) if d == self.degree else self.counts[d]


class _Engine:
    """State of one Buchberger run over QQ (p is None) or GF(p)."""

    def __init__(self, p: Optional[int], degree_cap: Optional[int],
                 hint, nvars: int, dense: bool):
        self.p = p
        self.rows = {} if dense else None   # (lt of g, t) -> row
        self.width = _width(p) if dense and p else None   # bytes per column
        self.blocks: dict = {}     # lt of g -> (key, runs) per group (``_element``)
        self.nvars = nvars
        # S-pairs stop at the cap and below the field limit
        self.top = _LIMIT - 1 if degree_cap is None else min(degree_cap, _LIMIT - 1)
        self.hint = hint           # the target Hilbert function, or None
        self.found = _Staircase((), nvars)   # the leading terms so far
        self.packed: list = []     # _pack tuples, never mutated; an id is a position
        self.active: list = []     # ids sorted by lt, no two equal
        self.divisors: list = []   # _pack tuples of the active ids, in order
        self.pairs: dict = {}      # (i, j) i<j -> key of the lcm

    # -- plumbing ----------------------------------------------------------

    def _nf(self, work: dict) -> Optional[tuple]:
        """work top-reduced by the basis into a packed element, None when it
        reduces to zero; tails wait for ``_interreduce``."""
        if self.rows is not None:
            cols = _columns(self.nvars, _degree(max(work), self.nvars))[0]
            row = [work.get(k, 0) for k in cols]
            if self.p:
                return self._reduce_packed(
                    int.from_bytes(_to_bytes(row, self.width), "little"), cols[0])
            return self._reduce_row(row, cols[0])
        rem, _ = _reduce(work, self.divisors, self.p, self.nvars, top=True)
        return _pack(_normalize(rem, self.p), self.nvars) if rem else None

    def _row(self, g: tuple, t: int) -> list:
        """x^q * g for the packed g with x^q * lt = t, as a row from the
        column of t on."""
        row = self.rows.get((g[1], t))
        if row is None:
            _, lt, lc, tail = g
            index = _columns(self.nvars, _degree(t, self.nvars))[1]
            start, q = index[t], t - lt
            row = [0] * (len(index) - start)
            row[0] = lc
            for k, c in tail:
                row[index[k + q] - start] = c
            self.rows[lt, t] = row
        return row

    def _spair_row(self, i: int, j: int, lcm: int) -> list:
        """The S-polynomial of i and j as a row from the column of lcm on."""
        gi, gj = self.packed[i], self.packed[j]
        ri, rj = self._row(gi, lcm), self._row(gj, lcm)
        g = math.gcd(gi[2], gj[2])
        a, b = gj[2] // g, gi[2] // g
        return [a * x - b * y for x, y in zip(ri, rj)]

    def _reduce_row(self, w: list, first: int) -> Optional[tuple]:
        """The row w over QQ, whose entries are the coefficients of the
        monomials from the key first down in its degree, top-reduced by the
        basis into a packed element, or None; w is consumed."""
        n = self.nvars
        cols, index, _ = _columns(n, _degree(first, n))
        o = index[first]
        guards, mask = _guards(n), (1 << _W * n) - 1
        j, mult = 0, 1
        while True:
            j = next(compress(count(j), islice(w, j, None)), None)
            if j is None:
                return None
            t = cols[o + j]
            rt = -t & mask | guards
            for g in self.divisors:
                if (rt - g[0]) & guards == guards:     # lt divides t
                    break
            else:
                return _pack(_normalize({cols[o + k]: c for k, c in enumerate(
                    islice(w, j, None), j) if c}, None), n)
            row, c = self._row(g, t), w[j]
            gcd = math.gcd(c, g[2])
            a, b = g[2] // gcd, c // gcd
            w[j:] = [a * x - b * y for x, y in zip(islice(w, j, None), row)]
            mult *= a
            if mult.bit_length() > 512:     # the multiplier grew: drop the content
                gcd = math.gcd(*islice(w, j, None))
                if gcd > 1:
                    w[j:] = [x // gcd for x in islice(w, j, None)]
                mult = 1

    # -- GF(p) rows packed into one int, ``width`` bytes per column --------

    def _element(self, b: bytes, c: int, cols: list, o: int, starts: list) -> tuple:
        """The basis element of the packed row whose fields from column o on
        have the bytes b, the leading one c mod p: monic, with the bytes of
        its row for a tail (``_tail`` decodes them), and with its negated row
        cut into runs, grouped, for ``_row_packed``.  A negated entry is
        p - v, so it lies in [1, p]."""
        p, s, size = self.p, self.width, len(cols) - o
        inv = _inverse(c, p)
        pos = _to_bytes([f * inv % p for f in _from_bytes(b, s)], s)
        neg = (int.from_bytes(p.to_bytes(s, "little") * size, "little")
               - int.from_bytes(pos, "little")).to_bytes(s * size, "little")
        cuts = [(o, True), *(a for a in starts if a[0] > o), (len(cols), True)]
        heads = [i for i, (_, group) in enumerate(cuts) if group]
        runs = [neg[s * (a - o):s * (e - o)] for (a, _), (e, _) in zip(cuts, cuts[1:])]
        self.blocks[cols[o]] = [(cols[cuts[i][0]], runs[i:j]) for i, j in zip(heads, heads[1:])]
        return _fields(cols[o], self.nvars), cols[o], 1, pos

    def _row_packed(self, g: tuple, t: int) -> int:
        """-x^q * g for the packed g with x^q * lt = t, as a packed row from
        the column of t on, each field in [0, p].  A group of runs keeps its
        order in every degree and its runs of x^q * g lie q_1 + q_2 columns
        apart, so each group is one join, put in place by the column of its
        first key times x^q."""
        row = self.rows.get((g[1], t))
        if row is None:
            index = _columns(self.nvars, _degree(t, self.nvars))[1]
            q, s = t - g[1], self.width
            rq = _fields(q, self.nvars)
            gap = bytes(s * ((rq & (1 << _W) - 1) + (rq >> _W & (1 << _W) - 1)))
            pieces, end = [], s * index[t]
            for key, runs in self.blocks[g[1]]:
                i = s * index[key + q]
                block = gap.join(runs)
                pieces += bytes(i - end), block
                end = i + len(block)
            row = self.rows[g[1], t] = int.from_bytes(b"".join(pieces), "little")
        return row

    def _spair_packed(self, i: int, j: int, lcm: int) -> int:
        """The S-polynomial of i and j as a packed row from the column of lcm
        on: (p - 1) * (p - v) = v mod p, so it is (p - 1) times the negated
        row of i plus that of j.  Each field is at most p^2, and the leading
        one is p * (p - 1)."""
        return ((self.p - 1) * self._row_packed(self.packed[i], lcm)
                + self._row_packed(self.packed[j], lcm))

    def _reduce_packed(self, w: int, first: int) -> Optional[tuple]:
        """The packed row w, field i the coefficient of the i-th monomial from
        the key first down in its degree, top-reduced by the monic basis into
        a new element (``_element``), or None.  A field is read mod p only
        when it leads; till then each step adds c < p times at most p to it,
        one step per column, after a start of at most p^2 (``_width``)."""
        n, p, s = self.nvars, self.p, self.width
        cols, index, starts = _columns(n, _degree(first, n))
        o, low = index[first], (1 << 8 * s) - 1
        guards, mask = _guards(n), (1 << _W * n) - 1
        while w:
            c = (w & low) % p
            if c:
                t = cols[o]
                rt = -t & mask | guards
                for g in self.divisors:
                    if (rt - g[0]) & guards == guards:     # lt divides t
                        break
                else:
                    return self._element(w.to_bytes(s * (len(cols) - o), "little"),
                                         c, cols, o, starts)
                w += c * self._row_packed(g, t)     # the leading field becomes 0 mod p
            w >>= 8 * s
            o += 1
        return None

    def _spair_terms(self, i: int, j: int, lcm: int) -> dict:
        _, lt_i, lc_i, tail_i = self.packed[i]
        _, lt_j, lc_j, tail_j = self.packed[j]
        g = math.gcd(lc_i, lc_j)
        # the leading terms cancel: (lc_j / g) * lc_i = (lc_i / g) * lc_j
        qi = lcm - lt_i
        out = {k + qi: lc_j // g * c for k, c in tail_i}
        _subtract(out, tail_j, lcm - lt_j, lc_i // g)
        return _residues(out, self.p)

    # -- Gebauer-Moeller update, on the fields that ``_pack`` keeps ----------

    def add(self, packed: tuple) -> None:
        h, n, G = len(self.packed), self.nvars, _guards(self.nvars)
        self.packed.append(packed)
        rh, lt_h = packed[0], packed[1]
        self.found.add(lt_h)

        # drop old pairs whose lcm is strictly covered by h
        for (i, j), lcm_ij in list(self.pairs.items()):
            r = _fields(lcm_ij, n)
            if ((r | G) - rh) & G == G \
                    and _max_fields(self.packed[i][0], rh, G) != r \
                    and _max_fields(rh, self.packed[j][0], G) != r:
                del self.pairs[(i, j)]
        # the pairs of h with the current basis, pruned by the chain
        # criterion: drop one whose lcm another's lcm divides, unless its lcm
        # is the product.  The key of the lcm is lt_h + lt_g - the key of the
        # gcd, whose fields sum below 2^15: one product adds them into the top
        # field.  Taken in lcm key order, so by degree, a pair is kept when it
        # is coprime or no kept lcm divides its own; of equal lcms the first
        # taken is kept: the coprime pair if any, else the last in basis order.
        ones, low = G >> _W - 1, (1 << _W) - 1
        candidates = []
        for i, (g, d) in enumerate(zip(self.active, self.divisors)):
            r = _max_fields(rh, d[0], G)
            c = rh + d[0] - r          # the fields of the gcd; 0 when coprime
            key = lt_h + d[1] + c - ((c * ones >> _W * (n - 1) & low) << _W * n)
            candidates.append((key, c != 0, -i, g, r))
        candidates.sort()
        kept = []                      # the fields of the lcms kept
        for key, not_coprime, _, g, r in candidates:
            rG = r | G
            for o in kept if not_coprime else ():
                if (rG - o) & G == G:
                    break
            else:
                kept.append(r)
                if not_coprime:
                    self.pairs[(g, h)] = key

        # retire basis elements whose leading term h covers, and put h in
        # place: no two active leading terms are equal
        keep = [((d[0] | G) - rh) & G != G for d in self.divisors]
        if not all(keep):
            self.active = list(compress(self.active, keep))
            self.divisors = list(compress(self.divisors, keep))
        i = bisect(self.divisors, lt_h, key=itemgetter(1))
        self.active.insert(i, h)
        self.divisors.insert(i, packed)

    def select_pair(self):
        """Normal strategy: smallest lcm first (its key orders by degree
        first), then ids."""
        return min(self.pairs.items(), key=lambda kv: (kv[1], kv[0]))

    def run(self, upto: float = math.inf) -> None:
        """Finish every pair whose lcm has degree at most ``upto``."""
        while self.pairs:
            (i, j), lcm = self.select_pair()
            d = _degree(lcm, self.nvars)
            if d > upto:
                return
            del self.pairs[(i, j)]
            if d > self.top:
                raise DegreeCapExceeded(f"S-pair lcm degree {d} > cap {self.top}")
            if self.hint is not None:   # homogeneous: pairs go degree by degree
                found, target = self.found.count(d), self.hint.count(d)
                if found > target:
                    raise InternalConsistencyError(
                        f"leading terms span {found} monomials of degree {d}, "
                        f"but the Hilbert function allows {target}")
                if found == target:
                    continue
            if self.rows is None:
                h = self._nf(self._spair_terms(i, j, lcm))
            else:
                h = self._reduce_packed(self._spair_packed(i, j, lcm), lcm) if self.p \
                    else self._reduce_row(self._spair_row(i, j, lcm), lcm)
            if h:
                self.add(h)

    def count(self, d: int) -> int:
        """The number of degree-d monomials in the leading term ideal, once
        every pair of degree at most d is finished: as a ``hilbert`` hint,
        read in any order of d."""
        if d > self.found.degree:
            self.run(d)
        return self.found.count(d)


def buchberger(gens: Sequence, degree_cap: Optional[int] = None,
               hilbert=None, ring: Optional[tuple] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    ``gens`` are Polynomials or, with ``ring`` = (nvars, p), integer term
    dicts in the kernel's packed keys, never changed: over QQ when p is None,
    else read mod the prime p.  Zero generators are discarded; an all-zero
    input yields the zero ideal, represented by an empty basis.  ``hilbert``,
    a monomial ideal or a ``hilbert_hint`` with the Hilbert function of that
    ideal, is used only when every generator is homogeneous: it drops the
    pairs it proves to reduce to zero, and a basis that outgrows it raises
    ``InternalConsistencyError``.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("buchberger requires at least one generator")
    if ring is None:
        nvars, p = gens[0].nvars, None
        for g in gens[1:]:
            gens[0]._check_compatible(g)
        gens = [_int_terms(g)[0] for g in gens]
    else:
        nvars, p = ring
    engine = _start(gens, nvars, p, degree_cap, hilbert)
    if engine is None:
        return GroebnerBasis([], nvars, p)
    engine.run()
    return GroebnerBasis(engine.divisors, nvars, p)


def hilbert_hint(gens, ring: tuple, degree_cap: Optional[int] = None):
    """A ``hilbert`` hint that runs share, built only as far as they ask: the
    monomials of a ``MonomialIdeal``, or a run on packed generators, read as
    with ``ring`` = (nvars, p), of such an ideal; None when all are zero."""
    if isinstance(gens, MonomialIdeal):
        return _Staircase(map(_key, gens.generators), ring[0])
    return _start(gens, *ring, degree_cap, None)


def _start(gens: Sequence[dict], nvars: int, p: Optional[int],
           degree_cap: Optional[int], hilbert) -> Optional[_Engine]:
    """An engine fed with the normalized ``gens``, no pair finished yet (None
    when all are zero); a run modulo p*q splits before the cap is read."""
    nonzero = sorted((_normalize(r, p) for g in gens if (r := _residues(g, p))), key=max)
    if not nonzero:
        return None
    if degree_cap is not None:
        top = max(_degree(max(g), nvars) for g in nonzero)
        if top > degree_cap:
            raise DegreeCapExceeded(f"generator degree {top} > cap {degree_cap}")
    # keys order by degree first, so g is homogeneous when its least and
    # greatest keys share a degree
    if not all(_degree(min(g), nvars) == _degree(max(g), nvars) for g in nonzero):
        hilbert = None
    elif isinstance(hilbert, MonomialIdeal):
        hilbert = hilbert_hint(hilbert, (nvars, p))
    engine = _Engine(p, degree_cap, hilbert, nvars, _dense(nonzero, nvars))
    # feed generators smallest leading term first, reducing each against the
    # basis built so far
    for terms in nonzero:
        reduced = engine._nf(terms)
        if reduced:
            engine.add(reduced)
    return engine


def leading_term_ideal(G: GroebnerBasis) -> MonomialIdeal:
    """Monomial ideal of the leading terms of a reduced basis.

    It reads the kernel's elements without tail-reducing them: each new
    element is fully reduced and retires every element whose leading term
    it divides, so their leading terms are already the minimal generators
    and the ideal takes them without a second minimalize pass.
    """
    return MonomialIdeal._minimal(
        (_power_product(d[1], G.nvars) for d in G._divisors), G.nvars)


# ---------------------------------------------------------------------------
# rgin trials, built in packed keys
# ---------------------------------------------------------------------------

def _product(rows: Sequence[Sequence[int]], l: int, p: Optional[int],
             Q: Optional[dict] = None) -> dict:
    """The product of Q, by default 1, and the linear forms whose
    coefficients are the integer rows, as a packed term dict (integers,
    residues mod p): a product by x_j adds the key of x_j."""
    xs = _variables(l)
    Q = {0: 1} if Q is None else Q          # key 0 is the monomial 1
    for row in rows:
        out: dict = {}
        for x, a in zip(xs, row):
            if a:
                for k, c in Q.items():
                    out[k + x] = out.get(k + x, 0) + a * c
        Q = _residues(out, p)
    return Q


def _expand(rows: Sequence[Sequence[int]], p: Optional[int]) -> List[dict]:
    """[Q, dQ/dx_1, ..., dQ/dx_l] for Q the ``_product`` of the integer
    rows, over QQ when p is None and else read mod the prime p; the exponent
    of x_j in a term is read off its field."""
    l = len(rows[0])
    Q = _product(rows, l, p)
    partials, low = [], (1 << _W) - 1
    for j, x in enumerate(_variables(l)):  # -k >> W*j & low: exponent of x
        partials.append(_residues(
            {k - x: c * (-k >> _W * j & low) for k, c in Q.items()}, p))
    return [Q] + partials


def product_and_partials(rows: Sequence[Sequence[int]]) -> List[Polynomial]:
    """``_expand`` over QQ, as Polynomials."""
    return [_poly(t, 1, len(rows[0])) for t in _expand(rows, None)]


def moved_partials(rows: Sequence[Sequence[int]]) -> Callable:
    """The rgin trial builder of the Jacobian ideal of the product of these
    integer rows: ``build(g, p)`` moves them by g, then ``_expand``."""
    def build(g, p):
        cols = list(zip(*g))
        return _expand([[sum(a * b for a, b in zip(row, col)) for col in cols]
                        for row in rows], p)[1:]
    return build


def moved_generators(gens: Sequence[Polynomial]) -> Callable:
    """The rgin trial builder of nonzero generators in l variables, each read
    once as primitive integer terms: they keep the ideal, and no prime divides
    them all, so none vanishes mod p.  ``build(g, p)`` moves each term c*x^a,
    read mod p, to c times the ``_product`` of a_j copies of row j of g."""
    l = gens[0].nvars
    primitive = [_normalize(_int_terms(f)[0], None) for f in gens]

    def build(rows, p):
        out, xs = [], _variables(l)
        powers = {0: {0: 1}}      # key of x^a -> prod_j (row j)^a_j

        def power(key):
            """x^a moved as x^(a - e_j) moved times row j, for the last j
            with a_j > 0: one product per power product and draw."""
            chain, k = [], key
            while k not in powers:
                j = max(j for j, e in enumerate(_power_product(k, l)) if e)
                chain.append((k, j))
                k -= xs[j]
            for k, j in reversed(chain):
                powers[k] = _product([rows[j]], l, p, powers[k - xs[j]])
            return powers[key]

        for f in primitive:       # c*x^a moves to c * prod_j (row j)^a_j
            moved: dict = {}
            for k, c in _residues(f, p).items():
                for m, v in power(k).items():
                    moved[m] = moved.get(m, 0) + c * v
            out.append(_residues(moved, p))
        return out
    return build

"""Combinatorics of monomial ideals.

Minimal generators, membership, sectional matrices, reduction numbers,
regularity and graded Betti numbers of strongly stable ideals, the
two-variable lex-segment shape test, and Cohen-Macaulayness.  Every
invariant but the sectional matrix is read off the minimal generators in
closed form; the sectional matrix counts standard monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .polyring import DimensionError, PowerProduct, format_power_product

__all__ = [
    "INFINITE", "MonomialIdeal", "StronglyStableIdeal", "NotStronglyStableError",
    "is_strongly_stable",
    "SectionalMatrix", "sectional_matrix", "triangle_equality",
    "reduction_number", "regularity_stable",
    "BettiTable", "betti_eliahou_kervaire",
    "LexSegmentShape", "is_cm_codim2_stable", "codimension", "is_cohen_macaulay",
    "count_standard_monomials", "degree_monomials",
]


INFINITE = math.inf     # an infinite reduction number


class NotStronglyStableError(ValueError):
    """A Borel-fixed ideal was required but the input is not one."""


def _canonical_order(gens: Iterable[PowerProduct]) -> tuple:
    # Display order: by degree, then DegRevLex descending within a degree.
    return tuple(sorted(gens, key=_gen_sort_key))


def _gen_sort_key(pp: PowerProduct):
    # within a degree, lex order of the reversed exponents is DegRevLex reversed
    return (pp.degree(), pp[::-1])


class MonomialIdeal:
    """Monomial ideal given by its (automatically minimalized) generators."""

    __slots__ = ("generators", "nvars")

    def __init__(self, gens: Iterable[PowerProduct], nvars: int):
        gens = [g if isinstance(g, PowerProduct) else PowerProduct(g) for g in gens]
        for g in gens:
            if len(g) != nvars:
                raise DimensionError(f"{g!r} has {len(g)} exponents, expected {nvars}")
        minimal = []
        for g in sorted(set(gens), key=lambda p: p.degree()):
            if not any(h.divides(g) for h in minimal):
                minimal.append(g)
        self.generators = _canonical_order(minimal)
        self.nvars = nvars

    @classmethod
    def _minimal(cls, gens: Iterable[PowerProduct], nvars: int) -> "MonomialIdeal":
        """The ideal of gens, for a caller that knows them to be the minimal
        generators: put in canonical order, not minimalized again."""
        out = cls.__new__(cls)
        out.generators, out.nvars = _canonical_order(gens), nvars
        return out

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return bool(self.generators) and self.generators[0].degree() == 0

    def __contains__(self, t: PowerProduct) -> bool:
        """Monomial membership: some minimal generator divides t."""
        if len(t) != self.nvars:
            raise DimensionError(f"{t!r} has {len(t)} exponents, expected {self.nvars}")
        return any(g.divides(t) for g in self.generators)

    def generator_degrees(self) -> dict:
        """Map degree -> number of minimal generators of that degree."""
        out: dict = {}
        for g in self.generators:
            out[g.degree()] = out.get(g.degree(), 0) + 1
        return out

    def max_generator_degree(self) -> Optional[int]:
        if not self.generators:
            return None
        return max(g.degree() for g in self.generators)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonomialIdeal)
                and self.nvars == other.nvars
                and self.generators == other.generators)

    def __hash__(self) -> int:
        return hash((self.nvars, self.generators))

    def __repr__(self) -> str:
        return f"<{', '.join(format_power_product(g) for g in self.generators) or '0'}>"


# ---------------------------------------------------------------------------
# strong stability (Borel-fixedness)
# ---------------------------------------------------------------------------

def is_strongly_stable(B: MonomialIdeal) -> bool:
    """True iff every adjacent move on every minimal generator stays in B.

    That is enough: for t = g * u with g a minimal generator, an adjacent
    move on t moves either g or u, so B is closed under adjacent moves on
    all its monomials, and every move x_i * t / x_j is a chain of them.

    Monomials are packed into ints, one field per variable, each wide enough
    for the largest exponent plus one and a spare top bit G: a divides b when
    ((b | G) - a) & G == G, as in ``groebner``.  A move keeps the degree, so
    it lies in B when it is a generator or a lower-degree generator divides it.
    """
    gens = B.generators
    w = (max(map(max, gens), default=0) + 1).bit_length() + 1
    G = sum(1 << w * j + w - 1 for j in range(B.nvars))
    packed = [sum(e << w * j for j, e in enumerate(g)) for g in gens]
    members, below, degree = set(packed), [], 0
    for i, (g, t) in enumerate(zip(gens, packed)):
        if g.degree() > degree:
            below, degree = packed[:i], g.degree()
        for j in range(1, len(g)):
            if g[j]:
                m = t - ((1 << w) - 1 << w * (j - 1))    # x_(j-1) * g / x_j
                if m not in members and not any(
                        ((m | G) - a) & G == G for a in below):
                    return False
    return True


class StronglyStableIdeal(MonomialIdeal):
    """A monomial ideal verified to be strongly stable.

    ``certificate`` carries randomized-computation metadata when ``rgin``
    produced the ideal, and is None otherwise; it does not take part in
    equality or hashing.
    """

    __slots__ = ("certificate",)

    def __init__(self, gens: Iterable[PowerProduct], nvars: int):
        super().__init__(gens, nvars)
        if not is_strongly_stable(self):
            raise NotStronglyStableError(f"{self!r} is not strongly stable")
        self.certificate = None

    @classmethod
    def from_ideal(cls, B: MonomialIdeal) -> "StronglyStableIdeal":
        """B checked once: calls chained on the result skip the check."""
        return B if isinstance(B, StronglyStableIdeal) else cls(B.generators, B.nvars)

    @classmethod
    def _checked(cls, B: MonomialIdeal, certificate=None) -> "StronglyStableIdeal":
        """B as it is, for a caller that has already checked it strongly
        stable: no second minimalize pass and no second check."""
        out = cls._minimal(B.generators, B.nvars)
        out.certificate = certificate
        return out


# ---------------------------------------------------------------------------
# counting standard monomials
# ---------------------------------------------------------------------------

def degree_monomials(degree: int, nvars: int) -> Iterator[tuple]:
    """All exponent tuples of the given total degree (plain tuples)."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in degree_monomials(degree - first, nvars - 1):
            yield (first,) + rest


def count_standard_monomials(B: MonomialIdeal, i: int, d: int) -> int:
    """Number of degree-d monomials in x_1..x_i lying outside B."""
    if not 1 <= i <= B.nvars:
        raise IndexError(f"row index {i} out of range 1..{B.nvars}")
    if d < 0:
        return 0
    # Generators involving variables beyond x_i never divide such monomials.
    gens = [g[:i] for g in B.generators if all(e == 0 for e in g[i:])]
    if any(not any(g) for g in gens):
        return 0  # unit ideal
    count = 0
    for mono in degree_monomials(d, i):
        if not any(all(a <= b for a, b in zip(g, mono)) for g in gens):
            count += 1
    return count


# ---------------------------------------------------------------------------
# sectional matrices
# ---------------------------------------------------------------------------

class SectionalMatrix:
    """Table M(i, d) of generic-section Hilbert values, i = 1..l, d = 0..dmax."""

    __slots__ = ("values", "dmax")

    def __init__(self, values: Sequence[Sequence[int]]):
        self.values = tuple(tuple(row) for row in values)
        self.dmax = len(self.values[0]) - 1

    @property
    def nrows(self) -> int:
        return len(self.values)

    def m(self, i: int, d: int) -> int:
        """Entry M(i, d) with 1-based row index."""
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row index {i} out of range 1..{self.nrows}")
        if not 0 <= d <= self.dmax:
            raise IndexError(f"degree {d} out of range 0..{self.dmax}")
        return self.values[i - 1][d]

    def row(self, i: int) -> tuple:
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row index {i} out of range 1..{self.nrows}")
        return self.values[i - 1]

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for row in self.values for v in row)

    def __eq__(self, other):
        return isinstance(other, SectionalMatrix) and self.values == other.values

    def __repr__(self):
        return f"SectionalMatrix(dmax={self.dmax}, rows={self.values})"


def sectional_matrix(B: MonomialIdeal, dmax: Optional[int] = None) -> SectionalMatrix:
    """Sectional matrix of S/B for a strongly stable ideal B.

    Sectioning by generic linear forms agrees with sectioning by the smallest
    variables only for Borel-fixed ideals, so non-Borel input is rejected;
    ``count_standard_monomials`` gives the plain counts.
    """
    if dmax is not None and dmax < 0:
        raise ValueError(f"dmax must be non-negative, got {dmax}")
    B = StronglyStableIdeal.from_ideal(B)
    if dmax is None:
        top = B.max_generator_degree()
        dmax = (top if top is not None else 0) + 2
    values = [[count_standard_monomials(B, i, d) for d in range(dmax + 1)]
              for i in range(1, B.nvars + 1)]
    return SectionalMatrix(values)


def triangle_equality(M: SectionalMatrix, i: int, d: int) -> bool:
    """Whether M(i,d) = M(i-1,d) + M(i,d-1).

    For a strongly stable source this fails exactly when there is a degree-d
    minimal generator whose largest variable is x_i (Eliahou-Kervaire).
    """
    if i < 2 or d < 1:
        raise IndexError(f"triangle equality needs i >= 2 and d >= 1, got ({i}, {d})")
    return M.m(i, d) == M.m(i - 1, d) + M.m(i, d - 1)


def reduction_number(B: MonomialIdeal, i: int):
    """The i-th reduction number: min d with x_(l-i)^(d+1) in B, else INFINITE.

    Membership of a pure power is decided by the pure-power generators of the
    same variable.  For the unit ideal the result is -1.
    """
    if not 0 <= i <= B.nvars - 1:
        raise IndexError(f"reduction index {i} out of range 0..{B.nvars - 1}")
    var = B.nvars - i  # 1-based variable index l - i
    pure = [g.degree() for g in B.generators if g.degree() == g[var - 1]]
    if not pure:
        return INFINITE
    return min(pure) - 1


def regularity_stable(B: MonomialIdeal) -> int:
    """Regularity of a strongly stable ideal: its top generator degree."""
    B = StronglyStableIdeal.from_ideal(B)
    if B.is_zero:
        raise ValueError("regularity undefined for the zero ideal")
    return B.max_generator_degree()


# ---------------------------------------------------------------------------
# graded Betti numbers of strongly stable ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Graded Betti data of a strongly stable ideal.

    ``beta0[j]`` counts minimal generators of degree j, ``beta1[j]`` the first
    syzygies in degree j, and ``m_table[(k, j)]`` the degree-j generators whose
    biggest dividing variable is x_k.
    """

    beta0: dict
    beta1: dict
    m_table: dict


def betti_eliahou_kervaire(B: MonomialIdeal) -> BettiTable:
    """Betti numbers of a strongly stable ideal from its generators."""
    B = StronglyStableIdeal.from_ideal(B)
    m_table: dict = {}
    for g in B.generators:
        k = g.max_variable()
        if k == 0:
            raise ValueError("Betti table undefined for the unit ideal")
        key = (k, g.degree())
        m_table[key] = m_table.get(key, 0) + 1
    beta0: dict = {}
    beta1: dict = {}
    for (k, j), m in m_table.items():
        beta0[j] = beta0.get(j, 0) + m
        if k >= 2:
            beta1[j + 1] = beta1.get(j + 1, 0) + (k - 1) * m
    return BettiTable(beta0=dict(sorted(beta0.items())),
                      beta1=dict(sorted(beta1.items())),
                      m_table=dict(sorted(m_table.items())))


# ---------------------------------------------------------------------------
# Cohen-Macaulay tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LexSegmentShape:
    """Witness of the two-variable lex-segment shape of a stable ideal.

    Generators are x_1^(n-1), x_1^(n-2) x_2^(lambda_1), ..., x_2^(lambda_(n-1))
    with a strictly increasing lambda sequence.
    """

    n: int
    lambdas: tuple


def is_cm_codim2_stable(B: MonomialIdeal) -> Optional[LexSegmentShape]:
    """Lex-segment shape of a strongly stable ideal, or None.

    A strongly stable ideal is Cohen-Macaulay of codimension 2 exactly when
    it is proper, its generators involve only x_1 and x_2, and one of them is
    a pure power of x_2.  Strong stability does the rest: the Borel move
    x_1 * t / x_2 of each generator t forces the x_1-exponents, read in
    order, to be 0, 1, ..., n-1 and the x_2-exponents to fall
    (Eliahou-Kervaire, J. Algebra 129, 1990).
    """
    B = StronglyStableIdeal.from_ideal(B)
    if B.is_zero or B.is_unit or any(g.max_variable() > 2 for g in B.generators):
        return None
    by_x1 = sorted(B.generators, key=lambda g: g[0])
    if by_x1[0][0]:
        return None   # no pure power of x_2
    return LexSegmentShape(n=len(by_x1),
                           lambdas=tuple(g[1] for g in by_x1[-2::-1]))


def codimension(B: MonomialIdeal) -> int:
    """Codimension of a strongly stable ideal: its pure-power generators.

    Strong stability puts them on x_1, ..., x_c, one for each variable.
    """
    B = StronglyStableIdeal.from_ideal(B)
    if B.is_unit:
        return B.nvars
    return sum(g.degree() == g[g.max_variable() - 1] for g in B.generators)


def is_cohen_macaulay(B: MonomialIdeal) -> bool:
    """Cohen-Macaulayness of S/B for strongly stable B, read off the generators.

    pd(S/B) is the largest index of the largest variable of a minimal
    generator (Eliahou-Kervaire, J. Algebra 129, 1990), and S/B is
    Cohen-Macaulay iff pd(S/B) = codim B (Auslander-Buchsbaum).  The paper's
    sectional criterion (r_(l-c) finite and the triangle equality at (c+1, d)
    for every d up to the regularity) gives the same verdict and is kept as
    the test oracle.
    """
    B = StronglyStableIdeal.from_ideal(B)
    if B.is_zero or B.is_unit:
        return True
    return max(g.max_variable() for g in B.generators) == codimension(B)

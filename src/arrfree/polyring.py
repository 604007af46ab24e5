"""Exact sparse multivariate polynomial arithmetic with the DegRevLex order.

Variables are x_1 > x_2 > ... > x_l.  Coefficients are ``Fraction``s in
lowest terms: the prime fields of modular mode live only inside the Groebner
kernel, on integer term dicts.  All values are immutable after construction
and safe to share across workers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Tuple, Union

__all__ = [
    "DimensionError", "PowerProduct",
    "Polynomial", "variables",
    "apply_linear_change",
    "var_names", "format_power_product",
]


class DimensionError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


# ---------------------------------------------------------------------------
# power products
# ---------------------------------------------------------------------------

class PowerProduct(tuple):
    """Exponent vector of a monomial, totally ordered by DegRevLex."""

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int]) -> "PowerProduct":
        t = tuple.__new__(cls, exponents)
        if not t:
            raise ValueError("a power product needs at least one variable")
        for e in t:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {e!r}")
        return t

    @classmethod
    def unit(cls, nvars: int) -> "PowerProduct":
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "PowerProduct":
        """The power product x_i (1-based index)."""
        if not 1 <= i <= nvars:
            raise IndexError(f"variable index {i} out of range 1..{nvars}")
        return cls(tuple(1 if j == i - 1 else 0 for j in range(nvars)))

    def degree(self) -> int:
        return sum(self)

    # Sums of valid exponents are valid, so products skip the validation
    # in __new__.
    def __mul__(self, other: "PowerProduct") -> "PowerProduct":
        if len(self) != len(other):
            raise DimensionError("power products of different lengths")
        return tuple.__new__(PowerProduct, map(add, self, other))

    def divides(self, other: "PowerProduct") -> bool:
        if len(self) != len(other):
            raise DimensionError("power products of different lengths")
        return all(a <= b for a, b in zip(self, other))

    def max_variable(self) -> int:
        """1-based index of the biggest variable dividing this monomial; 0 for 1."""
        for j in range(len(self) - 1, -1, -1):
            if self[j] > 0:
                return j + 1
        return 0

    # DegRevLex ordering, as -1, 0 or 1.  Reversed iteration finds the last
    # differing exponent; the side where it is smaller wins.
    def _cmp(self, other: "PowerProduct") -> int:
        if len(self) != len(other):
            raise DimensionError("power products of different lengths")
        sd, od = sum(self), sum(other)
        if sd != od:
            return -1 if sd < od else 1
        for a, b in zip(reversed(self), reversed(other)):
            if a != b:
                return 1 if a < b else -1
        return 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self) -> str:
        return f"PowerProduct({tuple(self)})"

    def __str__(self) -> str:
        return format_power_product(self)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

CoeffLike = Union[int, Fraction]


class Polynomial:
    """Immutable sparse polynomial: a map from power products to Fractions."""

    __slots__ = ("nvars", "_terms", "_lead")

    def __init__(self, terms: Mapping[PowerProduct, CoeffLike], nvars: int, *,
                 _trusted: bool = False):
        self.nvars = nvars
        if _trusted:
            clean = dict(terms)
        else:
            clean = {}
            for pp, c in terms.items():
                if not isinstance(pp, PowerProduct):
                    pp = PowerProduct(pp)
                if len(pp) != nvars:
                    raise DimensionError(f"{pp!r} has {len(pp)} exponents, expected {nvars}")
                c = Fraction(c)
                if c:
                    clean[pp] = c
        self._terms = clean
        self._lead = max(clean) if clean else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls({}, nvars, _trusted=True)

    @classmethod
    def constant(cls, c, nvars: int) -> "Polynomial":
        return cls({PowerProduct.unit(nvars): c}, nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        """The polynomial x_i (1-based index)."""
        return cls({PowerProduct.variable(i, nvars): 1}, nvars)

    @classmethod
    def monomial(cls, pp: PowerProduct, nvars: int, coeff=1) -> "Polynomial":
        return cls({pp: coeff}, nvars)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def leading_power_product(self) -> PowerProduct:
        if self._lead is None:
            raise ValueError("the zero polynomial has no leading term")
        return self._lead

    def leading_coefficient(self):
        return self._terms[self.leading_power_product()]

    def total_degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(pp.degree() for pp in self._terms)

    def coefficient(self, pp: PowerProduct):
        return self._terms.get(pp, Fraction(0))

    def terms(self) -> Iterator[tuple]:
        """Terms in descending DegRevLex order."""
        for pp in sorted(self._terms, reverse=True):
            yield pp, self._terms[pp]

    def is_homogeneous(self) -> bool:
        degs = {pp.degree() for pp in self._terms}
        return len(degs) <= 1

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"polynomials in {self.nvars} and {other.nvars} variables")

    def _reduced(self, out: dict) -> "Polynomial":
        """A polynomial like self with the coefficient sums ``out``."""
        return Polynomial({pp: v for pp, v in out.items() if v},
                          self.nvars, _trusted=True)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self._terms)
        for pp, c in other._terms.items():
            out[pp] = out.get(pp, 0) + c
        return self._reduced(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return self._reduced({pp: -c for pp, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out: dict = {}
        small, big = (self._terms, other._terms)
        if len(small) > len(big):
            small, big = big, small
        for pa, ca in small.items():
            for pb, cb in big.items():
                pp = pa * pb
                out[pp] = out.get(pp, 0) + ca * cb
        return self._reduced(out)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return self._reduced({pp: v * c for pp, v in self._terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- equality / display --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for pp, c in self.terms():
            mono = format_power_product(pp)
            negative = c < 0
            csym = str(abs(c))
            if mono == "1":
                body = csym
            elif csym == "1":
                body = mono
            else:
                body = f"{csym}*{mono}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f" - {body}" if negative else f" + {body}")
        return "".join(parts)


def variables(nvars: int) -> list:
    """The list [x_1, ..., x_l] as polynomials."""
    return [Polynomial.variable(i, nvars) for i in range(1, nvars + 1)]


# ---------------------------------------------------------------------------
# integer elimination and linear changes of coordinates
# ---------------------------------------------------------------------------

def _bareiss(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(rank, det) of an integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): each entry stays a minor of the input,
    so every division by the previous pivot is exact.  ``det`` is the
    determinant of the leading square block (the first len(rows) columns),
    0 when that block is singular."""
    m = [list(row) for row in rows]
    rank, sign, prev, last = 0, 1, 1, -1
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top, lead = m[rank], m[rank][col]
        for r in range(rank + 1, len(m)):
            c = m[r][col]
            m[r] = [(lead * x - c * y) // prev for x, y in zip(m[r], top)]
        prev, rank, last = lead, rank + 1, col
        if rank == len(m):
            break
    return rank, sign * prev if rank == len(m) and last == rank - 1 else 0


def apply_linear_change(f: Polynomial,
                        rows: Sequence[Sequence[CoeffLike]]) -> Polynomial:
    """Substitute x_j -> sum_k rows[j][k] * x_k into f.  The square matrix
    is given by its rows, as ``gin.random_linear_change`` draws them, with
    int or Fraction entries; it need not be invertible."""
    n = f.nvars
    if len(rows) != n:
        raise DimensionError(f"a change of {n} variables needs {n} rows, got {len(rows)}")
    for j, row in enumerate(rows, start=1):
        if len(row) != n:
            raise DimensionError(f"row {j} of the change has {len(row)} entries, "
                                 f"expected {n}")
    if f.is_zero:
        return f
    images = [Polynomial({PowerProduct.variable(k + 1, n): c
                          for k, c in enumerate(row)}, n) for row in rows]
    # Cache powers of each image so dense inputs reuse work.
    pows: list = [[Polynomial.constant(1, n), images[j]] for j in range(n)]

    def power(j: int, e: int) -> Polynomial:
        while len(pows[j]) <= e:
            pows[j].append(pows[j][-1] * images[j])
        return pows[j][e]

    total = Polynomial.zero(n)
    for pp, c in f._terms.items():
        part = Polynomial.constant(c, n)
        for j, e in enumerate(pp):
            if e:
                part = part * power(j, e)
        total = total + part
    return total


# ---------------------------------------------------------------------------
# display helpers
# ---------------------------------------------------------------------------

def var_names(nvars: int) -> list:
    """Display names: x, y, z, w for up to 4 variables, else x1..xl."""
    if nvars <= 4:
        return ["x", "y", "z", "w"][:nvars]
    return [f"x{i}" for i in range(1, nvars + 1)]


def format_power_product(pp: PowerProduct) -> str:
    parts = []
    for name, e in zip(var_names(len(pp)), pp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"

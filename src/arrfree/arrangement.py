"""Central hyperplane arrangements and their freeness.

Freeness is decided through the generic initial ideal of the Jacobian ideal,
both by the shape of its minimal generators and by three entries of the
sectional matrix together with one partial row sum.  Both tests reduce to
Cohen-Macaulayness of the Jacobian ring, so ``analyze`` runs both and
requires them to agree.  Every FREE verdict is checked once more against the
closed-form rgin of the exponents it reads (``rgin_from_exponents``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .gin import GinCertificate, GinConfig, rgin
from .groebner import (InternalConsistencyError, moved_partials,
                       product_and_partials)
from .monomial import (INFINITE, BettiTable, LexSegmentShape, MonomialIdeal,
                       NotStronglyStableError, SectionalMatrix,
                       StronglyStableIdeal, betti_eliahou_kervaire,
                       is_cm_codim2_stable, is_strongly_stable,
                       reduction_number, regularity_stable, sectional_matrix)
from .polyring import (DimensionError, Polynomial, PowerProduct, _bareiss,
                       variables)

__all__ = [
    "ArrangementError", "NotFreeRginError", "InternalConsistencyError",
    "Arrangement", "ExponentVector", "FreenessReport",
    "RealizabilityVerdict", "ConjectureReport", "jacobian_ideal", "jacobian_rgin",
    "sectional_bounds", "analyze",
    "exponents_from_rgin", "rgin_from_exponents",
    "supersolvable_from_exponents", "realizable_as_free", "check_conjecture_Z",
]


class ArrangementError(ValueError):
    """The given forms do not define a valid central arrangement."""


class NotFreeRginError(ValueError):
    """The ideal does not have the generator shape of a free arrangement."""


class ExponentVector(tuple):
    """Non-decreasing positive integer exponents."""

    __slots__ = ()

    def __new__(cls, entries) -> "ExponentVector":
        t = tuple(int(v) for v in entries)
        if not t:
            raise ValueError("exponent vector must be non-empty")
        if any(v < 1 for v in t):
            raise ValueError(f"exponents must be positive: {t}")
        if any(a > b for a, b in zip(t, t[1:])):
            raise ValueError(f"exponents must be non-decreasing: {t}")
        return tuple.__new__(cls, t)


# ---------------------------------------------------------------------------
# validation and basic data
# ---------------------------------------------------------------------------

def _is_linear_form(f: Polynomial) -> bool:
    return (not f.is_zero and f.is_homogeneous() and f.total_degree() == 1)


def _primitive_row(f: Polynomial) -> Tuple[Tuple[int, ...], Fraction]:
    """(row, content) of a linear form f = content * (row . x), with row a
    primitive integer vector and content a positive rational."""
    vec = [Fraction(0)] * f.nvars
    for pp, c in f._terms.items():
        vec[pp.index(1)] = c
    den = math.lcm(*(c.denominator for c in vec))
    ints = [c.numerator * (den // c.denominator) for c in vec]
    content = math.gcd(*ints)
    return tuple(v // content for v in ints), Fraction(content, den)


class Arrangement:
    """A central arrangement of pairwise distinct hyperplanes.

    The forms must be nonzero linear forms in one number of variables; a
    form that is not linear homogeneous, or two forms that define one
    hyperplane, raise ``ArrangementError`` naming each problem.
    """

    __slots__ = ("forms", "rows", "content", "nvars", "essential")

    def __init__(self, forms: Sequence[Polynomial]):
        forms = tuple(forms)
        if not forms:
            raise ArrangementError("an arrangement needs at least one hyperplane")
        l = forms[0].nvars
        problems = []
        for idx, f in enumerate(forms, start=1):
            if f.nvars != l:
                raise DimensionError(f"form #{idx} lives in {f.nvars} variables, "
                                     f"expected {l}")
            if not _is_linear_form(f):
                problems.append(f"form #{idx} ({f}) is not linear homogeneous")
        if problems:
            raise ArrangementError("; ".join(problems))
        # each form is content * row (``_primitive_row``), and two forms
        # define one hyperplane iff their rows agree up to sign
        primitive = [_primitive_row(f) for f in forms]
        seen: dict = {}
        for idx, (row, _) in enumerate(primitive):
            sign = 1 if next(v for v in row if v) > 0 else -1
            first = seen.setdefault(tuple(sign * v for v in row), idx)
            if first != idx:
                problems.append(
                    f"forms #{first + 1} and #{idx + 1} define the same hyperplane")
        if problems:
            raise ArrangementError("; ".join(problems))
        self.forms = forms
        # Q is the product of the rows times self.content
        self.rows, contents = zip(*primitive)
        self.content = math.prod(contents, start=Fraction(1))
        self.nvars = l
        self.essential = _bareiss(self.rows)[0] == l

    @property
    def n(self) -> int:
        return len(self.forms)

    @property
    def l(self) -> int:
        return self.nvars

    def __repr__(self):
        return f"Arrangement([{', '.join(str(f) for f in self.forms)}])"


def jacobian_ideal(A: Arrangement) -> List[Polynomial]:
    """Generators of the Jacobian ideal: the l partial derivatives.

    For a product of n linear forms over the rationals the polynomial itself
    is a combination of its partials (checked here), so it is omitted from
    the generator list.  ``analyze`` does not build this list: its rgin
    trials move the forms instead (see ``jacobian_rgin``).
    """
    Q, *partials = [f.scale(A.content) for f in product_and_partials(A.rows)]
    euler = Polynomial.zero(A.nvars)
    xs = variables(A.nvars)
    for xi, dQ in zip(xs, partials):
        euler = euler + xi * dQ
    if euler != Q.scale(A.n):
        raise InternalConsistencyError("Euler relation failed for the Jacobian ideal")
    return partials


def jacobian_rgin(A: Arrangement, cfg: GinConfig = GinConfig()) -> StronglyStableIdeal:
    """rgin of the Jacobian ideal of A.

    In exact mode this is ``rgin(jacobian_ideal(A), cfg)``, with the same
    draws; in modular mode it is that too whenever p divides the content of
    no form.  By the chain rule grad(Q o g) = g^T (grad Q o g), and g^T is
    invertible, so J(Q o g) = J(Q) o g.  Each trial therefore moves the n
    primitive integer rows of the forms by g, multiplies them and
    differentiates the product (``moved_partials``), instead of substituting
    g into the l dense partials of degree n - 1; J(A) itself is never built.
    Scaling a form changes no ideal, and a primitive row moved by a matrix
    invertible mod p never vanishes mod p, so modular answers do not depend
    on how the forms are scaled.
    """
    return rgin(A.nvars, cfg, moved_partials(A.rows))


# ---------------------------------------------------------------------------
# freeness reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreenessReport:
    free: bool
    n: int
    l: int
    essential: bool
    rgin: StronglyStableIdeal
    sectional: SectionalMatrix
    d0: Optional[int]
    regularity: Optional[int]
    exponents: Optional[ExponentVector]
    betti: Optional[BettiTable]
    provenance: GinCertificate

    @property
    def trivially_free(self) -> bool:
        return self.rgin.is_unit


def _free_by_generator_shape(B: StronglyStableIdeal, n: int,
                             shape: Optional[LexSegmentShape]) -> bool:
    """Generator-shape freeness test for B = rgin of a Jacobian ideal, whose
    ``is_cm_codim2_stable`` shape is given: B is the unit ideal or a
    two-variable lex segment on n generators."""
    return B.is_unit or shape is not None and shape.n == n


def _free_exponents(B: StronglyStableIdeal, n: int, essential: bool,
                    shape: Optional[LexSegmentShape]) -> ExponentVector:
    """The exponents e of a FREE verdict on a proper B of the given shape,
    checked by one round trip: B is ``rgin_from_exponents(e)`` padded with
    zeros to l variables, sum(e) = n, and len(e) = l exactly when the
    arrangement is essential."""
    try:
        e = _read_exponents(B, shape)
        R = rgin_from_exponents(e)
    except ValueError as exc:
        raise InternalConsistencyError(f"free verdict but {exc}") from exc
    pad = (0,) * (B.nvars - len(e))
    if [g + pad for g in R.generators] != list(B.generators) \
            or sum(e) != n or (len(e) == B.nvars) != essential:
        raise InternalConsistencyError(
            f"free verdict but {B!r} is not the rgin of exponents {tuple(e)} "
            f"with n={n}, l={B.nvars}, essential={essential}")
    return e


def _free_by_sectional(B: StronglyStableIdeal, M: SectionalMatrix,
                       d0: Optional[int]) -> bool:
    """Sectional-matrix freeness test (three entries plus one row sum)."""
    if M.is_zero:
        return True
    if B.nvars < 3:
        # every central arrangement in the plane (or the line) is free
        return True
    if d0 is None:
        raise InternalConsistencyError(
            "the second-variable reduction number must be finite for a Jacobian ideal")
    flat = M.m(3, d0) == M.m(3, d0 + 1) == M.m(3, d0 + 2)
    row_sum = sum(M.m(2, d) for d in range(0, d0 + 1))
    return flat and M.m(3, d0) == row_sum


def sectional_bounds(B: StronglyStableIdeal) -> Tuple[Optional[int], Optional[int], int]:
    """(d0, regularity, default dmax) of an rgin B in l variables.

    d0 is the reduction number r_{l-2}(B), None when B is the unit ideal,
    l < 2 or the number is infinite; the regularity is None for the zero
    ideal.  The default dmax, regularity + 2, is the narrowest sectional
    matrix that both freeness tests can read: a finite d0 makes x_2^(d0+1)
    a minimal generator, so d0 + 2 is at most regularity + 1.
    """
    reg = regularity_stable(B) if not B.is_zero else None
    d0 = None
    if not B.is_unit and B.nvars >= 2:
        r = reduction_number(B, B.nvars - 2)
        d0 = None if r is INFINITE else r
    return d0, reg, (reg or 0) + 2


def analyze(A: Arrangement, cfg: GinConfig = GinConfig(),
            dmax: Optional[int] = None) -> FreenessReport:
    """Full freeness report for one arrangement.

    Both characterizations, the generator shape and the sectional matrix,
    decide every call, and a disagreement raises
    ``InternalConsistencyError``.  A FREE verdict on a proper rgin is
    checked once more by one round trip through ``rgin_from_exponents``
    (``_free_exponents``).  ``dmax`` widens the sectional matrix beyond the
    default regularity + 2 bound.
    """
    n, l = A.n, A.l
    B = jacobian_rgin(A, cfg)
    d0, reg, floor = sectional_bounds(B)
    M = sectional_matrix(B, floor if dmax is None else max(dmax, floor))
    shape = is_cm_codim2_stable(B)
    free = _free_by_generator_shape(B, n, shape)
    if free != _free_by_sectional(B, M, d0):
        raise InternalConsistencyError(
            f"freeness verdicts disagree: generator shape says {free}, "
            f"sectional matrix says {not free}")

    betti = None
    if not B.is_zero and not B.is_unit:
        betti = betti_eliahou_kervaire(B)
    exponents = None
    if free and B.is_unit:
        exponents = ExponentVector((1,) * l)
    elif free:
        exponents = _free_exponents(B, n, A.essential, shape)
    return FreenessReport(free=free, n=n, l=l,
                          essential=A.essential, rgin=B, sectional=M,
                          d0=d0, regularity=reg,
                          exponents=exponents if A.essential else None,
                          betti=betti, provenance=B.certificate)


# ---------------------------------------------------------------------------
# exponents <-> rgin
# ---------------------------------------------------------------------------

def exponents_from_rgin(B: StronglyStableIdeal) -> ExponentVector:
    """Recover the exponents of a free essential arrangement from its rgin.

    The multiplicity of the exponent value a is the drop of the generator
    count between degrees a+n-2 and a+n-1 (``_read_exponents``); raises
    ``NotFreeRginError`` unless B is a two-variable lex segment whose counts
    never increase and give l exponents.  The one-variable unit ideal is the
    rgin of the single hyperplane x, with exponents (1,).
    """
    if B.is_unit and B.nvars == 1:
        return ExponentVector((1,))
    e = _read_exponents(B, is_cm_codim2_stable(B))
    if len(e) != B.nvars:
        raise NotFreeRginError(
            f"the counting procedure yields {len(e)} exponents, "
            f"but the ambient dimension is {B.nvars}")
    return e


def _read_exponents(B: StronglyStableIdeal,
                    shape: Optional[LexSegmentShape]) -> ExponentVector:
    """The exponent list read off the drops in the generator count of a
    two-variable lex segment B on n generators, of any length, given its
    ``is_cm_codim2_stable`` shape.  The drops telescope: there are
    beta0(n-1) exponents and they sum to n."""
    if shape is None:
        raise NotFreeRginError(
            f"{B!r} is not a two-variable lex-segment ideal")
    n = shape.n
    beta0 = B.generator_degrees()
    e_top = shape.lambdas[-1] - n + 2
    exps: List[int] = []
    for alpha in range(1, e_top + 1):
        c = beta0.get(alpha + n - 2, 0) - beta0.get(alpha + n - 1, 0)
        if c < 0:
            raise NotFreeRginError(
                f"generator counts increase between degrees {alpha + n - 2} "
                f"and {alpha + n - 1}")
        exps.extend([alpha] * c)
    return ExponentVector(exps)


def rgin_from_exponents(e) -> StronglyStableIdeal:
    """The unique rgin of a free essential arrangement with exponents e.

    Each exponent v gives one generator in each degree n-1, ..., n-2+v; the
    i-th generator in degree order (from i = 0) is x1^(n-1-i) x2^(d_i-n+1+i).
    The powers of x1 fall and those of x2 rise with i, so the generators are
    minimal as built; only strong stability is checked.
    """
    e = ExponentVector(e)
    if e[0] != 1:
        raise ValueError("the smallest exponent of an essential arrangement is 1")
    l, n = len(e), sum(e)
    if n == 1:
        return StronglyStableIdeal((PowerProduct.unit(l),), l)
    degrees = sorted(n - 2 + a for v in e for a in range(1, v + 1))
    B = MonomialIdeal._minimal(
        [PowerProduct((n - 1 - i, d - n + 1 + i) + (0,) * (l - 2))
         for i, d in enumerate(degrees)], l)
    if not is_strongly_stable(B):
        raise NotStronglyStableError(f"{B!r} is not strongly stable")
    return StronglyStableIdeal._checked(B)


def supersolvable_from_exponents(e) -> Arrangement:
    """The staircase arrangement {x1} U {x1 - a*xk : 1 <= a <= e_k}.

    It is central, essential, supersolvable, and free with exponents e.
    """
    e = ExponentVector(e)
    if e[0] != 1:
        raise ValueError("the construction needs leading exponent 1")
    l = len(e)
    xs = variables(l)
    forms = [xs[0]]
    for k in range(2, l + 1):
        for a in range(1, e[k - 1] + 1):
            forms.append(xs[0] - xs[k - 1].scale(a))
    return Arrangement(forms)


# ---------------------------------------------------------------------------
# realizability as the rgin of a free arrangement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealizabilityVerdict:
    realizable: bool
    reason: Optional[str]
    exponents: Optional[ExponentVector]
    arrangement: Optional[Arrangement]
    verified: bool


def _no(reason: str) -> RealizabilityVerdict:
    return RealizabilityVerdict(False, reason, None, None, False)


def realizable_as_free(B: StronglyStableIdeal, cfg: GinConfig = GinConfig(),
                       verify: bool = True) -> RealizabilityVerdict:
    """Decide whether B is the rgin of the Jacobian ideal of a free
    essential arrangement, and construct one if so.

    The test is the generator-count chain: l generators of the minimal
    degree n - 1, fewer in degree n, and from there at least one in each
    degree up to the top, never more than in the degree before.  On success
    the witness arrangement is checked end-to-end: its rgin must reproduce
    B exactly.
    """
    if B.is_zero or B.is_unit and B.nvars > 1:
        return _no("the unit and zero ideals are not Jacobian rgins of "
                   "essential free arrangements")
    if B.is_unit:               # the single hyperplane x: J(A) = <1>
        return _realized(ExponentVector((1,)), B, cfg, verify)
    l = B.nvars
    shape = is_cm_codim2_stable(B)
    if shape is None:
        return _no("not Cohen-Macaulay of codimension 2 "
                   "(generators must form a two-variable lex segment)")
    n = shape.n
    beta0 = B.generator_degrees()
    d_min = n - 1
    d_max = shape.lambdas[-1]
    if beta0.get(d_min, 0) != l:
        return _no(f"beta0 at the minimal degree {d_min} is "
                   f"{beta0.get(d_min, 0)}, expected l = {l}")
    for j in range(d_min + 1, d_max):
        if beta0.get(j, 0) == 0:
            return _no(f"no minimal generator of degree {j}")
    if d_max > d_min and beta0.get(d_min + 1, 0) >= beta0[d_min]:
        return _no(f"beta0({d_min}) = {beta0[d_min]} does not drop: "
                   f"beta0({d_min + 1}) = {beta0.get(d_min + 1, 0)}")
    for j in range(d_min + 1, d_max):
        if beta0.get(j, 0) < beta0.get(j + 1, 0):
            return _no(f"beta0({j}) = {beta0.get(j, 0)} < "
                       f"beta0({j + 1}) = {beta0.get(j + 1, 0)}")
    # the chain gives l generators in degree n - 1, so l exponents
    return _realized(_read_exponents(B, shape), B, cfg, verify)


def _realized(exponents: ExponentVector, B: StronglyStableIdeal, cfg: GinConfig,
              verify: bool) -> RealizabilityVerdict:
    """The staircase arrangement with these exponents as the witness for B;
    with ``verify`` its rgin must reproduce B exactly."""
    arrangement = supersolvable_from_exponents(exponents)
    if verify and (B2 := jacobian_rgin(arrangement, cfg)) != B:
        raise InternalConsistencyError(
            f"constructed arrangement has rgin {B2!r}, expected {B!r}")
    return RealizabilityVerdict(True, None, exponents, arrangement, verify)


# ---------------------------------------------------------------------------
# conjecture harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of the third-variable degree-bound check.

    The predicate: every minimal generator involving the third variable has
    degree at least d0 + 1, where d0 + 1 is the least pure power of the
    second variable; without such a power (d0 is None) every one violates
    it.  This is an experiment harness, never a freeness gate.
    """

    holds: bool
    d0: Optional[int]
    violations: Tuple[PowerProduct, ...]
    vacuous: bool


def check_conjecture_Z(B: StronglyStableIdeal) -> ConjectureReport:
    """Check the degree bound for third-variable generators of B."""
    third = [g for g in B.generators if B.nvars >= 3 and g[2] > 0]
    d0 = sectional_bounds(B)[0]
    # with no pure power of the second variable no degree meets the bound
    violations = tuple(g for g in third if d0 is None or g.degree() < d0 + 1)
    return ConjectureReport(holds=not violations, d0=d0,
                            violations=violations, vacuous=not third)

"""Randomized computation of the generic initial ideal under DegRevLex.

Genericity of a coordinate change cannot be certified symbolically, so the
result is accepted only when several independently drawn integer matrices
produce the same Borel-fixed leading term ideal.  The gin is the largest
initial ideal over all coordinate changes, compared degree by degree, so a
draw that is not Borel-fixed or gives a smaller ideal is redrawn on its own;
a larger one replaces every draw kept before it.  In prime-field mode the
agreement must additionally hold across two distinct primes, and the result
is flagged as modular.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

from .groebner import (_Staircase, _int_terms, _key, _normalize, _power_product,
                       _residues, _variables, buchberger, hilbert_hint, leading_term_ideal)
from .monomial import MonomialIdeal, StronglyStableIdeal, is_strongly_stable
# no trial calls apply_linear_change: it stays here for the bench to wrap
from .polyring import Polynomial, _bareiss, _is_prime, apply_linear_change

__all__ = [
    "GinConfig", "GinCertificate", "Draw", "GenericityExhaustedError",
    "StronglyStableIdeal", "is_strongly_stable",
    "random_linear_change", "rgin",
]

DRAWS_PER_TRIAL = 5     # each field may make this many draws per agreeing trial


@dataclass(frozen=True)
class GinConfig:
    """Parameters of the randomized gin computation.

    Each field (QQ, or each of the two primes) may make ``DRAWS_PER_TRIAL *
    trials`` draws.  ``entry_bound`` bounds the matrix entries in exact mode
    only; modular draws are uniform over GF(p).
    """

    seed: int = 1
    trials: int = 2
    entry_bound: int = 10
    mode: str = "exact"                     # "exact" or "modular"
    primes: Tuple[int, int] = (32003, 32009)
    degree_cap: Optional[int] = None

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("at least 2 agreement trials are required")
        if self.entry_bound < 1:
            raise ValueError("entry bound must be >= 1")
        if self.mode not in ("exact", "modular"):
            raise ValueError(f"unknown coefficient mode {self.mode!r}")
        if self.mode == "modular":
            p1, p2 = self.primes
            if p1 == p2 or not all(p < 1 << 64 and _is_prime(p) for p in self.primes):
                raise ValueError("modular mode needs two distinct primes below 2^64")

    @property
    def coeff_mode(self) -> str:
        if self.mode == "exact":
            return "exact"
        return f"mod:{self.primes[0]},{self.primes[1]}"


@dataclass(frozen=True)
class GinCertificate:
    """Metadata of a successful randomized gin run."""

    seed: int
    trials: int
    coeff_mode: str
    matrices: tuple   # the integer rows of each kept draw, field by field
    # the other draws, in the order they were made; not part of the JSON
    discarded: tuple = field(default=(), compare=False)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "coeff_mode": self.coeff_mode,
            "matrices": [
                [list(row) for row in m] for m in self.matrices],
        }


@dataclass(frozen=True)
class Draw:
    """One random coordinate change of an rgin run and what became of it."""

    field: str        # "exact" or "mod<p>"
    index: int        # k for the k-th draw of its field, from 0
    matrix: tuple
    borel: bool
    kept: bool


class GenericityExhaustedError(RuntimeError):
    """A field used up its draws before ``trials`` of them agreed."""

    def __init__(self, message: str, observed: Sequence[MonomialIdeal],
                 draws: Sequence[Draw] = ()):
        super().__init__(message)
        self.observed = tuple(observed)
        self.draws = tuple(draws)


def random_linear_change(l: int, rng: random.Random, bound: Optional[int] = None,
                         modulus: Optional[int] = None) -> Tuple[Tuple[int, ...], ...]:
    """Random invertible l x l integer matrix, as a tuple of l row tuples.

    Give exactly one of ``bound`` (entries in [-bound, bound]) and
    ``modulus`` p (entries uniform in [0, p), invertible mod p).  Draws
    that ``_bareiss`` finds singular, or singular mod p, are resampled.
    """
    if (bound is None) == (modulus is None):
        raise ValueError("give exactly one of bound and modulus")
    lo, hi = (-bound, bound) if modulus is None else (0, modulus - 1)
    if l < 1 or hi < 1:
        raise ValueError("need l >= 1, bound >= 1 and modulus >= 2")
    while True:
        rows = tuple(tuple(rng.randint(lo, hi) for _ in range(l)) for _ in range(l))
        det = _bareiss(rows)[1]
        if det and (modulus is None or det % modulus):
            return rows


def _trial_stream(seed: int, attempt: int, trial: int, tag: str) -> random.Random:
    # Private substream per (seed, attempt, trial); string seeding is stable
    # across processes and platforms.
    return random.Random(f"rgin:{seed}:{attempt}:{trial}:{tag}")


def _product(rows: Sequence[Sequence[int]], l: int, p: Optional[int],
             Q: Optional[dict] = None) -> dict:
    """The product of Q, by default 1, and the linear forms whose
    coefficients are the integer rows, as a term dict in the Groebner
    kernel's packed keys (integers, residues mod p): a product by x_j adds
    the key of x_j."""
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


def _one_trial(build: Callable, l, rng, cfg: GinConfig, p: Optional[int],
               hint: Optional[MonomialIdeal]) -> Tuple[MonomialIdeal, tuple]:
    rows = (random_linear_change(l, rng, cfg.entry_bound) if p is None
            else random_linear_change(l, rng, modulus=p))
    gb = buchberger(build(rows, p), degree_cap=cfg.degree_cap,
                    hilbert=hint, ring=(l, p))
    return leading_term_ideal(gb), rows


def _larger(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """True when a is larger than b in the order the gin maximizes.

    In the first degree d where the minimal generators differ, the larger
    ideal holds the DegRevLex-largest degree-d monomial of the symmetric
    difference.  Below d the ideals agree, so in degree d the generators
    differ exactly where the ideals do.
    """
    diff = set(a.generators) ^ set(b.generators)
    if not diff:
        return False
    d = min(m.degree() for m in diff)
    return max(m for m in diff if m.degree() == d) in a.generators


def rgin(gens: Union[Sequence[Polynomial], int], cfg: GinConfig = GinConfig(),
         build: Optional[Callable] = None) -> StronglyStableIdeal:
    """Generic initial ideal of the ideal generated by ``gens``.

    Draws random coordinate changes until every field (QQ, or each prime in
    modular mode) has ``cfg.trials`` draws giving the same strongly stable
    leading term ideal.  Each draw is judged on its own against the best
    candidate so far: one that is not strongly stable, or smaller, is
    discarded and redrawn; one that is larger becomes the candidate and
    discards every draw kept so far.  A field that has made
    ``DRAWS_PER_TRIAL * cfg.trials`` draws without that raises
    ``GenericityExhaustedError``.  The k-th draw of a field uses the same
    random stream whatever happened to the draws before it.

    ``build(rows, p)`` returns the generators of one trial as the kernel's
    packed term dicts (see ``buchberger``), which must generate the ideal of
    ``gens`` after the change by the integer ``rows`` drawn by
    ``random_linear_change``, over QQ when p is None, else mod the prime p.
    The default reads each generator once as primitive integer terms
    (``_normalize`` of ``_int_terms``), so none vanishes mod p, and moves
    each term c*x^a, read mod p, to c times the ``_product`` of a_j copies
    of row j; a caller with a cheaper route to the same ideal passes its
    own, and passes the number of variables l as ``gens``.  The draws do not
    depend on the route.  All draws share the Hilbert function of the ideal,
    so ``buchberger`` skips the pairs it proves to reduce to zero: in exact
    mode by the ``hilbert_hint`` of the unmoved generators
    ``build(identity, None)``, which every draw shares; over each prime,
    where that run costs as much as a draw, by the leading terms of the
    prime's first draw.
    """
    if build is not None:
        l = gens
    else:
        gens = list(gens)
        if not gens:
            raise ValueError("rgin requires at least one generator")
        l = gens[0].nvars
        for g in gens[1:]:
            gens[0]._check_compatible(g)
        nonzero = [g for g in gens if not g.is_zero]
        if not nonzero:
            return StronglyStableIdeal((), l)
        # primitive integer terms keep the ideal, and no prime divides all
        # of them, so no generator vanishes mod p
        primitive = [_normalize(_int_terms(f)[0], None) for f in nonzero]

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

    fields = ([("exact", None)] if cfg.mode == "exact"
              else [(f"mod{p}", p) for p in cfg.primes])

    budget = DRAWS_PER_TRIAL * cfg.trials
    draws = []                                # (tag, k, matrix, borel, ideal)
    made = {tag: 0 for tag, _ in fields}
    kept = {tag: [] for tag, _ in fields}     # indices into draws
    hints = {}                                # tag -> Hilbert function hint
    if cfg.mode == "exact":
        identity = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
        hints["exact"] = hilbert_hint(build(identity, None), (l, None), cfg.degree_cap)
    best = None
    while any(len(v) < cfg.trials for v in kept.values()):
        for tag, p in fields:
            while len(kept[tag]) < cfg.trials:
                k = made[tag]
                if k == budget:
                    raise _exhausted(cfg, tag, draws, kept)
                made[tag] += 1
                rng = _trial_stream(cfg.seed, k // cfg.trials, k % cfg.trials, tag)
                ideal, rows = _one_trial(build, l, rng, cfg, p, hints.get(tag))
                if tag not in hints:     # later draws share the first's staircase
                    hints[tag] = _Staircase(map(_key, ideal.generators), l)
                # the candidate was checked when it became the candidate
                borel = ideal == best or is_strongly_stable(ideal)
                draws.append((tag, k, rows, borel, ideal))
                if borel and (best is None or _larger(ideal, best)):
                    best = ideal
                    for v in kept.values():
                        v.clear()
                if borel and ideal == best:
                    kept[tag].append(len(draws) - 1)

    chosen = [i for tag, _ in fields for i in kept[tag]]
    cert = GinCertificate(
        seed=cfg.seed, trials=cfg.trials, coeff_mode=cfg.coeff_mode,
        matrices=tuple(draws[i][2] for i in chosen),
        discarded=tuple(d[2] for i, d in enumerate(draws) if i not in chosen))
    return StronglyStableIdeal._checked(best, cert)


def _exhausted(cfg: GinConfig, tag: str, draws: list,
               kept: dict) -> GenericityExhaustedError:
    chosen = {i for v in kept.values() for i in v}
    history = [Draw(t, k, m, borel, i in chosen)
               for i, (t, k, m, borel, _) in enumerate(draws)]
    observed = [d[4] for d in draws]
    if cfg.mode == "exact":
        entries = f"entries in [-{cfg.entry_bound}, {cfg.entry_bound}]"
        hint = "retry with a different seed or a larger entry bound"
    else:
        entries = "entries uniform mod p"
        hint = "retry with a different seed"
    return GenericityExhaustedError(
        f"no {cfg.trials} agreeing Borel-fixed leading term ideals: {tag} used "
        f"all {DRAWS_PER_TRIAL * cfg.trials} of its draws (seed {cfg.seed}, "
        f"{entries}); {len(draws)} draws, "
        f"{sum(not d.borel for d in history)} not Borel, "
        f"{len(set(observed))} distinct candidates; {hint}",
        observed, history)

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
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

from .groebner import (ZeroDivisorError, buchberger, hilbert_hint, leading_term_ideal,
                       moved_generators)
from .monomial import MonomialIdeal, StronglyStableIdeal, is_strongly_stable
# no trial calls apply_linear_change: it stays here for the bench to wrap
from .polyring import Polynomial, _bareiss, apply_linear_change

__all__ = [
    "GinConfig", "GinCertificate", "Draw", "GenericityExhaustedError",
    "StronglyStableIdeal", "is_strongly_stable",
    "random_linear_change", "rgin",
]

DRAWS_PER_TRIAL = 5     # each field may make this many draws per agreeing trial


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the prime bases 2..37, which no composite below
    3.18 * 10^23 passes (Sorenson and Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = 2^s * d, d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class GinConfig:
    """Parameters of the randomized gin computation.

    Each field (QQ, or each of the two primes) may make ``DRAWS_PER_TRIAL *
    trials`` draws.  ``entry_bound`` bounds the matrix entries in exact mode
    only; modular draws are uniform over GF(p).  Modular mode takes two
    distinct primes below 2^64, or one, p, paired with the first prime from
    p + 2 on, else (when none stays below 2^64) the greatest prime below p.
    """

    seed: int = 1
    trials: int = 2
    entry_bound: int = 10
    mode: str = "exact"                     # "exact" or "modular"
    primes: Tuple[int, ...] = (32003, 32009)
    degree_cap: Optional[int] = None

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("at least 2 agreement trials are required")
        if self.entry_bound < 1:
            raise ValueError("entry bound must be >= 1")
        if self.mode not in ("exact", "modular"):
            raise ValueError(f"unknown coefficient mode {self.mode!r}")
        if self.mode == "modular" and not (
                len(self.primes) == len(set(self.primes)) in (1, 2)
                and all(p < 1 << 64 and _is_prime(p) for p in self.primes)):
            raise ValueError("modular mode needs one or two distinct primes below 2^64")
        if self.mode == "modular" and len(self.primes) == 1:
            p, = self.primes
            q = next((q for q in range(p + 2, 1 << 64) if _is_prime(q)), None) \
                or next(q for q in range(p - 1, 1, -1) if _is_prime(q))
            object.__setattr__(self, "primes", (p, q))

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
    # every ``Draw``, in the order they were made; not part of the JSON
    draws: tuple = field(default=(), compare=False)

    @property
    def discarded(self) -> tuple:
        """The matrices of the draws not kept, in the order they were made."""
        return tuple(d.matrix for d in self.draws if not d.kept)

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
    ideal: MonomialIdeal   # its leading term ideal


class GenericityExhaustedError(RuntimeError):
    """A field used up its draws before ``trials`` of them agreed."""

    def __init__(self, message: str, draws: Sequence[Draw] = ()):
        super().__init__(message)
        self.draws = tuple(draws)

    @property
    def observed(self) -> tuple:
        """The leading term ideal of each draw, in the order they were made."""
        return tuple(d.ideal for d in self.draws)


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

    ``build(rows, m)`` returns the generators of one trial as the kernel's
    packed term dicts (see ``buchberger``), which must generate the ideal of
    ``gens`` after the change by the integer ``rows`` drawn by
    ``random_linear_change``, over QQ when m is None, else as integers read
    mod m, a prime or p*q (below).  The default is ``moved_generators(gens)``;
    a caller with a cheaper route to the same ideal, as ``moved_partials`` is
    for a Jacobian ideal, passes its own, and passes the number of variables
    l as ``gens``.  The draws do not depend on the route.  All draws share
    the Hilbert function of the ideal, so ``buchberger`` skips the pairs it
    proves to reduce to zero: in exact mode by the ``hilbert_hint`` of the
    unmoved generators ``build(identity, None)``, which every draw shares;
    over each prime, where that run costs as much as a draw, by the leading
    term ideal of its first draw.  In modular mode the first prime's draw k <
    ``cfg.trials`` runs as one with the second prime's draw k, modulo p*q,
    when k = 0 or when the joint run of the draws 0 did not split; a leading
    coefficient that only one prime divides splits a joint run in two.
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
        build = moved_generators(nonzero)

    fields = ([("exact", None)] if cfg.mode == "exact"
              else [(f"mod{p}", p) for p in cfg.primes])
    tag2, q = fields[-1]                      # the second prime, or QQ alone
    draws = []                                # (tag, k, matrix, borel, ideal)
    hints = {}                                # tag -> Hilbert function hint
    if cfg.mode == "exact":
        identity = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
        hints["exact"] = hilbert_hint(build(identity, None), (l, None), cfg.degree_cap)
    ahead, best = {}, None                    # (tag, k) -> (rows, ideal or None)

    def short(tag):   # kept draws gave the candidate, larger than all drawn before it
        return sum(d[0] == tag and d[4] == best for d in draws) < cfg.trials

    def run(rows, m, tag):
        return leading_term_ideal(buchberger(
            build(rows, m), cfg.degree_cap, hints.get(tag), (l, m)))

    def change(tag, p, k):
        rng = _trial_stream(cfg.seed, k // cfg.trials, k % cfg.trials, tag)
        return (random_linear_change(l, rng, cfg.entry_bound) if p is None
                else random_linear_change(l, rng, modulus=p))

    while any(short(tag) for tag, _ in fields):
        for tag, p in fields:
            while short(tag):
                k = sum(d[0] == tag for d in draws)
                if k == DRAWS_PER_TRIAL * cfg.trials:
                    raise _exhausted(cfg, tag, _history(draws, best))
                rows, ideal = ahead.pop((tag, k), None) or (change(tag, p, k), None)
                # the first prime's draw k < trials runs with the second's
                # modulo p*q unless the draws 0 split; their joint run is still
                # ahead, as the second prime draws after the first's trials
                if tag != tag2 and k < cfg.trials and (
                        k == 0 or ahead[tag2, 0][1] is not None):
                    rows2, u = change(tag2, q, k), pow(p, -1, q)
                    with suppress(ZeroDivisorError):
                        ideal = run(tuple(tuple(a + p * ((b - a) * u % q) for a, b in zip(r, r2))
                                          for r, r2 in zip(rows, rows2)), p * q, tag)
                    ahead[tag2, k] = rows2, ideal
                if ideal is None:
                    ideal = run(rows, p, tag)
                if tag not in hints:   # a prime's later draws share its first's
                    hints[tag] = hilbert_hint(ideal, (l, p))
                # the candidate was checked when it became the candidate
                borel = ideal == best or is_strongly_stable(ideal)
                draws.append((tag, k, rows, borel, ideal))
                if borel and (best is None or _larger(ideal, best)):
                    best = ideal

    history = _history(draws, best)
    cert = GinCertificate(
        seed=cfg.seed, trials=cfg.trials, coeff_mode=cfg.coeff_mode,
        matrices=tuple(d.matrix for tag, _ in fields for d in history
                       if d.field == tag and d.kept),
        draws=history)
    return StronglyStableIdeal._checked(best, cert)


def _history(draws: list, best: Optional[MonomialIdeal]) -> tuple:
    """The draws as ``Draw`` records; kept are those that gave the candidate."""
    return tuple(Draw(tag, k, m, borel, ideal == best, ideal)
                 for tag, k, m, borel, ideal in draws)


def _exhausted(cfg: GinConfig, tag: str, history: tuple) -> GenericityExhaustedError:
    if cfg.mode == "exact":
        entries = f"entries in [-{cfg.entry_bound}, {cfg.entry_bound}]"
        hint = "retry with a different seed or a larger entry bound"
    else:
        entries = "entries uniform mod p"
        hint = "retry with a different seed"
    return GenericityExhaustedError(
        f"no {cfg.trials} agreeing Borel-fixed leading term ideals: {tag} used "
        f"all {DRAWS_PER_TRIAL * cfg.trials} of its draws (seed {cfg.seed}, "
        f"{entries}); {len(history)} draws, "
        f"{sum(not d.borel for d in history)} not Borel, "
        f"{len({d.ideal for d in history})} distinct candidates; {hint}",
        history)

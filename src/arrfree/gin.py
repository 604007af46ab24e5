"""Randomized computation of the generic initial ideal under DegRevLex.

Genericity of a coordinate change cannot be certified symbolically, so the
result is accepted only when several independently drawn integer matrices
produce the same Borel-fixed leading term ideal.  In prime-field mode the
agreement must additionally hold across two distinct primes, and the result
is flagged as modular.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .groebner import buchberger, leading_term_ideal
from .monomial import MonomialIdeal, StronglyStableIdeal, is_strongly_stable
from .polyring import (GF, QQ, LinearChange, Polynomial, apply_linear_change,
                       _is_prime)

__all__ = [
    "GinConfig", "GinCertificate", "GenericityExhaustedError",
    "StronglyStableIdeal", "is_strongly_stable",
    "random_linear_change", "substituted", "rgin",
]


@dataclass(frozen=True)
class GinConfig:
    """Parameters of the randomized gin computation."""

    seed: int = 1
    trials: int = 2
    entry_bound: int = 10
    max_retries: int = 5
    mode: str = "exact"                     # "exact" or "modular"
    primes: Tuple[int, int] = (32003, 32009)
    degree_cap: Optional[int] = None

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("at least 2 agreement trials are required")
        if self.entry_bound < 1:
            raise ValueError("entry bound must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.mode not in ("exact", "modular"):
            raise ValueError(f"unknown coefficient mode {self.mode!r}")
        if self.mode == "modular":
            p1, p2 = self.primes
            if p1 == p2 or not (_is_prime(p1) and _is_prime(p2)):
                raise ValueError("modular mode needs two distinct primes")

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
    matrices: tuple   # one l x l integer matrix per trial (per prime if modular)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "coeff_mode": self.coeff_mode,
            "matrices": [
                [list(row) for row in m] for m in self.matrices],
        }


class GenericityExhaustedError(RuntimeError):
    """All retry batches produced disagreeing or non-Borel candidates."""

    def __init__(self, message: str, observed: Sequence[MonomialIdeal]):
        super().__init__(message)
        self.observed = tuple(observed)


def random_linear_change(l: int, rng: random.Random, bound: int) -> LinearChange:
    """Random integer matrix with entries in [-bound, bound], resampled
    until the determinant is nonzero."""
    if l < 1 or bound < 1:
        raise ValueError("need l >= 1 and bound >= 1")
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(l)] for _ in range(l)]
        try:
            return LinearChange(rows)
        except ValueError:
            continue


def _trial_stream(seed: int, attempt: int, trial: int, tag: str) -> random.Random:
    # Private substream per (seed, attempt, trial); string seeding is stable
    # across processes and platforms.
    return random.Random(f"rgin:{seed}:{attempt}:{trial}:{tag}")


def substituted(polys: Sequence[Polynomial], g: LinearChange,
                coeff_field) -> List[Polynomial]:
    """Each polynomial read over ``coeff_field``, with g substituted."""
    return [apply_linear_change(f.convert(coeff_field), g) for f in polys]


def _one_trial(build: Callable, l, rng, cfg: GinConfig,
               coeff_field) -> Tuple[MonomialIdeal, list]:
    p = coeff_field.p
    while True:
        g = random_linear_change(l, rng, cfg.entry_bound)
        # a matrix invertible over Q may still be singular mod p
        if p is None or g.det.numerator % p:
            break
    gb = buchberger(build(g, coeff_field), degree_cap=cfg.degree_cap)
    return leading_term_ideal(gb), g.as_int_rows()


def rgin(gens: Sequence[Polynomial], cfg: GinConfig = GinConfig(),
         build: Optional[Callable] = None) -> StronglyStableIdeal:
    """Generic initial ideal of the ideal generated by ``gens``.

    Runs ``cfg.trials`` independent random coordinate changes (per prime in
    modular mode); every trial must produce the same strongly stable leading
    term ideal.  A failed batch is retried with fresh randomness up to
    ``cfg.max_retries`` times before giving up.

    ``build(g, field)`` returns the generators of one trial, which must
    generate the ideal of ``gens`` after the change g, over ``field``.  The
    default substitutes g into each generator; a caller that knows a cheaper
    route to the same ideal passes its own.  The draws do not depend on it.
    """
    gens = [g for g in gens]
    if not gens:
        raise ValueError("rgin requires at least one generator")
    l = gens[0].nvars
    for g in gens[1:]:
        gens[0]._check_compatible(g)
    if gens[0].field != QQ:
        raise ValueError("rgin input must be given over the rationals")
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        ideal = StronglyStableIdeal((), l)
        return ideal

    if build is None:
        def build(g, coeff_field):
            return substituted(nonzero, g, coeff_field)

    if cfg.mode == "exact":
        fields = [("exact", QQ)]
    else:
        fields = [(f"mod{p}", GF(p)) for p in cfg.primes]

    observed = []
    for attempt in range(cfg.max_retries):
        candidates = []
        matrices = []
        all_ok = True
        for tag, coeff_field in fields:
            for trial in range(cfg.trials):
                rng = _trial_stream(cfg.seed, attempt, trial, tag)
                ideal, rows = _one_trial(build, l, rng, cfg, coeff_field)
                candidates.append(ideal)
                matrices.append(tuple(tuple(r) for r in rows))
                if not is_strongly_stable(ideal):
                    all_ok = False
        agreed = all(c == candidates[0] for c in candidates[1:])
        if all_ok and agreed:
            cert = GinCertificate(seed=cfg.seed, trials=cfg.trials,
                                  coeff_mode=cfg.coeff_mode,
                                  matrices=tuple(matrices))
            return StronglyStableIdeal(candidates[0].generators, l, certificate=cert)
        observed.extend(candidates)

    raise GenericityExhaustedError(
        f"no agreeing Borel-fixed leading term ideal after {cfg.max_retries} "
        f"batches of {cfg.trials} trials (seed {cfg.seed}, bound {cfg.entry_bound}); "
        f"observed {len(set(observed))} distinct candidates",
        observed)

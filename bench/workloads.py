"""Inputs of the three benchmark workloads, made from the workload seed.

A workload is a list of passes.  A run goes through them in turn until its
time is up and always finishes the pass it is in, so every run measures
whole passes of one fixed composition.  What the workload seed changes:

  corpus_exact     the order of a fixed corpus, gin seeds included
  ziegler_modular  the order of the fixed gin seeds 29 to 32
  borel_tables     the ideals and exponent vectors, drawn per pass

The comments at each workload say why the first two are fixed.  This module
builds plain data only; it does not import arrfree, so building the inputs
is not part of the measured set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

MODULAR = "mod:32003,32009"


@dataclass(frozen=True)
class ArrangementCase:
    """One ``arrfree analyze --json`` call on a generated arrangement file."""

    id: str
    forms: Tuple[Tuple[int, ...], ...]   # integer coefficient rows
    gin_seed: int
    coeff: str                           # "exact" or MODULAR
    expect: str                          # "exponents", "rgin" or "borel"
    value: Optional[tuple] = None        # the exponents or the golden rgin

    @property
    def nvars(self) -> int:
        return len(self.forms[0])


@dataclass(frozen=True)
class BorelCase:
    """Monomial-layer library calls on one strongly stable ideal."""

    id: str
    nvars: int
    gens: Tuple[Tuple[int, ...], ...]    # minimal generators


@dataclass(frozen=True)
class LexCase:
    """Exponent <-> rgin <-> realizability converters on one exponent vector."""

    id: str
    exponents: Tuple[int, ...]


# ---------------------------------------------------------------------------
# fixed arrangements and their known answers
# ---------------------------------------------------------------------------

FOUR_FREE = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0))
FIVE_FREE = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0))
FIVE_NOT_FREE = ((1, 0, 0), (1, 1, -1), (1, 0, 1), (1, 0, 2), (1, 1, 1))
SEVEN_A = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (1, 0, 1),
           (0, 1, -1), (0, 1, 1))
SEVEN_B = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (1, 1, 1),
           (1, -1, -1), (1, -1, 1))
# The ten-line pair of Ziegler: one intersection lattice, two rgins.
ZIEGLER_1 = ((0, 0, 1), (0, 1, -4), (1, 1, -7), (-7, 1, 25), (0, 1, 4),
             (2, 1, 10), (-2, 1, -10), (-1, 3, -5), (4, 3, 0), (-4, 3, 0))
ZIEGLER_2 = ((0, 0, 1), (0, 1, -4), (1, 2, -11), (-7, 2, 29), (0, 1, 4),
             (2, 1, 10), (-2, 1, -10), (-3, 10, -15), (4, 3, 0), (-4, 3, 0))

_ZIEGLER_COMMON = ((9, 0, 0), (8, 1, 0), (7, 2, 0), (6, 4, 0), (5, 5, 0),
                   (4, 7, 0), (3, 8, 0), (2, 10, 0), (1, 11, 0), (0, 13, 0),
                   (0, 12, 1), (2, 9, 3), (1, 10, 3), (0, 11, 3), (4, 6, 5),
                   (3, 7, 5), (2, 8, 5), (1, 9, 5))
GOLDEN_RGIN = {
    "five_not_free": ((4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 4, 0), (0, 5, 0),
                      (1, 3, 2)),
    "ziegler_1": _ZIEGLER_COMMON + ((6, 3, 7),),
    "ziegler_2": _ZIEGLER_COMMON + ((0, 10, 5),),
}

ZIEGLER_GIN_SEEDS = (29, 30, 31, 32)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def exponent_vectors(l: int, n: int) -> List[Tuple[int, ...]]:
    """Non-decreasing positive vectors of length l, sum n, first entry 1."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == l:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        slots = l - len(prefix)
        for v in range(prefix[-1], remaining + 1):
            if v * slots <= remaining:
                rec(prefix + [v], remaining - v)

    rec([1], n - 1)
    return out


def staircase(e) -> Tuple[Tuple[int, ...], ...]:
    """Forms of the supersolvable arrangement {x1} + {x1 - a*xk : a <= e_k}."""
    l = len(e)
    rows = [tuple(1 if j == 0 else 0 for j in range(l))]
    for k in range(1, l):
        for a in range(1, e[k] + 1):
            rows.append(tuple(1 if j == 0 else (-a if j == k else 0)
                              for j in range(l)))
    return tuple(rows)


def _direction(row) -> tuple:
    first = next(c for c in row if c)
    return tuple(Fraction(c, first) for c in row)


def perturb(rows, rng: random.Random, bound: int = 7):
    """Replace the last form by a random one that keeps the forms distinct."""
    l = len(rows[0])
    kept = rows[:-1]
    taken = {_direction(r) for r in kept}
    while True:
        row = tuple(rng.randint(-bound, bound) for _ in range(l))
        if any(row) and _direction(row) not in taken:
            return kept + (row,)


def _gin_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 30)


def _borel_closure(seeds, l: int, limit: int):
    """Minimal generators of the smallest strongly stable ideal holding the
    seeds, or None once there are more than ``limit`` of them.

    Seeds are taken by degree; a monomial already in the ideal is not
    expanded, since the ideal is strongly stable and holds all its moves.
    """
    gens = []
    for seed in sorted(seeds, key=sum):
        todo, seen = [seed], set()
        while todo:
            t = todo.pop()
            if t in seen or any(all(a <= b for a, b in zip(g, t)) for g in gens):
                continue
            seen.add(t)
            gens.append(t)
            if len(gens) > limit:
                return None
            for j in range(1, l):
                if t[j]:
                    for i in range(j):
                        moved = list(t)
                        moved[j] -= 1
                        moved[i] += 1
                        todo.append(tuple(moved))
    return tuple(sorted(gens, key=lambda g: (sum(g), g)))


def _random_monomial(degree: int, l: int, rng: random.Random):
    exps = [0] * l
    for _ in range(degree):
        exps[rng.randrange(l)] += 1
    return tuple(exps)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

# Staircase size per dimension.
STAIRCASE_SUM = {3: 8, 4: 6, 5: 6}


def corpus_exact(seed: int, r: int) -> list:
    # The corpus is fixed, gin seeds included, and the workload seed only
    # orders it.  Exact mode retries too, and one non-Borel draw doubles the
    # cost of a case: with the staircases and gin seeds drawn from the
    # workload seed, one pass took 7.3 s to 14.5 s over seeds 1 to 10.
    fixed = random.Random("corpus_exact")
    cases = [
        ArrangementCase("five_free", FIVE_FREE, _gin_seed(fixed),
                        "exact", "exponents", (1, 1, 3)),
        ArrangementCase("five_not_free", FIVE_NOT_FREE, _gin_seed(fixed),
                        "exact", "rgin", GOLDEN_RGIN["five_not_free"]),
        ArrangementCase("seven_a", SEVEN_A, _gin_seed(fixed),
                        "exact", "exponents", (1, 3, 3)),
        ArrangementCase("seven_b", SEVEN_B, _gin_seed(fixed),
                        "exact", "exponents", (1, 3, 3)),
        ArrangementCase("ziegler_1", ZIEGLER_1, _gin_seed(fixed),
                        "exact", "rgin", GOLDEN_RGIN["ziegler_1"]),
        ArrangementCase("ziegler_2", ZIEGLER_2, _gin_seed(fixed),
                        "exact", "rgin", GOLDEN_RGIN["ziegler_2"]),
    ]
    for l, n in STAIRCASE_SUM.items():
        e = fixed.choice(exponent_vectors(l, n))
        rows = staircase(e)
        cases.append(ArrangementCase(f"staircase_l{l}", rows, _gin_seed(fixed),
                                     "exact", "exponents", e))
        cases.append(ArrangementCase(f"perturbed_l{l}", perturb(rows, fixed),
                                     _gin_seed(fixed), "exact", "borel"))
    # An odd count puts the median case time inside one case's samples.
    cases.append(ArrangementCase("four_free", FOUR_FREE, _gin_seed(fixed),
                                 "exact", "exponents", (1, 1, 2)))
    random.Random(f"corpus_exact:{seed}:{r}").shuffle(cases)
    return cases


def ziegler_modular(seed: int, r: int) -> list:
    # The gin seeds are fixed and the workload seed only rotates their
    # order: the cost of one seed depends on how many retry batches it
    # needs (1 to 5), so a drawn set of seeds would make a run's cost luck.
    k = seed % len(ZIEGLER_GIN_SEEDS)
    order = ZIEGLER_GIN_SEEDS[k:] + ZIEGLER_GIN_SEEDS[:k]
    cases = []
    for s in order:
        for name, rows in (("ziegler_1", ZIEGLER_1), ("ziegler_2", ZIEGLER_2)):
            cases.append(ArrangementCase(f"{name}.s{s}", rows, s, MODULAR,
                                         "rgin", GOLDEN_RGIN[name]))
    return cases


# Per dimension: top degree of the seed monomials and the band of minimal
# generator counts.  The cost of the monomial layer grows steeply with both,
# so ideals outside the band are redrawn: without a band one ideal in a few
# dozen took most of a pass, and with bands twice as wide the 95th
# percentile of a cost estimate spread by a fifth of its median over seeds.
BOREL_SHAPE = {3: (16, 18, 24), 4: (12, 35, 45), 5: (9, 40, 50)}
# Five ideals in l = 3 put the median case of a pass (12 cases) among them,
# where case times are dense, rather than where the l = 3 and l = 4 times
# meet; with three there the median moved by a tenth between seeds.
BOREL_PER_PASS = {3: 5, 4: 2, 5: 2}
LEX_SUM = {3: 10, 4: 11, 5: 12}


def _borel_ideal(l: int, rng: random.Random):
    top, lo, hi = BOREL_SHAPE[l]
    while True:
        seeds = [_random_monomial(top, l, rng)] + [
            _random_monomial(rng.randint(2, top), l, rng) for _ in range(3)]
        gens = _borel_closure(seeds, l, hi)
        if gens is not None and len(gens) >= lo:
            return gens


def borel_tables(seed: int, r: int) -> list:
    rng = random.Random(f"borel_tables:{seed}:{r}")
    cases = []
    for l, count in BOREL_PER_PASS.items():
        for k in range(count):
            cases.append(BorelCase(f"p{r}.borel_l{l}.{k}", l, _borel_ideal(l, rng)))
    for l, n in LEX_SUM.items():
        cases.append(LexCase(f"p{r}.lex_l{l}", rng.choice(exponent_vectors(l, n))))
    return cases


WORKLOADS = {
    "corpus_exact": corpus_exact,
    "ziegler_modular": ziegler_modular,
    "borel_tables": borel_tables,
}

# Distinct passes per seed; a run that gets through them starts again.
# borel_tables has more than a 30-second run gets through, so each of its
# passes counts once and the run averages over as many draws as it can.
PASSES = {"corpus_exact": 16, "ziegler_modular": 1, "borel_tables": 128}


class Passes:
    """The passes of one workload and seed, each built on first use."""

    def __init__(self, workload: str, seed: int):
        self.make = WORKLOADS[workload]
        self.count = PASSES[workload]
        self.seed = seed
        self.built = {}

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, r: int) -> list:
        r %= len(self)
        if r not in self.built:
            self.built[r] = self.make(self.seed, r)
        return self.built[r]

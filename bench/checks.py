"""Answer checks for every benchmark case, and a self-test of the checks.

The checks use no Groebner code.  An rgin must be Borel-fixed; a case with
known exponents must give ``rgin_from_exponents(e)`` and ``e`` (the closed
form is computed before timing and passed in); the Ziegler pair and the
non-free five-plane case must give their golden rgins; every sectional
matrix must satisfy the strongly stable recurrence

    M(1, d) = [x1^d not in B],
    M(i, d) = M(i-1, d) + M(i, d-1) - #(generators of degree d with largest
                                        variable x_i)

computed here from the reported rgin.  At the default seed every answer is
also compared against a committed digest.  A non-zero exit code is a
failure like a wrong answer; neither is ever dropped.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional, Sequence

from workloads import FIVE_FREE, GOLDEN_RGIN, ArrangementCase


def var_names(l: int) -> List[str]:
    return ["x", "y", "z", "w"][:l] if l <= 4 else [f"x{i}" for i in range(1, l + 1)]


def parse_monomial(text: str, l: int) -> tuple:
    index = {name: i for i, name in enumerate(var_names(l))}
    exps = [0] * l
    if text != "1":
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            exps[index[name]] += int(power) if power else 1
    return tuple(exps)


def _member(gens, t) -> bool:
    return any(all(a <= b for a, b in zip(g, t)) for g in gens)


def is_borel(gens, l: int) -> bool:
    """Every move x_i * g / x_j (i < j) of a generator stays in the ideal."""
    for g in gens:
        for j in range(1, l):
            if g[j]:
                for i in range(j):
                    moved = list(g)
                    moved[j] -= 1
                    moved[i] += 1
                    if not _member(gens, moved):
                        return False
    return True


def max_variable(g) -> int:
    """1-based index of the largest variable dividing g, 0 for 1."""
    return max((i + 1 for i, e in enumerate(g) if e), default=0)


def sectional_rows(gens, l: int, dmax: int) -> List[List[int]]:
    """Sectional matrix of S/B from the recurrence (B strongly stable)."""
    if any(not any(g) for g in gens):
        return [[0] * (dmax + 1) for _ in range(l)]
    ending = {}
    for g in gens:
        key = (max_variable(g), sum(g))
        ending[key] = ending.get(key, 0) + 1
    x1_top = min((g[0] for g in gens if max_variable(g) == 1), default=None)
    rows = [[0 if x1_top is not None and d >= x1_top else 1
             for d in range(dmax + 1)]]
    for i in range(2, l + 1):
        row = []
        for d in range(dmax + 1):
            left = row[d - 1] if d else 0
            row.append(rows[-1][d] + left - ending.get((i, d), 0))
        rows.append(row)
    return rows


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_arrangement(case, code: int, output: str,
                      closed_form: Optional[tuple] = None,
                      committed: Optional[str] = None):
    """Problems with one ``analyze --json`` answer, and its digest."""
    if code != 0:
        return [f"exit code {code}"], None
    doc = json.loads(output)
    l, n = case.nvars, len(case.forms)
    rgin = tuple(parse_monomial(s, l) for s in doc["rgin"])
    problems = []
    if (doc["n"], doc["l"]) != (n, l):
        problems.append(f"n, l = {doc['n']}, {doc['l']}, expected {n}, {l}")
    if not is_borel(rgin, l):
        problems.append("rgin is not Borel-fixed")
    M = doc["sectional_matrix"]
    if M != sectional_rows(rgin, l, len(M[0]) - 1):
        problems.append("sectional matrix does not match the rgin")
    if doc["free"] and doc["essential"]:
        e = doc["exponents"]
        if e is None or len(e) != l or sum(e) != n:
            problems.append(f"exponents {e} do not fit n = {n}, l = {l}")
    if case.expect == "exponents":
        if not doc["free"] or tuple(doc["exponents"] or ()) != case.value:
            problems.append(f"expected free with exponents {case.value}, got "
                            f"free={doc['free']} {doc['exponents']}")
        if set(rgin) != set(closed_form):
            problems.append("rgin differs from rgin_from_exponents")
    elif case.expect == "rgin" and set(rgin) != set(case.value):
        problems.append("rgin differs from the golden rgin")
    answer = digest([doc["free"], doc["rgin"], doc["exponents"], M])
    if committed is not None and answer != committed:
        problems.append(f"digest {answer} differs from committed {committed}")
    return problems, answer


def check_borel(case, result: dict, committed: Optional[str] = None):
    """Problems with the monomial-layer answers for one stable ideal."""
    gens, l = case.gens, case.nvars
    problems = []
    M = result["sectional_matrix"]
    if len(M[0]) != max(sum(g) for g in gens) + 3:
        problems.append("sectional matrix is not cut at regularity + 2")
    if M != sectional_rows(gens, l, len(M[0]) - 1):
        problems.append("sectional matrix does not match the recurrence")
    b0, b1 = {}, {}
    for g in gens:
        d, k = sum(g), max_variable(g)
        b0[d] = b0.get(d, 0) + 1
        if k >= 2:
            b1[d + 1] = b1.get(d + 1, 0) + k - 1
    if result["betti"] != [b0, b1]:
        problems.append("Betti table differs from the Eliahou-Kervaire count")
    pure = {max_variable(g): sum(g) for g in gens if max(g) == sum(g)}
    codim = max(pure, default=0)
    if result["cm"] != (max(max_variable(g) for g in gens) == codim):
        problems.append("Cohen-Macaulay verdict differs from pd = codim")
    reduction = [pure[l - i] - 1 if l - i in pure else None for i in range(l)]
    if result["reduction"] != reduction:
        problems.append(f"reduction numbers {result['reduction']} != {reduction}")
    answer = digest([result["cm"], M, result["betti"], result["reduction"]])
    if committed is not None and answer != committed:
        problems.append(f"digest {answer} differs from committed {committed}")
    return problems, answer


def check_lex(case, result: dict, committed: Optional[str] = None):
    """Problems with the exponent <-> rgin <-> realizability round trip."""
    e, l, n = case.exponents, len(case.exponents), sum(case.exponents)
    gens = result["rgin"]
    problems = []
    x1_powers = sorted(g[0] for g in gens)
    if any(max_variable(g) > 2 for g in gens) or x1_powers != list(range(n)) \
            or not is_borel(gens, l):
        problems.append("rgin is not a two-variable lex segment with n generators")
    if result["exponents"] != e:
        problems.append(f"exponents_from_rgin gave {result['exponents']}")
    if not result["realizable"] or result["realized"] != e:
        problems.append("realizable_as_free refused or changed the exponents")
    answer = digest([sorted(gens), result["exponents"], result["realized"]])
    if committed is not None and answer != committed:
        problems.append(f"digest {answer} differs from committed {committed}")
    return problems, answer


class Tally:
    """Attempted and failed cases; a failure is never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, case_id: str, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((case_id, list(problems)))
        return not problems


def selftest(closed_form) -> None:
    """Feed the checks a right answer, a tampered rgin and exit code 3.

    ``closed_form(e)`` returns the generators of ``rgin_from_exponents(e)``.
    Raises RuntimeError unless exactly the two bad answers count as failed.
    """
    if GOLDEN_RGIN["ziegler_1"] == GOLDEN_RGIN["ziegler_2"]:
        raise RuntimeError("the golden Ziegler rgins must differ")
    case = ArrangementCase("selftest", FIVE_FREE, 1, "exact", "exponents",
                           (1, 1, 3))
    gens = closed_form(case.value)

    def answer(rgin):
        names = var_names(3)
        return json.dumps({
            "free": True, "n": 5, "l": 3, "essential": True,
            "exponents": [1, 1, 3],
            "rgin": ["*".join(f"{v}^{e}" for v, e in zip(names, g) if e)
                     for g in rgin],
            "sectional_matrix": sectional_rows(gens, 3, 8)})

    tampered = list(gens)
    tampered[-1] = tuple(e + 1 if i == 1 else e
                         for i, e in enumerate(tampered[-1]))
    tally = Tally()
    outcomes = [
        tally.record("right", check_arrangement(case, 0, answer(gens), gens)[0]),
        tally.record("tampered rgin",
                     check_arrangement(case, 0, answer(tampered), gens)[0]),
        tally.record("exit code 3", check_arrangement(case, 3, "", gens)[0]),
    ]
    if outcomes != [True, False, False] or (tally.attempted, tally.failed) != (3, 2):
        raise RuntimeError(f"answer check self-test failed: {tally.problems}")

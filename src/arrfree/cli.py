"""Command-line frontend: input files, pretty tables and JSON reports.

Input grammar (line oriented, ``#`` starts a comment):

    vars x y z
    hyperplane x + y - z        # arrangement files
    gen x^2                     # ideal files (one power product per line)

Expressions use ``^`` for powers; ``*`` is optional between factors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import arrangement as arr
from .arrangement import (Arrangement, ExponentVector, FreenessReport,
                          _is_linear_form, analyze, check_conjecture_Z,
                          realizable_as_free, supersolvable_from_exponents)
from .gin import GenericityExhaustedError, GinConfig, rgin
from .groebner import DegreeCapExceeded
from .monomial import (MonomialIdeal, SectionalMatrix, StronglyStableIdeal,
                       sectional_matrix, triangle_equality)
from .polyring import Polynomial, format_power_product, var_names

__all__ = [
    "ParseError", "InputDocument", "parse_input", "parse_expression",
    "report_to_dict", "render_sectional_matrix",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3
EXIT_PIPE = 141          # 128 + SIGPIPE, as a shell reports a tool it killed

# Input limits.  The Groebner work grows steeply with the number of
# hyperplanes and the generator degree, so a larger input is rejected
# (exit 2) before any computation starts.
MAX_HYPERPLANES = 100
MAX_GEN_DEGREE = 100
# The sectional matrix of an rgin whose generators involve all l variables is
# counted monomial by monomial, and every modular draw is dense in all l.
MAX_VARIABLES = 16
# A number literal, and a power of a coefficient in any expression, may not
# exceed this many bits: 3^200000000 is rejected before it is computed.
MAX_COEFF_BITS = 1024
# Parentheses may nest this deep: the parser recurses once per level.
MAX_NESTING = 100
# Each random draw expands polynomials densely: the product of the n forms,
# or a generator of degree d, in l variables has up to C(n+l-1, l-1) or
# C(d+l-1, l-1) terms.  A larger input is rejected (exit 2) before a draw.
MAX_DENSE_TERMS = 200_000


class ParseError(ValueError):
    """Input rejected, with a line/column anchor; line 0 is the whole file,
    and its message names the file alone."""

    def __init__(self, message: str, source: str = "<input>",
                 line: int = 0, col: int = 0):
        where = f"{source}:{line}:{col}" if line else source
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line
        self.col = col
        self.message = message


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

def _scanner(names: Sequence[str], source: str, line: int) -> re.Pattern:
    """The token pattern of these variable names, once they pass the rule of
    a ``vars`` line: at least one name, unique, identifier syntax.

    Its alternatives in order: a number (the decimal digits ``int()`` reads),
    a declared name (longest first), an operator, and any other non-space
    character, which is an error.
    """
    if not names:
        raise ParseError("vars line declares no variables", source, line, 1)
    if len(set(names)) != len(names):
        raise ParseError("variable names must be unique", source, line, 1)
    for name in names:
        if not (name[:1].isalpha() or name[:1] == "_") or \
                not all(c.isalnum() or c == "_" for c in name):
            raise ParseError(f"bad variable name {name!r}", source, line, 1)
    longest_first = sorted(names, key=len, reverse=True)
    return re.compile(rf"(\d+)|({'|'.join(map(re.escape, longest_first))})"
                      r"|([-+*^()])|(\S)")


class _ExprParser:
    def __init__(self, tokens: List[tuple], nvars: int, source: str, line: int,
                 sum_powers: bool):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0                         # open parentheses
        self.nvars = nvars
        self.source = source
        self.line = line
        # allow ^k, k >= 2, on a sum of terms and a product of two sums
        self.sum_powers = sum_powers

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _error(self, message: str):
        tok = self._peek()
        col = tok[2] if tok else self.tokens[-1][2]    # _parse has tokens
        raise ParseError(message, self.source, self.line, col)

    def parse(self) -> Polynomial:
        poly = self._expr()
        if self._peek() is not None:
            self._error(f"unexpected trailing {self._peek()[0]!r}")
        return poly

    def _expr(self) -> Polynomial:
        poly = self._term()
        while True:
            tok = self._peek()
            if tok is None or tok[0] not in "+-":
                break
            self.pos += 1
            rhs = self._term()
            poly = poly + rhs if tok[0] == "+" else poly - rhs
        return poly

    def _term(self) -> Polynomial:
        poly = self._factor()
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok[0] == "*":
                self.pos += 1
            elif tok[0] not in ("num", "name", "("):
                break                          # else implicit multiplication
            rhs = self._factor()
            if not self.sum_powers and len(poly) >= 2 and len(rhs) >= 2:
                raise ParseError("a product of sums is not a linear form or "
                                 "a monomial", self.source, self.line, tok[2])
            poly = poly * rhs
        return poly

    def _factor(self) -> Polynomial:
        negate = False
        while (tok := self._peek()) and tok[0] in "+-":   # -y^2 is -(y^2)
            self.pos += 1
            negate ^= tok[0] == "-"
        base = self._atom()
        tok = self._peek()
        if tok and tok[0] == "^":
            self.pos += 1
            etok = self._peek()
            if etok is None or etok[0] != "num":
                self._error("exponent must be a non-negative integer")
            if not self.sum_powers and etok[1] >= 2 and len(base) >= 2:
                self._error("a power of a sum is not a linear form or a monomial")
            if len(base) == 1:
                c = base.leading_coefficient()
                bits = max(abs(c.numerator), c.denominator).bit_length()
                if bits > 1 and etok[1] * bits > MAX_COEFF_BITS:   # not 0 or +-1
                    self._error(f"a power of {c} has more than "
                                f"{MAX_COEFF_BITS} bits")
            self.pos += 1
            base = base ** etok[1]
        return -base if negate else base

    def _atom(self) -> Polynomial:
        tok = self._peek()
        if tok is None:
            self._error("unexpected end of expression")
        kind, value, _ = tok
        if kind == "num":
            self.pos += 1
            return Polynomial.constant(value, self.nvars)
        if kind == "name":
            self.pos += 1
            return Polynomial.variable(value + 1, self.nvars)
        if kind == "(":
            if self.depth == MAX_NESTING:
                self._error(f"parentheses nested more than {MAX_NESTING} deep")
            self.pos += 1
            self.depth += 1
            inner = self._expr()
            closing = self._peek()
            if closing is None or closing[0] != ")":
                self._error("missing closing parenthesis")
            self.pos += 1
            self.depth -= 1
            return inner
        self._error(f"unexpected {kind!r}")


def _parse(text: str, names: Sequence[str], scanner: re.Pattern, source: str,
           line: int, sum_powers: bool, offset: int = 0) -> Polynomial:
    """Tokenize ``text`` with ``scanner`` and parse the tokens: ("num", int,
    col), ("name", index, col) and (op, None, col).

    ``offset`` is the position of ``text`` within its file line, so that
    columns count from the start of that line.
    """
    tokens = []
    for match in scanner.finditer(text):      # whitespace matches nothing
        number, name, op, other = match.groups()
        col = offset + match.start() + 1
        if number:
            # the digit count bounds the bits before int() reads them
            if len(number) > MAX_COEFF_BITS or int(number).bit_length() > MAX_COEFF_BITS:
                raise ParseError(f"number of more than {MAX_COEFF_BITS} bits",
                                 source, line, col)
            tokens.append(("num", int(number), col))
        elif name:
            tokens.append(("name", names.index(name), col))
        elif op:
            tokens.append((op, None, col))
        elif other.isalpha() or other == "_":
            raise ParseError("unknown variable starting at "
                             f"{text[match.start():match.start() + 8]!r}",
                             source, line, col)
        else:
            raise ParseError(f"unexpected character {other!r}", source, line, col)
    if not tokens:
        raise ParseError("empty expression", source, line, offset + 1)
    return _ExprParser(tokens, len(names), source, line, sum_powers).parse()


def parse_expression(text: str, names: Sequence[str]) -> Polynomial:
    """Parse one polynomial expression over the declared variables, which
    must pass the rule of a ``vars`` line."""
    scanner = _scanner(names, "<input>", 1)
    return _parse(text, names, scanner, "<input>", 1, sum_powers=True)


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InputDocument:
    kind: str                    # "arrangement" or "ideal"
    var_names: Tuple[str, ...]
    items: Tuple[Polynomial, ...]
    source: str

    def as_arrangement(self) -> Arrangement:
        """The arrangement, whose draws must stay within ``MAX_DENSE_TERMS``."""
        if self.kind != "arrangement":
            raise ParseError("expected an arrangement file (hyperplane lines)",
                             self.source)
        A = Arrangement(self.items)
        self.check_dense_terms(A.n)
        return A

    def as_monomial_ideal(self) -> MonomialIdeal:
        if self.kind != "ideal":
            raise ParseError("expected an ideal file (gen lines)", self.source)
        return MonomialIdeal(
            (f.leading_power_product() for f in self.items), len(self.var_names))

    def check_dense_terms(self, degree: int) -> None:
        """Reject a draw that would expand a polynomial of this degree to
        more than ``MAX_DENSE_TERMS`` terms."""
        l = len(self.var_names)
        terms = math.comb(degree + l - 1, l - 1)
        if terms > MAX_DENSE_TERMS:
            raise ParseError(f"a random change of coordinates expands a polynomial "
                             f"of degree {degree} in {l} variables to {terms} "
                             f"terms, more than {MAX_DENSE_TERMS}", self.source)


def parse_input(text: str, source: str = "<input>") -> InputDocument:
    """Parse an arrangement or ideal file."""
    names: Optional[List[str]] = None
    kind: Optional[str] = None
    items: List[Polynomial] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        keyword = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if keyword == "vars":
            if names is not None:
                raise ParseError("duplicate vars line", source, lineno, 1)
            names = rest.split()
            if len(names) > MAX_VARIABLES:
                # the column of the first name past the limit; "vars" is word 0
                col = [m.start() for m in re.finditer(r"\S+", raw)][MAX_VARIABLES + 1]
                raise ParseError(f"more than {MAX_VARIABLES} variables",
                                 source, lineno, col + 1)
            scanner = _scanner(names, source, lineno)
            continue
        if keyword in ("hyperplane", "gen"):
            if names is None:
                raise ParseError("vars line must come first", source, lineno, 1)
            this_kind = "arrangement" if keyword == "hyperplane" else "ideal"
            if kind is None:
                kind = this_kind
            elif kind != this_kind:
                raise ParseError("cannot mix hyperplane and gen lines",
                                 source, lineno, 1)
            # rest is the tail of line, which starts after the indent
            indent = len(raw) - len(raw.lstrip())
            start = indent + len(line) - len(rest)
            if keyword == "hyperplane" and len(items) == MAX_HYPERPLANES:
                raise ParseError(f"more than {MAX_HYPERPLANES} hyperplanes",
                                 source, lineno, indent + 1)
            # neither a linear form nor a monomial needs a power or a
            # product of sums, and expanding one, say (x+y+z)^400, would not
            # finish
            poly = _parse(rest, names, scanner, source, lineno,
                          sum_powers=False, offset=start)
            if keyword == "hyperplane":
                if not _is_linear_form(poly):
                    raise ParseError(f"hyperplane form must be linear homogeneous, "
                                     f"got {poly}", source, lineno, 1)
            else:
                if poly.is_zero or len(poly) != 1:
                    raise ParseError(f"ideal generator must be a single monomial, "
                                     f"got {poly}", source, lineno, 1)
                if poly.total_degree() > MAX_GEN_DEGREE:
                    raise ParseError(f"generator of degree {poly.total_degree()} "
                                     f"> {MAX_GEN_DEGREE}", source, lineno, start + 1)
            items.append(poly)
            continue
        raise ParseError(f"unknown directive {keyword!r}", source, lineno, 1)
    if names is None:
        raise ParseError("missing vars line", source)
    if kind is None or not items:
        raise ParseError("no hyperplane or gen lines", source)
    return InputDocument(kind=kind, var_names=tuple(names),
                         items=tuple(items), source=source)


def load_input(path: str) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}", path)
    return parse_input(text, source=path)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _ideal_strings(B: MonomialIdeal) -> List[str]:
    return [format_power_product(g) for g in B.generators]


def report_to_dict(report: FreenessReport) -> dict:
    betti = None
    if report.betti is not None:
        betti = {"b0": {str(k): v for k, v in report.betti.beta0.items()},
                 "b1": {str(k): v for k, v in report.betti.beta1.items()}}
    return {
        "free": report.free,
        "method": "both",
        "n": report.n,
        "l": report.l,
        "essential": report.essential,
        "rgin": _ideal_strings(report.rgin),
        "exponents": list(report.exponents) if report.exponents is not None else None,
        "d0": report.d0,
        "regularity": report.regularity,
        "sectional_matrix": [list(row) for row in report.sectional.values],
        "betti": betti,
        "provenance": report.provenance.as_dict() if report.provenance else None,
    }


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------

def render_sectional_matrix(M: SectionalMatrix, d0: Optional[int] = None) -> str:
    """ASCII table; the d0 column is bracketed and triangle-equality
    failures are marked with '!'."""
    header = ["d:"] + [f"[{d}]" if d == d0 else str(d) for d in range(M.dmax + 1)]
    rows = [header]
    for i in range(1, M.nrows + 1):
        cells = [f"i={i}:"]
        for d in range(M.dmax + 1):
            text = str(M.m(i, d))
            if i >= 2 and d >= 1 and not triangle_equality(M, i, d):
                text = "!" + text
            cells.append(text)
        rows.append(cells)
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _report_text(report: FreenessReport) -> str:
    verdict = "FREE" if report.free else "NOT FREE"
    if report.trivially_free:
        verdict += " (trivially: rgin is the whole ring)"
    lines = [f"verdict   : {verdict}",
             "method    : both",
             f"n, l      : {report.n}, {report.l}",
             f"essential : {report.essential}",
             f"rgin      : {report.rgin!r}"]
    if report.exponents is not None:
        lines.append(f"exponents : {tuple(report.exponents)}")
    if report.d0 is not None:
        lines.append(f"d0        : {report.d0}")
    if report.regularity is not None:
        lines.append(f"regularity: {report.regularity}")
    if report.betti is not None:
        b0 = ", ".join(f"b0[{j}]={v}" for j, v in report.betti.beta0.items())
        b1 = ", ".join(f"b1[{j}]={v}" for j, v in report.betti.beta1.items())
        lines.append(f"betti     : {b0}; {b1}")
    lines.append("sectional matrix:")
    lines.append(render_sectional_matrix(report.sectional, report.d0))
    if report.provenance is not None:
        lines.append(f"provenance: seed={report.provenance.seed} "
                     f"trials={report.provenance.trials} "
                     f"coeff={report.provenance.coeff_mode}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_coeff(text: str) -> dict:
    """The ``GinConfig`` keyword arguments that a ``--coeff`` value names."""
    if text == "exact":
        return {"mode": "exact"}
    if text.startswith("mod:"):
        try:
            kwargs = {"mode": "modular",
                      "primes": tuple(int(p) for p in text[4:].split(","))}
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad prime list in {text!r}")
        try:
            GinConfig(**kwargs)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected mod:<p> or mod:<p>,<p2> with distinct primes below 2^64")
        return kwargs
    raise argparse.ArgumentTypeError(f"unknown coefficient mode {text!r}")


def _config_from_args(args) -> GinConfig:
    return GinConfig(seed=args.seed, trials=args.trials,
                     entry_bound=args.entry_bound, **args.coeff)


def _at_least(low: int):
    """argparse type: an int that is at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type in its messages
    return parse


def _exponent_list(text: str) -> ExponentVector:
    try:
        return ExponentVector(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# Each command takes the parsed arguments and the input document (None for
# construct) and returns its JSON object and a function that renders its
# text; main prints one of the two.

def _cmd_analyze(args, doc: InputDocument):
    report = analyze(doc.as_arrangement(), _config_from_args(args), dmax=args.dmax)
    return report_to_dict(report), lambda: _report_text(report)


def _rgin_of_document(doc: InputDocument, cfg: GinConfig) -> StronglyStableIdeal:
    if doc.kind == "arrangement":
        return arr.jacobian_rgin(doc.as_arrangement(), cfg)
    ideal = doc.as_monomial_ideal()
    doc.check_dense_terms(ideal.max_generator_degree())
    gens = [Polynomial.monomial(pp, ideal.nvars) for pp in ideal.generators]
    return rgin(gens, cfg)


def _cmd_rgin(args, doc: InputDocument):
    B = _rgin_of_document(doc, _config_from_args(args))
    return ({"rgin": _ideal_strings(B),
             "provenance": B.certificate.as_dict() if B.certificate else None},
            lambda: f"rgin: {B!r}")


def _cmd_sm(args, doc: InputDocument):
    B = _rgin_of_document(doc, _config_from_args(args))
    d0 = arr.sectional_bounds(B)[0]
    M = sectional_matrix(B, args.dmax)
    return ({"rgin": _ideal_strings(B), "d0": d0,
             "sectional_matrix": [list(row) for row in M.values]},
            lambda: render_sectional_matrix(M, d0))


def _cmd_exponents(args, doc: InputDocument):
    if doc.kind == "arrangement":
        report = analyze(doc.as_arrangement(), _config_from_args(args))
        free, exps = report.free, report.exponents
    else:
        B = StronglyStableIdeal.from_ideal(doc.as_monomial_ideal())
        free, exps = True, arr.exponents_from_rgin(B)

    def text() -> str:
        if not free:
            return "not free: no exponents"
        if exps is None:
            return "free but not essential: exponents not extracted"
        return f"exponents: {tuple(exps)}"
    return {"free": free, "exponents": list(exps) if exps else None}, text


def _cmd_construct(args, doc: None):
    exps = args.exponents
    A = supersolvable_from_exponents(exps)
    forms = [str(f) for f in A.forms]
    return ({"exponents": list(exps), "n": A.n, "l": A.l, "forms": forms},
            lambda: "\n".join([f"vars {' '.join(var_names(A.l))}"]
                              + [f"hyperplane {f}" for f in forms]))


def _cmd_realize(args, doc: InputDocument):
    B = StronglyStableIdeal.from_ideal(doc.as_monomial_ideal())
    verdict = realizable_as_free(B, verify=False)
    if verdict.realizable and not args.no_verify:   # the witness's draws are bounded
        doc.check_dense_terms(sum(verdict.exponents))
        verdict = realizable_as_free(B, _config_from_args(args))
    forms = [str(f) for f in verdict.arrangement.forms] if verdict.arrangement else None

    def text() -> str:
        if not verdict.realizable:
            return f"NO: {verdict.reason}"
        verified = " (rgin verified)" if verdict.verified else ""
        return "\n".join([f"YES: exponents {tuple(verdict.exponents)}{verified}"]
                         + [f"hyperplane {f}" for f in forms])
    return ({"realizable": verdict.realizable, "reason": verdict.reason,
             "exponents": list(verdict.exponents) if verdict.exponents else None,
             "forms": forms, "verified": verdict.verified}, text)


def _cmd_conjecture(args, doc: InputDocument):
    B = StronglyStableIdeal.from_ideal(doc.as_monomial_ideal())
    result = check_conjecture_Z(B)

    def text() -> str:
        status = "holds" if result.holds else "fails"
        extra = " (vacuously)" if result.vacuous and result.holds else ""
        lines = [f"conjecture {status}{extra}; d0 = {result.d0}"]
        for g in result.violations:   # each has x_3, so B has a second variable
            bound = (f" < {result.d0 + 1}" if result.d0 is not None
                     else f"; no pure power of {var_names(B.nvars)[1]}")
            lines.append(f"violating generator: {format_power_product(g)} "
                         f"(degree {g.degree()}{bound})")
        return "\n".join(lines)
    return ({"holds": result.holds, "d0": result.d0,
             "violations": [format_power_product(g) for g in result.violations],
             "vacuous": result.vacuous}, text)


# One parser per process, however often main() runs in it: building one
# takes longer than parsing and validating a small arrangement file.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="arrfree",
                     description="Freeness of central hyperplane arrangements "
                                 "via generic initial ideals and sectional matrices.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1,
                        help="seed of the randomized coordinate changes")
    common.add_argument("--trials", type=_at_least(2), default=2,
                        help="number of agreeing random trials required")
    common.add_argument("--entry-bound", type=_at_least(1), default=10,
                        help="exact mode: random matrix entries are drawn "
                             "from [-b, b] (modular draws are uniform mod p)")
    common.add_argument("--coeff", type=_parse_coeff, default={"mode": "exact"},
                        help="coefficient mode: exact or mod:<p>[,<p2>]")
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    reads_file = argparse.ArgumentParser(add_help=False)
    reads_file.add_argument("input")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, reads_file],
                       help="full freeness report for an arrangement file")
    p.add_argument("--dmax", type=_at_least(0), default=None,
                   help="widen the sectional matrix to this degree; it never "
                        "shows fewer than degrees 0 to regularity + 2, which "
                        "the freeness tests read")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("rgin", parents=[common, reads_file],
                       help="generic initial ideal of an arrangement Jacobian "
                            "ideal or of a monomial ideal")
    p.set_defaults(func=_cmd_rgin)

    p = sub.add_parser("sm", parents=[common, reads_file], help="sectional matrix")
    p.add_argument("--dmax", type=_at_least(0), default=None,
                   help="largest displayed degree")
    p.set_defaults(func=_cmd_sm)

    p = sub.add_parser("exponents", parents=[common, reads_file],
                       help="exponents of a free arrangement or of a "
                            "lex-segment ideal")
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("construct", parents=[common],
                       help="free arrangement with prescribed exponents")
    p.add_argument("--exponents", required=True, type=_exponent_list,
                   help="comma separated, e.g. 1,2,4")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("realize", parents=[common, reads_file],
                       help="decide whether an ideal is the rgin of a free "
                            "arrangement Jacobian ideal")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the end-to-end rgin check of the witness")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("conjecture", parents=[common, reads_file],
                       help="third-variable degree bound check")
    p.set_defaults(func=_cmd_conjecture)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = load_input(args.input) if "input" in args else None
        payload, text = args.func(args, doc)
        if args.json:
            print(json.dumps(payload, indent=2), file=out)
        else:
            print(text(), file=out)
    except (GenericityExhaustedError, DegreeCapExceeded,
            arr.InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:     # ParseError, ArrangementError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def console() -> int:
    """The ``arrfree`` command: ``main`` on the process's streams.  A reader
    that closes standard output early, as ``arrfree ... | head -1`` does,
    ends the run with ``EXIT_PIPE`` and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(console())

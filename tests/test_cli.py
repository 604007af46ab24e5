"""File grammar, subcommands, exit codes and JSON round trips."""

import functools
import io
import json
import re
import signal
import sys
import time
import unicodedata
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

import pytest

from arrfree import (DegreeCapExceeded, GinConfig, Polynomial, PowerProduct,
                     analyze, rgin)
from arrfree import cli
from arrfree.cli import (EXIT_COMPUTE, EXIT_OK, EXIT_PARSE, EXIT_PIPE, EXIT_USAGE,
                         MAX_NESTING, MAX_VARIABLES, ParseError, main,
                         parse_expression, parse_input, report_to_dict,
                         render_sectional_matrix)
from arrfree.gin import _is_prime
from helpers import polys, report_from_dict

FIVE_ARR = """\
# five planes through the origin
vars x y z
hyperplane x
hyperplane y
hyperplane z
hyperplane x+y
hyperplane x-y
"""

NOT_FREE_ARR = """\
vars x y z
hyperplane x
hyperplane x+y-z
hyperplane x+z
hyperplane x+2z
hyperplane x+y+z
"""

STAIR_IDEAL = """\
vars x y
gen x^2
gen x*y
gen y^5
"""


INPUTS = Path(__file__).resolve().parent.parent / "inputs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@contextmanager
def _cut_after(message, seconds=5.0):
    """Raise TimeoutError(message) in the body once ``seconds`` have passed."""
    def too_slow(signum, frame):   # fail instead of hanging the suite
        raise TimeoutError(message)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _guarded_cli(*argv):
    """(exit code, seconds) of one CLI run, cut after 5 s by SIGALRM."""
    with _cut_after("the input was not rejected before computing"):
        start = time.perf_counter()
        code, _ = run_cli(*argv)
        return code, time.perf_counter() - start


class TestExpressionParsing:
    def test_basic_forms(self):
        names = ("x", "y", "z")
        assert str(parse_expression("x + y - z", names)) == "x + y - z"
        assert str(parse_expression("x+2z", names)) == "x + 2*z"
        assert str(parse_expression("2 x y", names)) == "2*x*y"
        assert str(parse_expression("-x^2 + (x+y)^2", names)) == "2*x*y + y^2"
        # a sign may start any factor, and binds looser than ^
        for text, grouped in [("x + -4*y", "x + (-4)*y"), ("x*-y", "x*(-y)"),
                              ("x - -y", "x - (-y)"), ("x*-y^2", "x*(-(y^2))")]:
            assert parse_expression(text, names) == parse_expression(grouped, names)
        assert parse_expression("x*-y^2", names) != parse_expression("x*(-y)^2", names)

    def test_multicharacter_names(self):
        names = ("x1", "x2")
        f = parse_expression("x1^2 - 3x2", names)
        assert str(f) == "x^2 - 3*y"  # display aliases for two variables

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + q", ("x", "y"))
        assert err.value.col == 5

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("x +", ("x",))
        with pytest.raises(ParseError):
            parse_expression("x ) y", ("x", "y"))


@functools.cache
def _every_code_point():
    return "".join(map(chr, range(sys.maxunicode + 1)))


class TestScanner:
    """A number is the decimal digits ``int()`` reads, the scanner skips what
    ``str.isspace`` calls space, and an expression's names obey the rule of a
    ``vars`` line."""

    def test_every_digit_that_int_refuses(self):
        refused = [c for c in filter(str.isdigit, _every_code_point())
                   if not c.isdecimal()]
        assert len(refused) == 128
        for c in refused:
            with pytest.raises(ValueError):
                int(c)
            with pytest.raises(ParseError) as err:
                parse_expression(f"x^{c}", ["x"])
            assert str(err.value) == f"<input>:1:3: unexpected character {c!r}"

    def test_classes_agree_with_str(self):
        every = _every_code_point()
        decimals = re.findall(r"\d", every)
        assert decimals == list(filter(str.isdecimal, every))
        assert [int(c) for c in decimals] == [unicodedata.decimal(c) for c in decimals]
        assert re.findall(r"\s", every) == list(filter(str.isspace, every))

    def test_unicode_decimal_digit(self):
        names = ("x", "y")
        assert parse_expression("\u0663x + y^\u0662", names) == \
            parse_expression("3x + y^2", names)

    @pytest.mark.parametrize("names, message", [
        (["x", ""], "bad variable name ''"),
        (["x", "x"], "variable names must be unique"),
        (["x y"], "bad variable name 'x y'"),
        ([], "vars line declares no variables"),
    ], ids=["empty", "duplicate", "space", "none"])
    def test_names_a_vars_line_refuses(self, names, message):
        with _cut_after("the scanner did not advance", seconds=1.0):
            with pytest.raises(ParseError) as err:
                parse_expression("q", names)
        assert str(err.value) == f"<input>:1:1: {message}"


class TestInputDocuments:
    def test_arrangement_document(self):
        doc = parse_input(FIVE_ARR, "five.arr")
        assert doc.kind == "arrangement" and doc.var_names == ("x", "y", "z")
        assert len(doc.items) == 5
        A = doc.as_arrangement()
        assert A.n == 5 and A.essential

    def test_ideal_document(self):
        doc = parse_input(STAIR_IDEAL, "stair.ideal")
        assert doc.kind == "ideal"
        B = doc.as_monomial_ideal()
        assert str(B) == "<x^2, x*y, y^5>"

    def test_nonlinear_form_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_input("vars x y\nhyperplane x^2\n")
        assert "linear homogeneous" in err.value.message
        assert err.value.line == 2

    def test_non_monomial_generator_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_input("vars x y\ngen x + y\n")
        assert "single monomial" in err.value.message

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ParseError):
            parse_input("vars x y\nhyperplane x\ngen y\n")

    def test_vars_required_first(self):
        with pytest.raises(ParseError):
            parse_input("hyperplane x\nvars x\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse_input("vars x x\nhyperplane x\n")

    @pytest.mark.parametrize("text, col", [
        # the exponent 400 starts at column 20 of the file line
        ("vars x y z\nhyperplane (x+y+z)^400 - (x+y+z)^400 + x\n", 20),
        # leading indentation and a second blank count too
        ("vars x y z\n   hyperplane  x + q\n", 20),
        ("vars x y z\n\tgen x*y*q # comment\n", 10),
        # the second factor of a product of sums starts at column 19
        ("vars x y z\nhyperplane (x+y+z)(x-y)\n", 19),
    ], ids=["power", "indented", "tab-comment", "product"])
    def test_error_column_counts_from_line_start(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_input(text, "f.arr")
        assert (err.value.line, err.value.col) == (2, col)
        assert str(err.value).startswith(f"f.arr:2:{col}: ")


class TestCommands:
    def test_analyze_pretty(self, tmp_path):
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        code, text = run_cli("analyze", str(path), "--seed", "7")
        assert code == EXIT_OK
        assert "verdict   : FREE" in text
        assert "<x^4, x^3*y, x^2*y^2, x*y^4, y^6>" in text
        assert "exponents : (1, 1, 3)" in text

    def test_analyze_json_fields(self, tmp_path):
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        code, text = run_cli("analyze", str(path), "--seed", "7", "--json")
        data = json.loads(text)
        assert data["free"] is True
        assert data["exponents"] == [1, 1, 3]
        assert data["d0"] == 5 and data["regularity"] == 6
        assert data["rgin"] == ["x^4", "x^3*y", "x^2*y^2", "x*y^4", "y^6"]
        assert data["provenance"]["seed"] == 7

    def test_analyze_not_free(self, tmp_path):
        path = tmp_path / "nf.arr"
        path.write_text(NOT_FREE_ARR)
        code, text = run_cli("analyze", str(path), "--seed", "3")
        assert code == EXIT_OK and "NOT FREE" in text

    def test_seed_determinism(self, tmp_path):
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        _, first = run_cli("analyze", str(path), "--seed", "11", "--json")
        _, second = run_cli("analyze", str(path), "--seed", "11", "--json")
        assert first == second

    def test_signed_factor(self, tmp_path):
        runs = []
        for form in ("x - 4*y", "x + -4*y"):
            path = tmp_path / "signed.arr"
            path.write_text(FIVE_ARR.replace("hyperplane x-y", f"hyperplane {form}"))
            runs.append(run_cli("rgin", str(path), "--seed", "7", "--json"))
        assert runs[0] == runs[1] and runs[0][0] == EXIT_OK

    def test_closed_pipe_exits_quietly(self):
        import subprocess
        import sys
        # the output outgrows the pipe, so the run is still writing when the
        # reader goes away after one line
        cmd = [sys.executable, "-m", "arrfree.cli", "construct", "--exponents", "1,6000"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as run:
            assert run.stdout.readline() == b"vars x y\n"
            run.stdout.close()
            err = run.stderr.read()
            assert (run.wait(timeout=60), err) == (EXIT_PIPE, b"")

    def test_seed_determinism_across_processes(self, tmp_path):
        import subprocess
        import sys
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        cmd = [sys.executable, "-m", "arrfree.cli", "analyze", str(path),
               "--seed", "11", "--json"]
        runs = [subprocess.run(cmd, capture_output=True, text=True)
                for _ in range(2)]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout != ""

    @pytest.mark.parametrize("name", ["five_planes", "five_planes_nonfree"])
    def test_analyze_json_golden_bytes(self, name):
        # answer and provenance are fixed by the seed alone, not by how a
        # trial builds its generators; these bytes must never change
        code, text = run_cli("analyze", str(INPUTS / f"{name}.arr"),
                             "--json", "--seed", "11")
        assert code == EXIT_OK
        assert text == (GOLDEN / f"analyze_{name}_seed11.json").read_text()

    def test_golden_cli_replay(self, monkeypatch):
        # every run of tests/golden/record_cli.py (analyze on each .arr file,
        # exact and modular; rgin, exponents, realize, conjecture and sm on
        # each .ideal file; every command on every input file in text; a
        # few flags) gives the recorded exit code, stdout and stderr
        monkeypatch.chdir(INPUTS.parent)
        records = json.loads((GOLDEN / "cli_seed7.json").read_text())
        assert len(records) == 109
        for record in records:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stderr(err):
                code = main(record["argv"], out=out)
            assert (code, out.getvalue(), err.getvalue()) == \
                (record["exit"], record["stdout"], record["stderr"]), record["argv"]

    @pytest.mark.parametrize("p", [32003, 32009])
    def test_form_scaled_by_a_prime(self, tmp_path, p):
        # the form vanishes mod p, but the hyperplane does not
        path = tmp_path / "scaled.arr"
        path.write_text(FIVE_ARR.replace("hyperplane x+y", f"hyperplane {p}*x + {p}*y"))
        for coeff in ("exact", "mod:32003,32009"):
            code, text = run_cli("analyze", str(path), "--coeff", coeff, "--seed", "7")
            assert code == EXIT_OK, coeff
            assert "verdict   : FREE" in text
            assert "<x^4, x^3*y, x^2*y^2, x*y^4, y^6>" in text

    def test_rgin_on_ideal(self, tmp_path):
        path = tmp_path / "b.ideal"
        path.write_text(STAIR_IDEAL)
        code, text = run_cli("rgin", str(path), "--seed", "2")
        assert code == EXIT_OK
        assert "rgin: <x^2, x*y, y^5>" in text

    def test_sm_table(self, tmp_path):
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        code, text = run_cli("sm", str(path), "--seed", "7")
        assert code == EXIT_OK
        assert "[5]" in text  # d0 column marker
        assert "13" in text

    def test_sm_dmax(self, tmp_path):
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        code, text = run_cli("sm", str(path), "--seed", "7", "--dmax", "10",
                             "--json")
        data = json.loads(text)
        assert len(data["sectional_matrix"][0]) == 11

    def test_analyze_dmax_only_widens(self, tmp_path, capsys):
        # five planes have regularity 6: analyze shows degrees 0..8 unless
        # --dmax asks for more, while sm shows exactly 0..dmax
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        widths = {}
        for command, flag in [("analyze", ()), ("analyze", ("--dmax", "2")),
                              ("analyze", ("--dmax", "12")), ("sm", ("--dmax", "2"))]:
            code, text = run_cli(command, str(path), "--seed", "7", "--json", *flag)
            assert code == EXIT_OK
            widths[command, flag] = len(json.loads(text)["sectional_matrix"][0])
        assert list(widths.values()) == [9, 9, 13, 3]
        assert run_cli("analyze", "--help")[0] == EXIT_OK
        assert "widen the sectional matrix" in " ".join(capsys.readouterr().out.split())

    def test_exponents_paths(self, tmp_path):
        arr_path = tmp_path / "five.arr"
        arr_path.write_text(FIVE_ARR)
        code, text = run_cli("exponents", str(arr_path), "--seed", "7")
        assert code == EXIT_OK and "(1, 1, 3)" in text
        ideal_path = tmp_path / "b.ideal"
        ideal_path.write_text("vars x y z\ngen x^3\ngen x^2y\ngen x*y^2\ngen y^4\n")
        code, text = run_cli("exponents", str(ideal_path))
        assert code == EXIT_OK and "(1, 1, 2)" in text

    def test_construct_golden(self):
        code, text = run_cli("construct", "--exponents", "1,2,4")
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "vars x y z"
        assert lines[1:] == [
            "hyperplane x", "hyperplane x - y", "hyperplane x - 2*y",
            "hyperplane x - z", "hyperplane x - 2*z", "hyperplane x - 3*z",
            "hyperplane x - 4*z"]

    def test_construct_output_reparses(self, tmp_path):
        code, text = run_cli("construct", "--exponents", "1,1,2")
        doc = parse_input(text, "constructed")
        A = doc.as_arrangement()
        assert A.n == 4 and A.essential

    def test_construct_dim_mismatch(self):
        # the length of --exponents is the dimension; there is no --dim
        for dim in ("3", "2"):
            code, _ = run_cli("construct", "--exponents", "1,2", "--dim", dim)
            assert code == EXIT_USAGE

    def test_realize_yes(self, tmp_path):
        path = tmp_path / "b.ideal"
        path.write_text("vars x y z\n" + "\n".join(
            f"gen {m}" for m in ["x^6", "x^5y", "x^4y^2", "x^3y^4",
                                 "x^2y^5", "x*y^7", "y^9"]) + "\n")
        code, text = run_cli("realize", str(path), "--seed", "4")
        assert code == EXIT_OK
        assert "YES: exponents (1, 2, 4) (rgin verified)" in text

    def test_realize_no(self, tmp_path):
        path = tmp_path / "b.ideal"
        path.write_text("vars x y z\ngen x^3\ngen x^2y\ngen x*y^2\ngen y^5\n")
        code, text = run_cli("realize", str(path))
        assert code == EXIT_OK
        assert "NO: no minimal generator of degree 4" in text

    def test_conjecture_both_cases(self, tmp_path):
        holding = tmp_path / "h.ideal"
        holding.write_text("vars x y z\n" + "\n".join(
            f"gen {m}" for m in ["x^4", "x^3y", "x^2y^2", "x*y^4",
                                 "y^5", "x*y^3z^2"]) + "\n")
        code, text = run_cli("conjecture", str(holding))
        assert code == EXIT_OK and "holds" in text and "d0 = 4" in text
        failing = tmp_path / "f.ideal"
        failing.write_text("vars x y z\ngen x^2\ngen x*y\ngen x*z\ngen y^3\n")
        code, text = run_cli("conjecture", str(failing))
        assert code == EXIT_OK and "fails" in text and "x*z" in text

    def test_conjecture_without_a_pure_power_of_y(self, tmp_path):
        # strong stability moves only toward x, so <x^2, x*y, x*z> has no
        # pure power of y: d0 is infinite and every z-generator violates
        path = tmp_path / "n.ideal"
        path.write_text("vars x y z\ngen x^2\ngen x*y\ngen x*z\n")
        code, text = run_cli("conjecture", str(path))
        assert code == EXIT_OK
        assert text == ("conjecture fails; d0 = None\n"
                        "violating generator: x*z (degree 2; no pure power of y)\n")
        code, text = run_cli("conjecture", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(text) == {"holds": False, "d0": None,
                                    "violations": ["x*z"], "vacuous": False}

    def test_conjecture_in_one_variable(self, tmp_path):
        # with no third variable nothing can violate the bound, and the
        # text output names no second variable
        path = tmp_path / "x3.ideal"
        path.write_text("vars x\ngen x^3\n")
        assert run_cli("conjecture", str(path)) == (
            EXIT_OK, "conjecture holds (vacuously); d0 = None\n")
        code, text = run_cli("conjecture", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(text) == {"holds": True, "d0": None,
                                    "violations": [], "vacuous": True}

    def test_one_variable_unit_ideal(self, tmp_path):
        # the rgin of the single hyperplane x, as construct prints it
        path = tmp_path / "unit.ideal"
        path.write_text("vars x\ngen 1\n")
        assert run_cli("exponents", str(path)) == (EXIT_OK, "exponents: (1,)\n")
        assert run_cli("construct", "--exponents", "1") == (
            EXIT_OK, "vars x\nhyperplane x\n")
        assert run_cli("realize", str(path), "--seed", "7") == (
            EXIT_OK, "YES: exponents (1,) (rgin verified)\nhyperplane x\n")
        code, text = run_cli("realize", str(path), "--json")
        assert code == EXIT_OK
        assert json.loads(text) == {"realizable": True, "reason": None,
                                    "exponents": [1], "forms": ["x"],
                                    "verified": True}

    def test_exponents_json(self, tmp_path):
        flat = tmp_path / "flat.arr"         # three lines through one axis
        flat.write_text("vars x y z\nhyperplane x\nhyperplane y\nhyperplane x+y\n")
        for path, free, exps in ((INPUTS / "five_planes.arr", True, [1, 1, 3]),
                                 (INPUTS / "five_planes_nonfree.arr", False, None),
                                 (flat, True, None)):
            code, text = run_cli("exponents", str(path), "--json", "--seed", "7")
            assert code == EXIT_OK
            assert json.loads(text) == {"free": free, "exponents": exps}
        code, text = run_cli("exponents", str(flat), "--seed", "7")
        assert text == "free but not essential: exponents not extracted\n"

    def test_exponents_of_a_non_free_arrangement(self):
        code, text = run_cli("exponents", str(INPUTS / "five_planes_nonfree.arr"),
                             "--seed", "7")
        assert (code, text) == (EXIT_OK, "not free: no exponents\n")

    def test_exponents_of_a_non_lex_ideal(self, capsys):
        code, text = run_cli("exponents", str(INPUTS / "staircase.ideal"))
        assert code == EXIT_PARSE and text == ""
        assert capsys.readouterr().err == (
            "error: generator counts increase between degrees 4 and 5\n")

    def test_construct_json(self):
        code, text = run_cli("construct", "--exponents", "1,1,2", "--json")
        assert code == EXIT_OK
        assert json.loads(text) == {"exponents": [1, 1, 2], "n": 4, "l": 3,
                                    "forms": ["x", "x - y", "x - z", "x - 2*z"]}

    def test_realize_json(self):
        code, text = run_cli("realize", str(INPUTS / "realizable.ideal"),
                             "--json", "--seed", "7")
        assert code == EXIT_OK
        assert json.loads(text) == {
            "realizable": True, "reason": None, "exponents": [1, 2, 4],
            "forms": ["x", "x - y", "x - 2*y", "x - z", "x - 2*z", "x - 3*z",
                      "x - 4*z"],
            "verified": True}
        code, text = run_cli("realize", str(INPUTS / "not_realizable.ideal"),
                             "--json")
        assert code == EXIT_OK
        assert json.loads(text) == {
            "realizable": False, "reason": "no minimal generator of degree 4",
            "exponents": None, "forms": None, "verified": False}

    def test_conjecture_json(self, tmp_path):
        failing = tmp_path / "f.ideal"
        failing.write_text("vars x y z\ngen x^2\ngen x*y\ngen x*z\ngen y^3\n")
        code, text = run_cli("conjecture", str(failing), "--json")
        assert code == EXIT_OK
        assert json.loads(text) == {"holds": False, "d0": 2,
                                    "violations": ["x*z"], "vacuous": False}
        code, text = run_cli("conjecture", str(INPUTS / "realizable.ideal"),
                             "--json")
        assert json.loads(text) == {"holds": True, "d0": 8, "violations": [],
                                    "vacuous": True}

    def test_single_hyperplane_is_trivially_free(self, tmp_path):
        path = tmp_path / "one.arr"
        path.write_text("vars x y z\nhyperplane x+y\n")
        code, text = run_cli("analyze", str(path))
        assert code == EXIT_OK
        assert "verdict   : FREE (trivially: rgin is the whole ring)\n" in text
        assert "rgin      : <1>\n" in text


class TestExitCodes:
    def test_usage(self):
        assert run_cli("analyze")[0] == EXIT_USAGE
        assert run_cli("unknown-command")[0] == EXIT_USAGE
        assert run_cli("construct", "--exponents", "2,1")[0] == EXIT_USAGE
        # both characterizations decide every analyze, so none is chosen
        for method in ("rgin", "sectional", "both"):
            assert run_cli("analyze", str(INPUTS / "five_planes.arr"),
                           "--method", method)[0] == EXIT_USAGE

    def test_bad_coeff_flag_is_usage(self, tmp_path):
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        assert run_cli("analyze", str(path), "--coeff", "float")[0] == EXIT_USAGE
        assert run_cli("analyze", str(path), "--coeff", "mod:4")[0] == EXIT_USAGE
        assert run_cli("analyze", str(path),
                       "--coeff", "mod:7,7")[0] == EXIT_USAGE
        assert run_cli("analyze", str(path),
                       "--coeff", "mod:abc")[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("analyze", "--trials", "1"),
        ("analyze", "--entry-bound", "0"), ("rgin", "--entry-bound", "-3"),
        ("sm", "--dmax", "-3"), ("analyze", "--dmax", "-1")],
        ids=lambda argv: " ".join(argv))
    def test_out_of_range_flag_is_usage(self, tmp_path, argv):
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        command, *flag = argv
        assert run_cli(command, str(path), *flag)[0] == EXIT_USAGE

    def test_smallest_flag_values_accepted(self, tmp_path):
        path = tmp_path / "b.ideal"
        path.write_text(STAIR_IDEAL)
        code, text = run_cli("sm", str(path), "--trials", "2", "--entry-bound", "1",
                             "--dmax", "0", "--json")
        assert code == EXIT_OK
        assert json.loads(text)["sectional_matrix"] == [[1], [1]]

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.arr"
        path.write_text("vars x y\nhyperplane x^2\n")
        assert run_cli("analyze", str(path))[0] == EXIT_PARSE
        missing = tmp_path / "missing.arr"
        capsys.readouterr()
        assert run_cli("analyze", str(missing)) == (EXIT_PARSE, "")
        assert capsys.readouterr().err.startswith(
            f"error: {missing}: cannot read input: ")

    @pytest.mark.parametrize("keyword", ["hyperplane", "gen"])
    def test_power_of_sum_rejected_before_expansion(self, tmp_path, keyword):
        power = "(x+y+z)^400 - (x+y+z)^400 + x"
        product = "(x+y+z)" * 150
        for expr in (power, f"{product} - {product} + x"):
            path = tmp_path / "power.txt"
            path.write_text(f"vars x y z\n{keyword} {expr}\n")
            code, elapsed = _guarded_cli("rgin", str(path))
            assert code == EXIT_PARSE
            assert elapsed < 1.0
        # a first power of a sum and a power of a monomial stay allowed
        line, parsed = {"hyperplane": ("(x+y)^1*(2x)^0", "x + y"),
                        "gen": ("(x+y)^0*(x*y)^3", "x^3*y^3")}[keyword]
        doc = parse_input(f"vars x y\n{keyword} {line}\n")
        assert str(doc.items[0]) == parsed

    @pytest.mark.parametrize("text, where", [
        ("vars x y z\n" + "".join(f"hyperplane x + {k}*y - z\n"
                                  for k in range(1, 201)), (102, 1)),
        ("vars x y z\ngen x^100000\n", (2, 5)),
    ], ids=["200-hyperplanes", "gen-degree"])
    def test_oversized_input_rejected_fast(self, tmp_path, text, where):
        with pytest.raises(ParseError) as err:
            parse_input(text, "big.txt")
        assert (err.value.line, err.value.col) == where
        path = tmp_path / "big.txt"
        path.write_text(text)
        code, elapsed = _guarded_cli("analyze" if "hyperplane" in text else "rgin",
                                     str(path))
        assert code == EXIT_PARSE
        assert elapsed < 1.0

    @pytest.mark.parametrize("expr, col", [
        ("3^200000000*x", 14),
        ("2x + " + "7" * 5000 + "*y", 17),
    ], ids=["power-of-constant", "long-literal"])
    def test_oversized_coefficient_rejected_fast(self, tmp_path, expr, col):
        text = f"vars x y z\nhyperplane {expr}\nhyperplane y\nhyperplane z\n"
        with pytest.raises(ParseError) as err:
            parse_input(text, "coeff.arr")
        assert (err.value.line, err.value.col) == (2, col)
        path = tmp_path / "coeff.arr"
        path.write_text(text)
        code, elapsed = _guarded_cli("analyze", str(path))
        assert code == EXIT_PARSE
        assert elapsed < 1.0
        # powers below the limit, and of 0 and 1, stay allowed
        doc = parse_input("vars x y\nhyperplane 2^500*x + 1^5000*0^5000*y\n")
        assert doc.items[0].leading_coefficient() == 2 ** 500

    def test_library_parser_limits_powers_of_constants(self):
        with _cut_after("the power was computed before any limit"):
            start = time.perf_counter()
            with pytest.raises(ParseError) as err:
                parse_expression("3^200000000*x", ("x", "y", "z"))
            elapsed = time.perf_counter() - start
        assert (err.value.line, err.value.col) == (1, 3)
        assert elapsed < 1.0
        # powers of sums stay allowed there, and so do small powers
        f = parse_expression("2^500*x + (x+y)^2", ("x", "y"))
        assert f.leading_coefficient() == 1 and len(f) == 4

    def test_duplicate_hyperplane_is_input_error(self, tmp_path):
        path = tmp_path / "dup.arr"
        path.write_text("vars x y\nhyperplane x\nhyperplane 2x\n")
        assert run_cli("analyze", str(path))[0] == EXIT_PARSE

    def test_any_value_error_is_input_error(self, tmp_path, capsys):
        # NotStronglyStableError is a ValueError of no CLI-specific kind
        path = tmp_path / "b.ideal"
        path.write_text("vars x y\ngen x^2\ngen y^2\n")
        assert run_cli("realize", str(path)) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == "error: <x^2, y^2> is not strongly stable\n"

    def test_compute_failure(self, tmp_path, monkeypatch):
        from arrfree.gin import GenericityExhaustedError
        import arrfree.cli as cli_module

        def explode(*args, **kwargs):
            raise GenericityExhaustedError("no agreement", [])
        monkeypatch.setattr(cli_module.arr, "analyze", explode)
        monkeypatch.setattr(cli_module, "analyze", explode)
        path = tmp_path / "five.arr"
        path.write_text(FIVE_ARR)
        assert run_cli("analyze", str(path))[0] == EXIT_COMPUTE

    # rgins that no free arrangement of five planes in 3-space has: the lex
    # segment of exponents (1, 4), padded to 3 variables, whose two
    # exponents miss l = 3, and a lex segment whose generator counts
    # increase from degree 5 to 6.  The CLI exit code is checked together
    # with the library entry point named by ``entry``: analyze, which the
    # CLI calls
    @pytest.mark.parametrize("entry", ["analyze"], ids=["both"])
    @pytest.mark.parametrize("rgin_name", ["two_exponents", "counts_increase"])
    def test_inconsistent_rgin_is_compute_failure(self, monkeypatch, capsys,
                                                  rgin_name, entry):
        from arrfree import (InternalConsistencyError, StronglyStableIdeal,
                             rgin_from_exponents)
        from arrfree import arrangement as arrangement_module

        if rgin_name == "two_exponents":
            gens = [g + (0,) for g in rgin_from_exponents((1, 4)).generators]
        else:
            gens = [(4, 0, 0), (3, 1, 0), (2, 4, 0), (1, 5, 0), (0, 6, 0)]
        B = StronglyStableIdeal(gens, 3)
        monkeypatch.setattr(arrangement_module, "jacobian_rgin",
                            lambda A, cfg: B)
        path = INPUTS / "five_planes.arr"
        code, text = run_cli("analyze", str(path))
        assert (code, text) == (EXIT_COMPUTE, "")
        assert capsys.readouterr().err.startswith("error: free verdict but ")
        A = parse_input(path.read_text()).as_arrangement()
        with pytest.raises(InternalConsistencyError, match="^free verdict but "):
            getattr(arrangement_module, entry)(A)

    # both characterizations run on every analyze: negating either one
    # makes the two disagree
    @pytest.mark.parametrize("patched", ["_free_by_sectional",
                                         "_free_by_generator_shape"])
    def test_negated_verdict_is_compute_failure(self, monkeypatch, capsys,
                                                patched):
        from arrfree import arrangement as arrangement_module

        test = getattr(arrangement_module, patched)
        monkeypatch.setattr(arrangement_module, patched, lambda *a: not test(*a))
        code, text = run_cli("analyze", str(INPUTS / "five_planes.arr"))
        assert (code, text) == (EXIT_COMPUTE, "")
        assert capsys.readouterr().err.startswith(
            "error: freeness verdicts disagree")

    @pytest.mark.parametrize("mode", ["exact", "modular"])
    def test_library_rgin_past_the_kernel_limit_raises_at_once(self, mode):
        # x^(2^15) fits no kernel exponent field: no trial multiplies it out
        big = Polynomial.monomial(PowerProduct((1 << 15, 0)), 2)
        with _cut_after("the generator was moved before any limit"):
            with pytest.raises(DegreeCapExceeded, match="kernel limit"):
                rgin([big], GinConfig(mode=mode))


class TestDenseTermLimit:
    """A file whose random draws would expand a polynomial to more than
    ``MAX_DENSE_TERMS`` terms exits 2 before the first draw."""

    # (x1^100 moved, and the product of the 40 moved forms), dense in all
    # of 8 and of 10 variables
    IDEAL = "vars a b c d e f g h\ngen a^100\n"
    VARS = "vars " + " ".join(f"x{i}" for i in range(1, 11)) + "\n"
    ARR = VARS + "".join(
        f"hyperplane x1 + {k}*x2 + x{3 + k % 8}\n" for k in range(1, 41))
    # the rgin of the 49 forms of exponents (1 x 9, 40) in 10 variables,
    # whose witness realize moves to verify: the i-th generator has degree
    # 48 for i < 10, then 49, ..., 87
    LEX = VARS + "".join(f"gen x1^{48 - i}*x2^{d - 48 + i}\n"
                         for i, d in enumerate([48] * 10 + list(range(49, 88))))

    @pytest.mark.parametrize("command, text, degree, l, terms", [
        ("rgin", IDEAL, 100, 8, 26075972546),
        ("sm", IDEAL, 100, 8, 26075972546),
        ("analyze", ARR, 40, 10, 2054455634),
        ("rgin", ARR, 40, 10, 2054455634),
        ("sm", ARR, 40, 10, 2054455634),
        ("exponents", ARR, 40, 10, 2054455634),
        ("realize", LEX, 49, 10, 10648873950),
    ], ids=["rgin-ideal", "sm-ideal", "analyze", "rgin-arr", "sm-arr",
            "exponents-arr", "realize"])
    def test_rejected_before_a_draw(self, tmp_path, capsys, command, text,
                                    degree, l, terms):
        assert cli.MAX_DENSE_TERMS == 200_000
        path = tmp_path / "dense.txt"
        path.write_text(text)
        code, elapsed = _guarded_cli(command, str(path))
        assert code == EXIT_PARSE and elapsed < 1.0
        assert capsys.readouterr().err == (
            f"error: {path}: a random change of coordinates expands a polynomial "
            f"of degree {degree} in {l} variables to {terms} terms, "
            f"more than 200000\n")

    def test_commands_without_draws_unchanged(self, tmp_path):
        path = tmp_path / "dense.ideal"
        path.write_text(self.IDEAL)
        assert run_cli("conjecture", str(path)) == (
            EXIT_OK, "conjecture holds (vacuously); d0 = None\n")
        assert run_cli("realize", str(path)) == (
            EXIT_OK, "NO: not Cohen-Macaulay of codimension 2 (generators must "
                     "form a two-variable lex segment)\n")
        # without the verification draw the lex segment answers at once
        path.write_text(self.LEX)
        code, text = run_cli("realize", str(path), "--no-verify")
        assert code == EXIT_OK and text.startswith(
            f"YES: exponents {(1,) * 9 + (40,)}\nhyperplane x1\n")

    @pytest.mark.parametrize("command, text, terms", [
        ("analyze", FIVE_ARR, 21),       # C(5 + 2, 2): five forms in x, y, z
        ("rgin", STAIR_IDEAL, 6),        # C(5 + 1, 1): y^5 in x, y
    ], ids=["arrangement", "ideal"])
    def test_limit_is_inclusive(self, tmp_path, monkeypatch, command, text, terms):
        path = tmp_path / "at_limit.txt"
        path.write_text(text)
        expected = run_cli(command, str(path), "--json")
        assert expected[0] == EXIT_OK
        monkeypatch.setattr(cli, "MAX_DENSE_TERMS", terms)
        assert run_cli(command, str(path), "--json") == expected
        monkeypatch.setattr(cli, "MAX_DENSE_TERMS", terms - 1)
        assert run_cli(command, str(path), "--json") == (EXIT_PARSE, "")


class TestErrorLocations:
    """Each input error through ``main`` exits 2 with ``file:line:col``, or
    with the file alone when the fault is in no one line."""

    @pytest.mark.parametrize("text, where, message", [
        ("vars x y\nhyperplane x $ y\n", "2:14", "unexpected character '$'"),
        # a digit that int() refuses
        ("vars x y\nhyperplane x + y\u00b2\n", "2:17", "unexpected character '\u00b2'"),
        ("vars x y\nhyperplane x^y\n", "2:14",
         "exponent must be a non-negative integer"),
        ("vars x y\nhyperplane x^-1\n", "2:14",
         "exponent must be a non-negative integer"),
        ("vars x y\nhyperplane (x + y\n", "2:17", "missing closing parenthesis"),
        ("vars x y\nhyperplane x + * y\n", "2:16", "unexpected '*'"),
        ("vars x y\nhyperplane\n", "2:11", "empty expression"),
        ("vars x y\nvars x y\nhyperplane x\n", "2:1", "duplicate vars line"),
        ("vars\nhyperplane x\n", "1:1", "vars line declares no variables"),
        ("vars x 1y\nhyperplane x\n", "1:1", "bad variable name '1y'"),
        ("vars x y\nplane x\n", "2:1", "unknown directive 'plane'"),
        # the column of the first "(" past the limit, before any recursion
        (f"vars x y\nhyperplane {'(' * 400}x{')' * 400}\nhyperplane y\n", "2:112",
         "parentheses nested more than 100 deep"),
        (f"vars x y\nhyperplane {'(' * 101}x{')' * 101}\nhyperplane y\n", "2:112",
         "parentheses nested more than 100 deep"),
        # the column of the 17th name
        (f"vars {' '.join(f'x{i}' for i in range(1, 18))}\nhyperplane x1\n", "1:61",
         "more than 16 variables"),
        (f"  vars  {'  '.join(f'x{i}' for i in range(1, 41))}  # forty\nhyperplane x1\n",
         "1:80", "more than 16 variables"),
    ], ids=["character", "superscript-digit", "exponent", "negative-exponent", "parenthesis", "token", "empty",
            "duplicate-vars", "empty-vars", "variable-name", "directive",
            "nesting-400", "nesting-101", "variables-17", "variables-40"])
    def test_line_errors(self, tmp_path, capsys, text, where, message):
        path = tmp_path / "bad.arr"
        path.write_text(text, encoding="utf-8")     # as load_input reads it
        assert run_cli("analyze", str(path)) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == f"error: {path}:{where}: {message}\n"

    def test_variable_limit_parses(self):
        assert MAX_VARIABLES == 16
        names = tuple(f"x{i}" for i in range(1, MAX_VARIABLES + 1))
        doc = parse_input(f"vars {' '.join(names)}\nhyperplane x1 + x16\n")
        assert doc.var_names == names

    def test_nesting_limit_parses(self, tmp_path):
        assert MAX_NESTING == 100
        nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_expression(nested, ["x", "y"]) == parse_expression("x", ["x", "y"])
        outputs = []
        for form in (nested, "x"):
            path = tmp_path / "nested.arr"
            path.write_text(f"vars x y\nhyperplane {form}\nhyperplane y\n")
            outputs.append(run_cli("analyze", str(path), "--json", "--seed", "7"))
        assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK

    @pytest.mark.parametrize("command, text, message", [
        ("analyze", "# vars x y\n", "missing vars line"),
        ("analyze", "vars x y  # and nothing else\n", "no hyperplane or gen lines"),
        ("analyze", "vars x y\ngen x^2\n",
         "expected an arrangement file (hyperplane lines)"),
        ("realize", "vars x y\nhyperplane x\n", "expected an ideal file (gen lines)"),
    ], ids=["missing-vars", "no-items", "not-an-arrangement", "not-an-ideal"])
    def test_whole_file_errors(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert run_cli(command, str(path)) == (EXIT_PARSE, "")
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        if command == "analyze":
            with pytest.raises(ParseError) as err:
                parse_input(text, "f.txt").as_arrangement()
            assert (err.value.line, err.value.col) == (0, 0)
            assert str(err.value) == f"f.txt: {message}"


class TestLargePrimes:
    """Primality is a Miller-Rabin test, so a large prime is read at once."""

    M61 = 2 ** 61 - 1

    def test_agrees_with_trial_division(self):
        sieve = [True] * 20000
        sieve[0] = sieve[1] = False
        for i in range(2, 142):
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
        with _cut_after("primality is too slow"):
            assert [_is_prime(n) for n in range(20000)] == sieve
            assert not any(_is_prime(n) for n in range(-5, 0))

    def test_strong_pseudoprimes_rejected(self):
        # 3215031751 passes Miller-Rabin to the bases 2, 3, 5 and 7, and
        # 3057601 = 43 * 211 * 337 is a Carmichael number that a test taking
        # a 1 reached by squaring for a pass would accept
        path = INPUTS / "five_planes.arr"
        with _cut_after("primality is too slow"):
            for n in (561, 3215031751, 3057601):
                assert not _is_prime(n)
                with pytest.raises(ValueError):
                    GinConfig(mode="modular", primes=(n, 32003))
                code, _ = run_cli("analyze", str(path), "--coeff", f"mod:{n}")
                assert code == EXIT_USAGE

    def test_mersenne_prime_accepted(self):
        path = INPUTS / "five_planes.arr"
        with _cut_after("a 61-bit prime hangs"):
            assert _is_prime(self.M61)
            GinConfig(mode="modular", primes=(self.M61, 32003))
            exact = json.loads(run_cli("analyze", str(path), "--json")[1])
            for coeff in (f"mod:{self.M61},32003", f"mod:{self.M61}"):
                code, text = run_cli("analyze", str(path), "--json", "--coeff", coeff)
                modular = json.loads(text)
                assert code == EXIT_OK, coeff
                assert (modular["free"], modular["rgin"]) == (exact["free"], exact["rgin"])
            assert modular["provenance"]["coeff_mode"] == f"mod:{self.M61},{self.M61 + 16}"

    def test_primes_from_2_to_the_64_rejected(self):
        path = INPUTS / "five_planes.arr"
        big = 2 ** 64 + 13          # the least prime above 2^64
        with _cut_after("primality is too slow"):
            assert _is_prime(big)
            with pytest.raises(ValueError, match="below 2\\^64"):
                GinConfig(mode="modular", primes=(32003, big))
            for coeff in (f"mod:{big}", f"mod:32003,{big}"):
                assert run_cli("analyze", str(path), "--coeff", coeff)[0] == EXIT_USAGE

    def test_greatest_prime_below_2_to_the_64_pairs_downward(self):
        # no prime lies between 2^64 - 59, the greatest below 2^64, and 2^64,
        # so its second prime is the greatest below it, 2^64 - 83
        path = INPUTS / "five_planes.arr"
        p = 2 ** 64 - 59
        with _cut_after("the second prime is too slow"):
            code, text = run_cli("analyze", str(path), "--json", "--coeff", f"mod:{p}")
        assert code == EXIT_OK
        report = json.loads(text)
        assert report["provenance"]["coeff_mode"] == f"mod:{p},{2 ** 64 - 83}"
        assert (report["free"], report["exponents"]) == (True, [1, 1, 3])


class TestJsonRoundTrip:
    def test_report_bits(self, tmp_path):
        from arrfree import Arrangement
        A = Arrangement(polys(["x", "y", "z", "x-y"], 3))
        report = analyze(A, GinConfig(seed=13))
        encoded = json.dumps(report_to_dict(report))
        rebuilt = report_from_dict(json.loads(encoded))
        assert rebuilt == report
        assert json.dumps(report_to_dict(rebuilt)) == encoded

    def test_not_free_report_roundtrip(self):
        from arrfree import Arrangement
        A = Arrangement(polys(["x", "x+y-z", "x+z", "x+2z", "x+y+z"], 3))
        report = analyze(A, GinConfig(seed=21))
        rebuilt = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert rebuilt == report

    def test_trivially_free_report_roundtrip(self):
        from arrfree import Arrangement, Polynomial
        A = Arrangement([Polynomial.variable(1, 1)])
        report = analyze(A, GinConfig(seed=2))
        rebuilt = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert rebuilt == report and rebuilt.trivially_free


class TestRendering:
    def test_marks_failures_and_d0(self):
        from arrfree import StronglyStableIdeal, sectional_matrix
        B = StronglyStableIdeal([(2, 0, 0, 0), (1, 2, 0, 0),
                                 (1, 1, 1, 0), (0, 4, 0, 0)], 4)
        M = sectional_matrix(B, 5)
        text = render_sectional_matrix(M, d0=3)
        assert "[3]" in text
        assert "!5" in text  # the broken triangle position in row 3

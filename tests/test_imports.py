"""Every module-level import in src/arrfree is used in its module or
exported by it, so a name that a change stops calling does not linger; and
only ``groebner`` touches its packed monomial keys."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "arrfree"
# No rgin trial substitutes, but bench/spans.py wraps gin.apply_linear_change
# to time substitution, so gin keeps the name for it.
EXEMPT = {("gin", "apply_linear_change")}


def unused_imports(source: str) -> list:
    """The names that the module-level imports of ``source`` bind and that
    the module neither uses nor exports.  A module exports the names of its
    ``__all__``, or without one every name not starting with "_", as
    ``from module import *`` does.  A name used only inside a string
    annotation counts as unused: the modules use ``from __future__ import
    annotations``, so an imported name needs no quotes."""
    tree = ast.parse(source)
    imported, exported = set(), None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if exported is None:
        exported = {name for name in imported if not name.startswith("_")}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_import(path):
    unused = [name for name in unused_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in EXEMPT]
    assert unused == [], f"{path.name} imports {unused} without using them"


def test_the_check_sees_a_leftover():
    source = ("from fractions import Fraction\nimport math, sys\n"
              "from typing import Optional\n__all__ = ['f']\n"
              "def f(x: Optional[int]) -> int:\n    return math.gcd(x, 1)\n")
    assert unused_imports(source) == ["Fraction", "sys"]
    assert unused_imports(source.replace("__all__ = ['f']", "__all__ = ['f', 'sys']")) == \
        ["Fraction"]
    # without __all__, public names are exported and private ones must be used
    assert unused_imports("from .a import b, _c\n") == ["_c"]


def private_names(source: str, module: str) -> list:
    """The private names that ``source`` takes from its sibling ``module``:
    by ``from .module import _name``, or as ``alias._name`` after ``from .
    import module as alias``."""
    tree = ast.parse(source)
    names, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == module:
                names += [a.name for a in node.names if a.name.startswith("_")]
            elif node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
    names += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr.startswith("_")]
    return sorted(names)


# groebner's private names are its packed keys (_W, _key, _variables, ...)
# and the kernel that reads them; the rgin trial builders live there too
@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.stem != "groebner"], ids=lambda p: p.stem)
def test_only_groebner_reads_packed_keys(path):
    assert private_names(path.read_text(encoding="utf-8"), "groebner") == []


def test_arrangement_takes_nothing_private_from_gin():
    assert private_names((SRC / "arrangement.py").read_text(encoding="utf-8"),
                         "gin") == []


def test_cli_calls_public_arrangement_code():
    # the parser's linearity test is the one private name the CLI shares
    assert private_names((SRC / "cli.py").read_text(encoding="utf-8"),
                         "arrangement") == ["_is_linear_form"]


def test_cli_takes_nothing_private_from_polyring():
    # the primes of modular mode, primality test included, belong to gin
    assert private_names((SRC / "cli.py").read_text(encoding="utf-8"),
                         "polyring") == []


def test_the_guard_sees_a_private_name():
    assert private_names("from .groebner import _key, buchberger\n", "groebner") == ["_key"]
    assert private_names("from . import groebner as g\nw = g._W + g.buchberger\n",
                         "groebner") == ["_W"]
    assert private_names("from .gin import _product\nimport groebner\n",
                         "groebner") == []

"""The README's library quick start runs as written and shows its values,
and its list of public names is the package's."""

import importlib
import re
from pathlib import Path
from types import ModuleType

import arrfree

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      text, re.S).group(1)
    namespace: dict = {}
    shown = []
    for line in block.splitlines():
        code, _, value = line.partition("#")    # `expr  # its repr`
        if value:
            shown.append(value.strip())
            assert repr(eval(code, namespace)) == value.strip(), line
        else:
            exec(line, namespace)
    assert shown == ["True", "(1, 1, 3)", "'<x^4, x^3*y, x^2*y^2, x*y^4, y^6>'"]


def test_library_names():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"listed by the module that defines them:\n\n(.*?)\n\n",
                      text, re.S).group(1)
    listed = {}
    for module, names in re.findall(r"^- `arrfree\.(\w+)`:(.*?)(?=^- |\Z)",
                                    block, re.S | re.M):
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = f"arrfree.{module}"
    public = {name for name, value in vars(arrfree).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(listed) == sorted(public)
    for name, module in listed.items():
        value = getattr(arrfree, name)
        # a constant such as INFINITE = math.inf has no __module__ of its
        # own: its module must hold the very object
        assert getattr(value, "__module__", module) == module, name
        assert getattr(importlib.import_module(module), name) is value, name

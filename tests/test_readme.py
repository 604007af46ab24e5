"""The README's library quick start runs as written and shows its values."""

import re
from pathlib import Path

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

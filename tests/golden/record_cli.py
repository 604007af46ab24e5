"""Record the CLI outputs that ``tests/test_cli.py::test_golden_cli_replay``
replays byte for byte.

Run from the repository root, and only when an output is meant to change:

    PYTHONPATH=src python tests/golden/record_cli.py

Each run is ``cli.main`` in-process at seed 7: ``analyze --json`` on every
``inputs/*.arr`` file, exact, with ``--coeff mod:32003,32009`` and with
``--coeff mod:2305843009213693951``, and
``rgin``, ``exponents``, ``realize``, ``conjecture`` and ``sm`` with
``--json`` on every ``inputs/*.ideal`` file.  Input paths are relative to
the repository root, which is where the replay runs them.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from arrfree.cli import main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "cli_seed7.json"


def runs():
    for path in sorted((ROOT / "inputs").glob("*.arr")):
        for coeff in ("exact", "mod:32003,32009", "mod:2305843009213693951"):
            yield ["analyze", f"inputs/{path.name}", "--json", "--seed", "7",
                   "--coeff", coeff]
    for path in sorted((ROOT / "inputs").glob("*.ideal")):
        for command in ("rgin", "exponents", "realize", "conjecture", "sm"):
            yield [command, f"inputs/{path.name}", "--json", "--seed", "7"]


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


if __name__ == "__main__":
    os.chdir(ROOT)
    records = [run(argv) for argv in runs()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} runs written to {GOLDEN}")

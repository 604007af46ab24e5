"""The names bench/spans.py wraps: each resolves to a callable of the
program, and the arguments its counters read are the ones the program
passes.  A renamed or dropped name would otherwise show only when the
benchmark runs."""

import sys
from pathlib import Path

import pytest

import arrfree
import arrfree.cli
from arrfree import GinConfig, arrangement, gin, polyring
from helpers import arrangement as from_rows

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py and bench/spans.py, imported as ``python3 bench/run.py``
    imports them (bench/ first on sys.path), and dropped again after."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    import run
    import spans
    yield run, spans
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == BENCH:
            del sys.modules[name]


def test_every_wrapped_name_resolves(bench, tmp_path):
    run, spans = bench
    api = run.Runner(arrfree, tmp_path, None).api
    patches = spans.arrfree_patches(arrfree) + spans.library_patches(api)
    for owner, name, span, _ in patches:
        assert callable(getattr(owner, name, None)), (name, span)


def test_substitution_span_wraps_the_public_function():
    # no trial substitutes; gin holds the name for the benchmark to wrap
    assert gin.apply_linear_change is polyring.apply_linear_change


def test_rgin_receives_the_config_second(bench, monkeypatch):
    _, spans = bench
    calls = []
    rgin = arrangement.rgin
    monkeypatch.setattr(arrangement, "rgin", lambda *args, **kwargs:
                        calls.append(args) or rgin(*args, **kwargs))
    A = from_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0)))
    for cfg, per_batch in ((GinConfig(seed=1), 2), (GinConfig(seed=1, mode="modular"), 4)):
        calls.clear()
        arrfree.cli.analyze(A, cfg)
        assert calls and all(args[1] is cfg for args in calls)
        for args in calls:
            counts = spans._rgin(args, {}, None, None)
            assert counts == {"per_batch": per_batch, "exhausted": False}

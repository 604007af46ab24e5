"""Spans recorded from outside arrfree, and the per-layer numbers made of them.

arrfree binds names with ``from .x import y``, so a wrapper replaces each
name in the module that calls it: patching ``arrfree.groebner.buchberger``
alone would see nothing, because ``arrfree.gin`` holds its own reference.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its children; calls are
strictly nested in this single-threaded process, so the children never
overlap.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# span name -> layer (the module of src/arrfree it measures)
LAYER = {
    "cli.main": "cli",
    "cli.load_input": "cli",
    "cli.report_to_dict": "cli",
    "arrangement.analyze": "arrangement",
    "arrangement.jacobian_ideal": "arrangement",
    "arrangement.converters": "arrangement",
    "gin.rgin": "gin",
    "gin.random_linear_change": "gin",
    "polyring.apply_linear_change": "polyring",
    "groebner.buchberger": "groebner",
    "groebner.leading_term_ideal": "groebner",
    "monomial.sectional_matrix": "monomial",
    "monomial.betti": "monomial",
    "monomial.borel_check": "monomial",
    "monomial.reduction_number": "monomial",
    "bench.case": "bench",
}
LAYERS = ("cli", "arrangement", "gin", "polyring", "groebner", "monomial", "bench")


def _terms(args, kwargs, result, exc):
    return {"terms": len(result)} if exc is None else None


def _basis(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"input_terms": sum(len(g) for g in args[0]),
            "basis": len(result),
            "top": max((g.total_degree() for g in result), default=0)}


def _borel(args, kwargs, result, exc):
    return {"borel": bool(result)} if exc is None else None


def _entries(args, kwargs, result, exc):
    return {"entries": result.nrows * (result.dmax + 1)} if exc is None else None


def _rgin(args, kwargs, result, exc):
    # every caller in arrfree passes the GinConfig as the second argument
    cfg = args[1]
    return {"per_batch": cfg.trials * (1 if cfg.mode == "exact" else 2),
            "exhausted": type(exc).__name__ == "GenericityExhaustedError"}


def arrfree_patches(arrfree):
    """(owner, attribute, span name, counter) for every wrapped call site."""
    cli, arrangement, gin = arrfree.cli, arrfree.arrangement, arrfree.gin
    return [
        (cli, "analyze", "arrangement.analyze", None),
        (cli, "load_input", "cli.load_input", None),
        (cli, "report_to_dict", "cli.report_to_dict", None),
        (arrangement, "rgin", "gin.rgin", _rgin),
        (arrangement, "jacobian_ideal", "arrangement.jacobian_ideal", None),
        (arrangement, "sectional_matrix", "monomial.sectional_matrix", _entries),
        (arrangement, "betti_eliahou_kervaire", "monomial.betti", None),
        (gin, "apply_linear_change", "polyring.apply_linear_change", _terms),
        (gin, "buchberger", "groebner.buchberger", _basis),
        (gin, "leading_term_ideal", "groebner.leading_term_ideal", None),
        (gin, "is_strongly_stable", "monomial.borel_check", _borel),
        (gin, "random_linear_change", "gin.random_linear_change", None),
    ]


def library_patches(api):
    """Spans around the library calls the benchmark makes itself."""
    return [
        (api, "sectional_matrix", "monomial.sectional_matrix", _entries),
        (api, "betti_eliahou_kervaire", "monomial.betti", None),
        (api, "is_cohen_macaulay", "monomial.borel_check", None),
        (api, "reduction_number", "monomial.reduction_number", None),
        (api, "rgin_from_exponents", "arrangement.converters", None),
        (api, "exponents_from_rgin", "arrangement.converters", None),
        (api, "realizable_as_free", "arrangement.converters", None),
    ]


class Tracer:
    """In-memory spans: [name, start, end, parent index, case id, counts]."""

    def __init__(self, patches):
        self.patches = patches
        self.spans = []
        self._stack = []
        self.case = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.case, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, case_id: str):
        self.case = case_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, original, name, count):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self._close(index)
                if count is not None:
                    self.spans[index][5] = count(args, kwargs, None, exc)
                raise
            self._close(index)
            if count is not None:
                self.spans[index][5] = count(args, kwargs, result, None)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Replace every patched name with its traced wrapper, then restore."""
        saved = []
        try:
            for owner, attr, name, count in self.patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "case", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer times, counts and shares of case wall time."""
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_time[s[3]] += duration[i]
    self_time = [d - c for d, c in zip(duration, child_time)]

    def total(name, values=duration):
        return sum(v for v, s in zip(values, spans) if s[0] == name)

    def counts(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def rgin_of(i):
        while i is not None and spans[i][0] != "gin.rgin":
            i = spans[i][3]
        return i

    trials = {}
    for i, s in enumerate(spans):
        if s[0] == "groebner.buchberger":
            owner = rgin_of(s[3])
            trials[owner] = trials.get(owner, 0) + 1
    n_trials = batches = useful = exhausted = 0
    for i, s in enumerate(spans):
        if s[0] == "gin.rgin" and s[5] is not None:
            ran, per_batch = trials.get(i, 0), s[5]["per_batch"]
            n_trials += ran
            batches += -(-ran // per_batch)
            if s[5]["exhausted"]:
                exhausted += 1
            else:
                useful += min(ran, per_batch)

    wall = sum(d for d, s in zip(duration, spans) if s[3] is None)
    basis = counts("groebner.buchberger")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for t, s in zip(self_time, spans):
        layer_self[LAYER[s[0]]] += t
    out = {
        "polyring.apply_linear_change_s": total("polyring.apply_linear_change"),
        "polyring.apply_linear_change_calls": len(counts("polyring.apply_linear_change")),
        "polyring.substituted_terms": sum(c["terms"] for c in counts("polyring.apply_linear_change")),
        "groebner.buchberger_s": total("groebner.buchberger"),
        "groebner.buchberger_calls": len(basis),
        "groebner.input_terms": sum(c["input_terms"] for c in basis),
        "groebner.basis_elements": sum(c["basis"] for c in basis),
        "groebner.top_degree": max((c["top"] for c in basis), default=0),
        "gin.rgin_s": total("gin.rgin"),
        "gin.self_s": layer_self["gin"],
        "gin.trials": n_trials,
        "gin.batches": batches,
        "gin.nonborel_trials": sum(1 for c in counts("monomial.borel_check")
                                   if not c["borel"]),
        "gin.useful_ratio": useful / n_trials if n_trials else 0.0,
        "gin.exhausted": exhausted,
        "monomial.sectional_matrix_s": total("monomial.sectional_matrix"),
        "monomial.sectional_entries": sum(c["entries"] for c in counts("monomial.sectional_matrix")),
        "monomial.betti_s": total("monomial.betti"),
        "monomial.borel_check_s": total("monomial.borel_check"),
        "arrangement.jacobian_ideal_s": total("arrangement.jacobian_ideal"),
        "arrangement.analyze_self_s": total("arrangement.analyze", self_time),
        "arrangement.converters_s": total("arrangement.converters"),
        "cli.load_input_s": total("cli.load_input"),
        "cli.self_s": layer_self["cli"],
        "trace.case_wall_s": wall,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = layer_self[layer] / wall if wall else 0.0
    return out

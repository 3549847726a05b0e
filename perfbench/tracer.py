"""In-memory span recorder and the instrumentation that feeds it.

Spans are recorded from the benchmark's side: `instrument` wraps the public
functions of the polylab modules at every name their callers bind (module
attributes such as `polylab.solvers.macaulay_hat`, plus class attributes such
as `PolySystem.residual`), so no library source changes. A few entry points
get counters instead of spans. Spans live in flat arrays until the run ends;
`analyze` then derives each span's self time as its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("families", "polycore", "macaulay", "numkernel", "solvers", "conditioning", "bench")

# Small helpers called per term or per block: a span each would cost more
# than their work, so their time stays in the caller's self time. The one-line
# svd wrapper is folded too, so that null_space and the conditioning formulas
# carry the cost of their own factorizations. The two scoring functions are
# timed as bench.score instead (see SCORE_BINDINGS and run_trial), and the
# determinantal self-check is part of mep_from_system.
FOLDED = frozenset(
    {
        "polycore.monomial_degree",
        "polycore.monomial_mul",
        "numkernel.kron",
        "numkernel.svd",
        "conditioning.monomial_eval",
        "conditioning.mep_operator",
        "solvers.determinantal_representation_quadratic",
        "families.true_root_error",
        "bench.digits_of_accuracy",
    }
)

# Scoring calls inside the library's own trial code, spanned as bench.score:
# (module, attribute) of the name the caller binds.
SCORE_BINDINGS = (("polylab.bench", "true_root_error"),)

# Class methods timed as spans, and the one counted only (it runs per
# polynomial per point, so its cost is left to the caller's self time).
METHOD_SPANS = (("polycore", "PolySystem", "residual"),)
METHOD_COUNTS = (("polycore", "MultiPoly", "eval"),)

# Dense factorization entry points the library calls: counted, with the
# m*n size of the (first) matrix argument.
FACTORIZATIONS = (
    ("numpy.linalg", "svd"),
    ("scipy.linalg", "qr"),
    ("scipy.linalg", "eig"),
    ("numpy.linalg", "eigvals"),
)


class Tracer:
    """Spans (name, start, end, parent, trial) in flat arrays, plus counters."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trial_id = array("i")
        self.stack = [-1]
        self.trial = -1
        self.counters: dict = {}

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a trial, the scoring step)."""
        nid = self.intern(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.trial_id.append(self.trial)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.stack.pop()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial_id, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write the spans; `names` maps name_id to the span name."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class _NullSpan:
    """Stand-in for Tracer.span when tracing is off."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield


NO_TRACE = _NullSpan()


def _counting(fn, tracer: Tracer, key: str, sized: bool):
    """Count calls as `key.calls` and, when sized, m*n of the first argument as `key.elems`."""
    calls, elems = key + ".calls", key + ".elems"

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(calls)
        if sized and args:
            shape = np.shape(args[0])
            if len(shape) >= 2:
                tracer.count(elems, shape[-2] * shape[-1])
        return fn(*args, **kwargs)

    return counted


def _polylab_namespaces() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "polylab" or n.startswith("polylab.")]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the library's public functions for the duration of the block."""
    import importlib

    patches = []  # (owner, attribute, original)

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    namespaces = _polylab_namespaces()
    try:
        for short in MODULES:
            mod = importlib.import_module("polylab." + short)
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or name in FOLDED
                ):
                    continue
                traced = tracer.wrap(fn, name)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            patch(ns, bound, traced)
        for modname, attr in SCORE_BINDINGS:
            owner = importlib.import_module(modname)
            patch(owner, attr, tracer.wrap(getattr(owner, attr), "bench.score"))
        for short, cls, meth in METHOD_SPANS:
            owner = getattr(importlib.import_module("polylab." + short), cls)
            patch(owner, meth, tracer.wrap(getattr(owner, meth), f"{short}.{cls}.{meth}"))
        for short, cls, meth in METHOD_COUNTS:
            owner = getattr(importlib.import_module("polylab." + short), cls)
            key = f"{short}.{cls}.{meth}"
            patch(owner, meth, _counting(getattr(owner, meth), tracer, key, False))
        for modname, attr in FACTORIZATIONS:
            owner = importlib.import_module(modname)
            key = "numkernel.dense_factorizations"
            patch(owner, attr, _counting(getattr(owner, attr), tracer, key, True))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def analyze(tracer: Tracer) -> dict:
    """Per-name span counts and self ns, plus the summed root (trial) ns."""
    a = tracer.arrays()
    n = a["start"].size
    dur = (a["end"] - a["start"]).astype(np.float64)
    has_parent = a["parent"] >= 0
    covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_ns = dur - covered
    if n and self_ns.min() < 0:
        raise AssertionError("a child span outlasts its parent")
    k = len(tracer.names)
    roots = ~has_parent
    return {
        "names": list(tracer.names),
        "calls": np.bincount(a["name_id"], minlength=k),
        "self_ns": np.bincount(a["name_id"], weights=self_ns, minlength=k),
        "root_ns": float(dur[roots].sum()),
        "n_spans": n,
        "arrays": a,
        "dur": dur,
    }


def inclusive_ns(result: dict, names, parent_names=None) -> float:
    """Summed duration of the spans named in `names`, which must not nest.

    With `parent_names`, only spans whose direct parent is one of those count.
    """
    a = result["arrays"]
    keep = np.isin(a["name_id"], [result["names"].index(x) for x in names if x in result["names"]])
    if parent_names is not None:
        pids = [result["names"].index(x) for x in parent_names if x in result["names"]]
        parent = a["parent"]
        keep &= (parent >= 0) & np.isin(a["name_id"][np.maximum(parent, 0)], pids)
    return float(result["dur"][keep].sum())

"""Outside-in tracing of pdgenus's layers.

A hook wraps one function or method of a layer module.  A function is
hooked by rebinding its name in every loaded ``pdgenus`` module that binds
it (``golden``, for one, imports ``express_modulo_4T`` by name), a method by
replacing it on its class.  A hook whose target no longer exists is
reported as ``absent`` and skipped, so the internals may change under the
benchmark.

Span hooks record one span per call: hook, parent span, start, end.  Count
hooks only count calls; their time stays in the enclosing span.  Spans are
kept in memory in flat arrays and written out by ``write_spans`` after the
timed section.  A span's self time is its duration minus the durations of
its child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
import time
from array import array
from typing import Callable, NamedTuple


class Hook(NamedTuple):
    name: str
    module: str
    target: str  # "function" or "Class.method"
    counts_only: bool = False
    work: Callable | None = None  # (args, result) -> units of work done by the call


def _rows(args, result) -> int:
    return len(getattr(args[0], "rows", ()))


HOOKS = (
    Hook("diagrams.enumerate", "pdgenus.diagrams", "enumerate_diagrams"),
    Hook("diagrams.canonical", "pdgenus.diagrams", "ChordDiagram.canonical"),
    Hook("maps.genus", "pdgenus.maps", "CombinatorialMap.genus_of_partial_dual"),
    Hook("maps.walk", "pdgenus.maps", "CombinatorialMap.spanning_boundary_count", True),
    Hook("weight_system.poly", "pdgenus.weight_system", "pd_genus_polynomial"),
    Hook("weight_system.check", "pdgenus.weight_system", "check_4T"),
    Hook(
        "weight_system.quadruples", "pdgenus.weight_system", "generate_4T_quadruples",
        work=lambda args, result: len(result),
    ),
    Hook(
        "weight_system.vectors", "pdgenus.weight_system", "quadruple_vectors",
        work=lambda args, result: len(result),
    ),
    Hook("weight_system.express", "pdgenus.weight_system", "express_modulo_4T"),
    Hook("polynomials.build", "pdgenus.polynomials", "RationalMatrix.__init__"),
    Hook("polynomials.rank", "pdgenus.polynomials", "RationalMatrix.rank", work=_rows),
    Hook("polynomials.solve", "pdgenus.polynomials", "RationalMatrix.solve"),
    Hook("golden.verify", "pdgenus.golden", "verify_golden_table"),
)


class Recorder:
    """Spans and counts of one traced run, in memory."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.hook = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.calls = [0] * len(hooks)
        self.work = [0] * len(hooks)
        self.status = {h.name: "absent" for h in hooks}

    def wrap(self, index: int, fn: Callable) -> Callable:
        hook = self.hooks[index]
        calls, work = self.calls, self.work
        if hook.counts_only:

            def counted(*args, **kwargs):
                calls[index] += 1
                return fn(*args, **kwargs)

            return counted

        kinds, parents, starts, ends, stack = self.hook, self.parent, self.start, self.end, self.stack
        clock, measure = time.perf_counter, hook.work

        def spanned(*args, **kwargs):
            i = len(starts)
            kinds.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            calls[index] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if measure is not None:
                work[index] += measure(args, result)
            return result

        return spanned

    @contextlib.contextmanager
    def installed(self):
        """Install every hook whose target exists; restore the originals on exit."""
        undo = []
        try:
            for index, hook in enumerate(self.hooks):
                undo += self._install(index, hook)
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def _install(self, index: int, hook: Hook) -> list:
        try:
            module = importlib.import_module(hook.module)
        except ImportError:
            return []
        *path, name = hook.target.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
        if path and (owner is None or not callable(owner.__dict__.get(name))):
            return []  # a method must be defined on the class itself
        original = getattr(owner, name, None)
        if original is None:
            return []
        wrapper = self.wrap(index, original)
        if path:
            owners = [(owner, name)]
        else:
            owners = [
                (mod, attr)
                for key, mod in list(sys.modules.items())
                if key == "pdgenus" or key.startswith("pdgenus.")
                for attr, value in list(vars(mod).items())
                if value is original
            ]
        for target, attr in owners:
            setattr(target, attr, wrapper)
        self.status[hook.name] = "ok"
        return [(target, attr, original) for target, attr in owners]

    def summary(self) -> dict:
        """Per hook: status, calls, work units and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        own = [0.0] * len(self.hooks)
        for i in range(n):
            own[self.hook[i]] += self.end[i] - self.start[i] - child[i]
        return {
            h.name: {
                "status": self.status[h.name],
                "calls": self.calls[k],
                "work": self.work[k],
                "self_s": own[k],
            }
            for k, h in enumerate(self.hooks)
        }

    def calls_without(self, outer: str, inner: str) -> int:
        """Spans of hook ``outer`` that have no ``inner`` span below them."""
        names = [h.name for h in self.hooks]
        if outer not in names or inner not in names:
            return 0
        o, j = names.index(outer), names.index(inner)
        hit = set()
        for i in range(len(self.start)):
            if self.hook[i] == j:
                p = self.parent[i]
                while p >= 0 and self.hook[p] != o:
                    p = self.parent[p]
                if p >= 0:
                    hit.add(p)
        return self.calls[o] - len(hit)

    def write_spans(self, path: str) -> None:
        """All spans as gzipped JSON columns: hook index, parent span, start, end."""
        data = {
            "hooks": [h.name for h in self.hooks],
            "hook": self.hook.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(data, fh)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced run (``trace.overhead_s`` is added by run.py)."""
    s = rec.summary()

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    polys = s["weight_system.poly"]["calls"]
    genus = s["maps.genus"]["calls"]
    walks = s["maps.walk"]["calls"]
    return {
        "diagrams.enumerate_s": s["diagrams.enumerate"]["self_s"],
        "diagrams.canonical_calls": s["diagrams.canonical"]["calls"],
        "diagrams.canonical_s": s["diagrams.canonical"]["self_s"],
        "maps.genus_calls": genus,
        "maps.genus_s": s["maps.genus"]["self_s"],
        "maps.boundary_walks": walks,
        "maps.walks_per_genus": ratio(walks, genus),
        "weight_system.poly_calls": polys,
        "weight_system.poly_s": s["weight_system.poly"]["self_s"],
        "weight_system.poly_hit_ratio": ratio(
            rec.calls_without("weight_system.poly", "maps.genus"), polys
        ),
        "weight_system.quadruples": s["weight_system.quadruples"]["work"],
        "weight_system.quadruples_s": s["weight_system.quadruples"]["self_s"],
        "weight_system.residual_s": s["weight_system.check"]["self_s"],
        "weight_system.relation_vectors": s["weight_system.vectors"]["work"],
        "weight_system.vectors_s": s["weight_system.vectors"]["self_s"],
        "weight_system.express_s": s["weight_system.express"]["self_s"],
        "polynomials.build_s": s["polynomials.build"]["self_s"],
        "polynomials.rank_calls": s["polynomials.rank"]["calls"],
        "polynomials.rank_rows": s["polynomials.rank"]["work"],
        "polynomials.rank_s": s["polynomials.rank"]["self_s"],
        "polynomials.solve_calls": s["polynomials.solve"]["calls"],
        "polynomials.solve_s": s["polynomials.solve"]["self_s"],
        "golden.verify_s": s["golden.verify"]["self_s"],
        "trace.spans": len(rec.start),
        "trace.hooks_absent": sum(v["status"] == "absent" for v in s.values()),
    }

"""Layer tracing by wrapping the package's public functions from outside.

``Tracer.install()`` replaces each traced function with a wrapper under
every name that refers to it: the defining module, each module that
imported it, and the package namespace.  ``restore()`` puts the original
objects back.  Calls to the big engines are recorded as spans (name,
start, end, parent span, query); calls to hot leaves (single-element
flips, ``act``, ``split_components``, ``extract``, ``SetSystem.to_json``)
only add to a counter and a summed time, so that a query running a
million flips does not record a million spans.

Self time is a call's duration minus the time of the traced calls made
inside it, so the self times of all traced names add up to the traced
time and never count a nested call twice.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import twuality
from twuality import cli, multimatroid, orbit_engine, ribbon, set_system, twuality_group

MODULES = (twuality, set_system, twuality_group, orbit_engine, multimatroid, ribbon, cli)

# (module, attribute, layer name, leaf?)
TRACED = (
    (set_system, "twist1", "set_system.flip1", True),
    (set_system, "loop_complement1", "set_system.flip1", True),
    (set_system, "dual_twist1", "set_system.flip1", True),
    (set_system, "is_delta_matroid", "set_system.is_delta_matroid", False),
    (set_system, "is_vf_safe", "set_system.is_vf_safe", False),
    (twuality_group, "act", "twuality_group.act", True),
    (orbit_engine, "orbit", "orbit_engine.orbit", False),
    (orbit_engine, "stabilizer_search", "orbit_engine.stabilizer_search", False),
    (multimatroid, "lift", "multimatroid.lift", False),
    (multimatroid, "extract", "multimatroid.extract", True),
    (multimatroid, "orbit_via_lift", "multimatroid.orbit_via_lift", False),
    (multimatroid, "is_multimatroid", "multimatroid.is_multimatroid", False),
    (multimatroid, "is_tight", "multimatroid.is_tight", False),
    (ribbon, "spanning_quasi_trees", "ribbon.spanning_quasi_trees", False),
    (ribbon, "delta_matroid_of", "ribbon.delta_matroid_of", False),
    (ribbon, "medial", "ribbon.medial", False),
    (ribbon, "split_components", "ribbon.split_components", True),
    (ribbon, "transition_matroid", "ribbon.transition_matroid", False),
    (ribbon, "verify_medial_lift", "ribbon.verify_medial_lift", False),
    (cli, "main", "cli.main", False),
)
# methods are patched on their class
TRACED_METHODS = ((set_system.SetSystem, "to_json", "set_system.to_json", True),)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Counters, self times and spans of one traced run."""

    def __init__(self):
        self.enabled = False
        self.query = None
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child seconds, enclosing span id]
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # call accounting

    def _pre(self, name, args, kwargs):
        if name == "set_system.is_vf_safe":
            cache = _arg(args, kwargs, 2, "cache")
            return None if cache is None else (cache, len(cache))
        if name in ("orbit_engine.stabilizer_search", "multimatroid.orbit_via_lift"):
            return self.calls["twuality_group.act"], self.calls["multimatroid.extract"]
        return None

    def _post(self, name, args, kwargs, result, pre):
        extra = self.extra
        if name == "set_system.is_vf_safe":
            if pre is not None and len(pre[0]) == pre[1]:
                extra["is_vf_safe.cache_hits"] += 1
        elif name == "orbit_engine.orbit":
            extra["orbit.states"] += result.size
        elif name == "orbit_engine.stabilizer_search":
            extra["stabilizer_search.acts"] += self.calls["twuality_group.act"] - pre[0]
            extra["stabilizer_search.hits"] += len(result)
        elif name == "ribbon.transition_matroid":
            extra["transition_matroid.bases"] += len(result.bases)
            extra["transition_matroid.tried"] += 3 ** result.n
        elif name == "multimatroid.orbit_via_lift":
            extra["orbit_via_lift.extracts"] += self.calls["multimatroid.extract"] - pre[1]
            extra["orbit_via_lift.elements"] += len(result)

    def _wrap(self, fn, name, leaf):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            span_id = len(tracer.spans) if not leaf else parent
            if not leaf:
                tracer.spans.append(None)  # reserve the id; filled in below
            pre = None if leaf else tracer._pre(name, args, kwargs)
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not leaf:
                    tracer.spans[span_id] = (span_id, parent, name, start, end, tracer.query)
            if not leaf:
                tracer._post(name, args, kwargs, result, pre)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, name, leaf in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, leaf)
            for mod in MODULES:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for cls, attr, name, leaf in TRACED_METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, leaf))

    def restore(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values named as in BENCHMARK.json (without units)."""
        c, t, x = self.calls, self.self_s, self.extra

        def ratio(num, den):
            return num / den if den else 0.0

        flat = {}
        for name in (
            "orbit_engine.orbit",
            "set_system.flip1",
            "orbit_engine.stabilizer_search",
            "twuality_group.act",
            "set_system.to_json",
            "set_system.is_vf_safe",
            "set_system.is_delta_matroid",
            "ribbon.spanning_quasi_trees",
            "ribbon.split_components",
            "multimatroid.extract",
            "multimatroid.lift",
        ):
            flat[f"{name}.calls"] = c[name]
            flat[f"{name}.self_s"] = float(t[name])
        for name in (
            "cli.main",
            "ribbon.transition_matroid",
            "multimatroid.orbit_via_lift",
            "multimatroid.is_multimatroid",
        ):
            flat[f"{name}.self_s"] = float(t[name])
        flat["orbit_engine.orbit.states"] = x["orbit.states"]
        flat["orbit_engine.stabilizer_search.acts_per_hit"] = ratio(
            x["stabilizer_search.acts"], x["stabilizer_search.hits"]
        )
        flat["ribbon.transition_matroid.base_ratio"] = ratio(
            x["transition_matroid.bases"], x["transition_matroid.tried"]
        )
        flat["multimatroid.orbit_via_lift.extracts_per_element"] = ratio(
            x["orbit_via_lift.extracts"], x["orbit_via_lift.elements"]
        )
        flat["set_system.is_vf_safe.cache_hit_ratio"] = ratio(
            x["is_vf_safe.cache_hits"], c["set_system.is_vf_safe"]
        )
        return flat

    def module_shares(self) -> dict[str, float]:
        """Share of all traced self time spent in each module."""
        total = sum(self.self_s.values())
        shares: Counter = Counter()
        for name, seconds in self.self_s.items():
            shares[name.split(".")[0]] += seconds
        return {mod: (s / total if total else 0.0) for mod, s in sorted(shares.items())}

    def write_spans(self, path) -> None:
        """One JSON object per span and line."""
        keys = ("id", "parent", "name", "start", "end", "query")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:  # None: a span whose call never returned
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def patched_attributes() -> dict:
    """Identity snapshot of every attribute the tracer may patch."""
    snap = {}
    for _, attr, _, _ in TRACED:
        for mod in MODULES:
            snap[(mod.__name__, attr)] = getattr(mod, attr, None)
    for cls, attr, _, _ in TRACED_METHODS:
        snap[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return snap


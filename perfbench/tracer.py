"""Span tracer for parkfact, installed from outside the package.

`install(tracer)` wraps every public function and method defined in each
parkfact module (plus the arithmetic and construction dunders that carry
the kernels) and rebinds each wrapper in every parkfact module and
registry dict that held the original, so internal calls are traced too.

A span is one call of a wrapped callable.  A generator (a generator
function, or a function that returns one) gets a single span covering
its consumption: the span is on the stack only while the generator runs,
and its busy time is the sum of those resumes.  A plain call's busy time
is its end minus its start.  Self time is busy time minus the busy time
of the child spans, i.e. of the spans opened while it was on the stack.

Self time is summed per span name as each span closes, so memory stays
flat however many calls a workload makes (verify-all makes about 10
million).  Only the spans of the outer levels (depth < KEEP_DEPTH, at
most MAX_KEPT of them) are also kept whole in memory -- name, start, end,
busy time and parent -- and `dump` writes them out at the end; keeping
every span would hold millions of records.

Value-object constructions are counted by a `__new__` hook on each value
class, because the polynomial arithmetic builds results without
`__init__`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types

LAYERS = (
    "polynomials", "permutations", "trees", "parking", "factorizations",
    "arch", "inverse_maps", "render", "verify", "cli",
)

VALUE_CLASSES = {
    "Permutation": "permutations",
    "Factorization": "factorizations",
    "ParkingFunction": "parking",
    "LabelledTree": "trees",
    "ArchDiagram": "arch",
    "BivariatePoly": "polynomials",
}

# dunders that do real work (kernels, value checks); the other dunders
# (__eq__, __hash__, __repr__ ...) are protocol plumbing and stay untraced
TRACED_DUNDERS = frozenset({
    "__init__", "__post_init__", "__call__", "__mul__", "__rmul__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__pow__",
})

NO_SPAN = -1
KEEP_DEPTH = 3
MAX_KEPT = 100_000


class Tracer:
    """Span stack plus per-name totals.  `clock` returns integer nanoseconds.

    A stack frame is `[child_busy_ns, kept_span_id, name_id]`; the bottom
    frame stands for the caller outside all traced code.  `edges` counts
    closed spans per (parent name, name) pair and `yields` counts the items
    each generator name produced.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.busy_ns: list[int] = []
        self.self_ns: list[int] = []
        self.yields: list[int] = []
        self.edges: dict[tuple[int, int], int] = {}
        self.stack: list[list[int]] = [[0, NO_SPAN, NO_SPAN]]
        self.kept: list[list] = []  # [name id, start, end, busy, parent span id]
        self.spans = 0
        self.constructed = {name: 0 for name in VALUE_CLASSES}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy_ns.append(0)
            self.self_ns.append(0)
            self.yields.append(0)
        return self._name_ids[name]

    def enter(self, nid: int, start: int) -> list[int]:
        """Open a span under the current stack top and return its frame."""
        sid = NO_SPAN
        parent = self.stack[-1]
        if len(self.stack) <= KEEP_DEPTH and len(self.kept) < MAX_KEPT:
            sid = len(self.kept)
            self.kept.append([nid, start, start, 0, parent[1]])
        edge = (parent[2], nid)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        return [0, sid, nid]

    def close(self, nid: int, frame: list[int], end: int, busy: int) -> None:
        """Account a finished span of `busy` ns whose children took frame[0]."""
        self.spans += 1
        self.calls[nid] += 1
        self.busy_ns[nid] += busy
        self.self_ns[nid] += busy - frame[0]
        if frame[1] != NO_SPAN:
            record = self.kept[frame[1]]
            record[2] = end
            record[3] = busy

    # --------------------------------------------------------------- wrappers

    def wrap_call(self, func, name: str):
        nid = self.name_id(name)
        clock, stack = self.clock, self.stack
        enter, close, wrap_gen = self.enter, self.close, self.wrap_generator

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = clock()
            frame = enter(nid, start)
            stack.append(frame)
            result = None
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                stack[-1][0] += end - start
                if type(result) is not types.GeneratorType:
                    # a returned or raising call ends here
                    close(nid, frame, end, end - start)
            if type(result) is types.GeneratorType:
                # a generator handed back by a plain function: its
                # consumption extends this call's span
                return wrap_gen(result, nid, frame, end - start)
            return result

        return traced

    def wrap_generator_function(self, func, name: str):
        nid = self.name_id(name)
        wrap_gen = self.wrap_generator

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return wrap_gen(func(*args, **kwargs), nid, None, 0)

        return traced

    def wrap_generator(self, gen, nid: int, frame, busy: int):
        clock, stack = self.clock, self.stack
        enter, close, yields = self.enter, self.close, self.yields

        def consume():
            nonlocal frame, busy
            to_send = None
            end = None
            try:
                while True:
                    start = clock()
                    if frame is None:
                        frame = enter(nid, start)
                    stack.append(frame)
                    try:
                        item = gen.send(to_send)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        stack.pop()
                        end = clock()
                        stack[-1][0] += end - start
                        busy += end - start
                    yields[nid] += 1
                    to_send = yield item
            finally:
                gen.close()
                if frame is not None:
                    close(nid, frame, clock() if end is None else end, busy)

        return consume()

    # ------------------------------------------------------------- summaries

    def summary(self) -> dict:
        """Per-name totals, value constructions and parent -> child call counts."""
        names = self.names
        return {
            "spans": self.spans,
            "names": {
                name: {"calls": self.calls[i], "busy_ns": self.busy_ns[i],
                       "self_ns": self.self_ns[i], "yields": self.yields[i]}
                for i, name in enumerate(names) if self.calls[i]
            },
            "constructed": dict(self.constructed),
            "edges": {
                f"{names[parent] if parent != NO_SPAN else ''}>{names[child]}": count
                for (parent, child), count in self.edges.items()
            },
        }

    def dump(self, path: str) -> None:
        """Write each kept span as a JSON line: [name, start, end, busy, parent]."""
        with open(path, "w") as out:
            for nid, start, end, busy, parent in self.kept:
                out.write(json.dumps([self.names[nid], start, end, busy, parent]) + "\n")


# -------------------------------------------------------------- installation


def _is_generator_function(func) -> bool:
    code = getattr(func, "__code__", None)
    return code is not None and bool(code.co_flags & inspect.CO_GENERATOR)


def _own_source(func, module) -> bool:
    """Written in the module's file: not generated by dataclass/NamedTuple."""
    code = getattr(func, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def _wrap(tracer: Tracer, func, name: str):
    if _is_generator_function(func):
        return tracer.wrap_generator_function(func, name)
    return tracer.wrap_call(func, name)


def _public(name: str) -> bool:
    return not name.startswith("_") or name in TRACED_DUNDERS


def _count_constructions(tracer: Tracer, cls, name: str) -> None:
    counts = tracer.constructed

    def __new__(klass, *args, **kwargs):
        counts[name] += 1
        return object.__new__(klass)

    cls.__new__ = staticmethod(__new__)


def install(tracer: Tracer) -> None:
    """Wrap parkfact's public callables in place."""
    modules = {layer: importlib.import_module(f"parkfact.{layer}") for layer in LAYERS}
    package = importlib.import_module("parkfact")
    replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, obj, layer, module)
                if attr in VALUE_CLASSES:
                    _count_constructions(tracer, obj, attr)
            elif _public(attr) and isinstance(
                    obj, (types.FunctionType, functools._lru_cache_wrapper)):
                replaced[id(obj)] = (obj, _wrap(tracer, obj, f"{layer}.{attr}"))

    # rebind in every module namespace and registry dict that held the original
    for namespace in [vars(m) for m in modules.values()] + [vars(package)]:
        for attr, obj in list(namespace.items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                namespace[attr] = hit[1]
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    hit = replaced.get(id(value)) if callable(value) else None
                    if hit is not None and hit[0] is value:
                        obj[key] = hit[1]


def _wrap_class(tracer: Tracer, cls, layer: str, module) -> None:
    for attr, raw in list(vars(cls).items()):
        if not _public(attr):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        if isinstance(func, types.FunctionType) and _own_source(func, module):
            wrapped = _wrap(tracer, func, name)
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

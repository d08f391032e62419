"""Span tracer that times calls into the library from outside it.

The tracer replaces every public function of each layer module (the
names in the module's ``__all__``) by a wrapper, at every module
attribute through which library code resolves it: ``oracle.is_instance``
as well as aliases such as ``enumeration.evaluate_rules`` or
``cli.run_classify``.  Each call records one span: function id, parent
span, start and end in ``perf_counter_ns``.  A generator function gets
one span per resume, so the work it does while a consumer iterates it
is charged to it and not to the consumer.  Spans are kept in flat arrays
in memory and written out by :meth:`Tracer.dump`.

A wrapper costs time of its own, part of it inside the span it opens and
part of it in the caller's frame, outside that span.  :func:`calibrate`
measures both parts on a wrapped no-op, and :meth:`Tracer.function_stats`
subtracts them, so that a layer that calls a million small functions is
not charged for the tracer's work.

``model`` and ``exact_arith`` are not wrapped: their functions are
called once per speed or per rational, too often and too cheaply to
time from outside, so their cost lands in the self time of the layer
that calls them.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import statistics
import time
import types
from pathlib import Path

LAYERS = ("cli", "enumeration", "classify", "oracle", "dyadic", "polyhedron")

# Functions whose results count vectors visited by the enumeration layer:
# a sweep visits summary.total_vectors masks; a record stream visits one
# mask per record it yields (counted by the generator wrapper).
_VISIT_RESULTS = {"enumeration.sweep": lambda summary: summary.total_vectors}
_VISIT_YIELDS = {"enumeration.iter_vector_records"}


class Tracer:
    """Records spans for calls into the given layer modules."""

    def __init__(self, modules: dict[str, object]) -> None:
        self.modules = modules
        self.names: list[str] = []  # function id -> "module.function"
        self.layer_of: list[int] = []  # function id -> index into LAYERS
        self.is_gen: list[bool] = []  # function id -> wrapped as a generator
        self.func = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.visits = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn not in self._wrappers:
                    self._wrappers[fn] = self._wrap(fn, layer)

    def install(self) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, layer: str):
        fid = len(self.names)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.is_gen.append(inspect.isgeneratorfunction(fn))
        # Span bookkeeping is written out inside each wrapper, with bound
        # methods in closure cells, not in helper functions: every call
        # saved here is wrapper cost that calibrate() need not subtract.
        func_append, parent_append, start_append, end_append = (
            self.func.append,
            self.parent.append,
            self.start.append,
            self.end.append,
        )
        func, end, stack = self.func, self.end, self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            counts = name in _VISIT_YIELDS

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(func)
                    func_append(fid)
                    parent_append(stack[-1])
                    end_append(0)
                    push(idx)
                    start_append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = clock()
                        pop()
                    if counts:
                        self.visits += 1
                    yield item

            return gen_wrapper

        visit_count = _VISIT_RESULTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(func)
            func_append(fid)
            parent_append(stack[-1])
            end_append(0)
            push(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                pop()
            if visit_count is not None:
                self.visits += visit_count(result)
            return result

        return wrapper

    def span_count(self) -> int:
        return len(self.func)

    def spans_since(self, lo: int) -> list[array.array]:
        """The spans recorded from index ``lo`` on, for :meth:`add_spans`."""
        return [arr[lo:] for arr in (self.func, self.parent, self.start, self.end)]

    def add_spans(self, spans: list[array.array]) -> None:
        """Append spans that a forked copy of this tracer recorded.

        The copy started from this tracer's span count, so its parent
        indices are valid here as they are.
        """
        for arr, new in zip((self.func, self.parent, self.start, self.end), spans):
            arr.extend(new)

    def function_stats(self, lo: int, hi: int, cost: dict[bool, tuple[float, float]]) -> tuple[dict[str, dict], float]:
        """Per-function totals over spans [lo, hi), one pass of the workload.

        ``cost`` is the wrapper cost per span, as :func:`calibrate` gives it.

        A span's self time is its duration minus the durations of its
        direct children (single-threaded, so children never overlap),
        minus the wrapper cost: its own inner cost, and the outer cost of
        each direct child.  ``total_ns`` is the duration minus the wrapper
        cost of the span and of every span below it.  ``entries`` counts
        the spans whose parent is in another layer (or is the root): calls
        into the layer rather than within it.  Also returns the wrapper
        cost subtracted in all, in ns.
        """
        func, parent, start, end = self.func, self.parent, self.start, self.end
        layer_of, is_gen = self.layer_of, self.is_gen
        # Compact float arrays: a pass can hold a million spans.  Children
        # have higher indices than their parents, so one backward sweep sees
        # every child of a span before the span itself.
        child = array.array("d", bytes(8 * (hi - lo)))  # children's durations + outer cost
        below = array.array("d", bytes(8 * (hi - lo)))  # wrapper cost of the spans below
        count = len(self.names)
        calls, entries, total_ns, self_ns = [0] * count, [0] * count, [0.0] * count, [0.0] * count
        subtracted = 0.0
        for i in range(hi - 1, lo - 1, -1):
            fid = func[i]
            outer, inner = cost[is_gen[fid]]
            duration = end[i] - start[i]
            calls[fid] += 1
            self_ns[fid] += duration - child[i - lo] - inner
            total_ns[fid] += duration - below[i - lo] - inner
            subtracted += inner
            p = parent[i]
            if p >= lo:
                child[p - lo] += duration + outer
                below[p - lo] += below[i - lo] + inner + outer
                subtracted += outer
            if p < 0 or layer_of[func[p]] != layer_of[fid]:
                entries[fid] += 1
        stats = {
            name: {
                "layer": LAYERS[self.layer_of[fid]],
                "calls": calls[fid],
                "entries": entries[fid],
                "total_ns": total_ns[fid],
                "self_ns": self_ns[fid],
            }
            for fid, name in enumerate(self.names)
            if calls[fid]
        }
        return stats, subtracted

    def dump(self, path: Path, passes: list[tuple[int, int]]) -> None:
        """Write all spans to ``path`` (.bin arrays) with a .json index beside it."""
        with open(path.with_suffix(".bin"), "wb") as handle:
            for arr in (self.func, self.parent, self.start, self.end):
                arr.tofile(handle)
        index = {
            "spans": len(self.func),
            "arrays": [["func", "H"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "clock": "time.perf_counter_ns",
            "functions": [[name, LAYERS[layer]] for name, layer in zip(self.names, self.layer_of)],
            "passes": passes,
        }
        path.with_suffix(".json").write_text(json.dumps(index) + "\n")


_PROBE = """
def leaf():
    pass

def stream(n):
    for _ in range(n):
        yield None

def call_leaf(n):
    for _ in range(n):
        leaf()

def drain_stream(n):
    for _ in stream(n):
        pass
"""


def calibrate(n: int = 50_000, repeats: int = 5) -> dict[bool, tuple[float, float]]:
    """Wrapper cost per span in ns, as ``{is_gen: (outer, inner)}``.

    Times ``n`` calls of a no-op (or ``n`` resumes of a generator that
    does nothing) from a driver function, bare and then wrapped.  *inner*
    is what the no-op's own span measures; *outer* is what the driver's
    self time grows by per call.  Medians over ``repeats``.
    """
    module = types.ModuleType("probe")
    exec(_PROBE, module.__dict__)
    module.__all__ = ["leaf", "stream", "call_leaf", "drain_stream"]
    probe = Tracer({"cli": module})  # a layer name is required; it is not reported
    clock = time.perf_counter_ns
    costs = {}
    for is_gen, driver in ((False, "call_leaf"), (True, "drain_stream")):
        outer, inner = [], []
        for _ in range(repeats):
            t0 = clock()
            getattr(module, driver)(n)
            bare = clock() - t0
            root = probe.span_count()
            probe.install()
            try:
                getattr(module, driver)(n)
            finally:
                probe.uninstall()
            children = range(root + 1, probe.span_count())
            child_ns = sum(probe.end[i] - probe.start[i] for i in children)
            root_self = probe.end[root] - probe.start[root] - child_ns
            outer.append((root_self - bare) / len(children))
            inner.append(child_ns / len(children))
        costs[is_gen] = (statistics.median(outer), statistics.median(inner))
    return costs

"""Per-layer ledger: spans and exact call counts around the repo's layers.

The ledger instruments the program from outside.  It replaces, at
class level, the public methods and functions of every ``repro``
layer package with a timing wrapper, and wraps every scheduled event
callback in :class:`HandlerSpan`, so that an event handler is charged
to the module that owns the callback and not to the engine that
fired it.  Nothing under ``src/`` changes.

Why class level: sessions are pickled by autosnapshots.  A class-level
wrapper leaves every instance ``__dict__`` untouched, a bound method
still pickles by name, and a :class:`HandlerSpan` in the event queue
pickles as a plain reference to this module.  The digest checks of the
benchmark catch any wrapper that changes what the program computes.

Spans nest on one stack.  A span's self time is its duration minus
the durations of its direct children; a layer's self time is the sum
over its spans.  Spans are aggregated in memory per (parent, name)
edge rather than kept one by one, so a long traced run stays small,
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``repro`` packages charged as layers.  ``sim.columns`` and
#: ``rm.equal_efficiency`` are kept apart from their packages because
#: ROADMAP items name them on their own.
LAYER_PACKAGES = (
    "sim", "runtime", "rm", "core", "machine", "apps", "qs", "metrics",
    "parallel", "serve", "storage", "checkpoint", "experiments",
)
SUB_LAYERS = ("sim.columns", "rm.equal_efficiency")

#: Private callables that carry a counter the ledger reports.
EXTRA_PRIVATE = {
    "repro.rm.manager": {"SpaceSharedResourceManager": ("_record_realloc",)},
}

#: Spans charged to another layer than their module's package.
#: Collecting a finished run's metrics lives in the checkpoint
#: package's session class, but it is metrics work.
LAYER_OVERRIDE = {"checkpoint:SimulationSession.finish": "metrics"}

_ACTIVE: Optional["Ledger"] = None


def layer_of(module: str) -> str:
    """Ledger layer of a ``repro`` module name (``other`` outside)."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    if len(parts) >= 3 and f"{parts[1]}.{parts[2]}" in SUB_LAYERS:
        return f"{parts[1]}.{parts[2]}"
    return parts[1]


class Ledger:
    """Span stack, per-layer self time and exact per-span call counts."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.extra: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self.errors: Counter = Counter()
        # frame: [name, layer, start, child_time]
        self._stack: List[list] = []
        self.wall_s = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        global _ACTIVE
        self._stack = [["<bench>", "bench", time.perf_counter(), 0.0]]
        self._t0 = self._stack[0][2]
        _ACTIVE = self

    def stop(self) -> None:
        global _ACTIVE
        now = time.perf_counter()
        root = self._stack[0]
        self.wall_s += now - self._t0
        self.self_s["bench"] += (now - root[2]) - root[3]
        self._stack = []
        _ACTIVE = None

    def enter(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, time.perf_counter(), 0.0])

    def leave(self) -> None:
        now = time.perf_counter()
        name, layer, start, child = self._stack.pop()
        duration = now - start
        parent = self._stack[-1]
        parent[3] += duration
        own = duration - child
        self.counts[name] += 1
        self.self_s[layer] += own
        self.total_s[name] += duration
        edge = self.edges.get((parent[0], name))
        if edge is None:
            self.edges[(parent[0], name)] = [1, duration, own]
        else:
            edge[0] += 1
            edge[1] += duration
            edge[2] += own

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def attributed_s(self) -> float:
        return sum(v for k, v in self.self_s.items() if k != "bench")

    def count_doc(self) -> Dict[str, int]:
        """Exact counts only: byte-stable across runs of the same inputs."""
        doc = {f"calls:{k}": v for k, v in self.counts.items()}
        doc.update({
            f"edge:{parent}>{name}": int(edge[0])
            for (parent, name), edge in self.edges.items()
        })
        doc.update({f"extra:{k}": v for k, v in self.extra.items()})
        doc.update({f"errors:{k}": v for k, v in self.errors.items()})
        return dict(sorted(doc.items()))

    def time_doc(self) -> Dict[str, Any]:
        """Wall times, kept apart from the counts."""
        return {
            "wall_s": self.wall_s,
            "self_s": dict(sorted(self.self_s.items())),
            "spans": [
                {"parent": parent, "name": name, "count": int(edge[0]),
                 "total_s": edge[1], "self_s": edge[2]}
                for (parent, name), edge in sorted(self.edges.items())
            ],
        }


class HandlerSpan:
    """An event callback that opens a span of its owner's layer.

    Picklable: it reduces to this class plus the wrapped callback, and
    it finds the ledger through the module, never through its state.
    """

    __slots__ = ("fn", "name", "layer")

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn
        self.name, self.layer = _handler_identity(fn)

    def __reduce__(self) -> Tuple[Any, Tuple[Any]]:
        return HandlerSpan, (self.fn,)

    def __call__(self, *args: Any) -> Any:
        ledger = _ACTIVE
        if ledger is None:
            return self.fn(*args)
        ledger.enter(self.name, self.layer)
        try:
            return self.fn(*args)
        finally:
            ledger.leave()


_IDENTITY: Dict[Any, Tuple[str, str]] = {}


def _handler_identity(fn: Callable[..., Any]) -> Tuple[str, str]:
    target = getattr(fn, "__func__", fn)
    target = getattr(target, "__wrapped__", target)
    key = getattr(target, "__code__", None) or type(target)
    found = _IDENTITY.get(key)
    if found is None:
        module = getattr(target, "__module__", None) or type(target).__module__
        qual = getattr(target, "__qualname__", type(target).__qualname__)
        layer = layer_of(module)
        found = (f"{layer}:event:{qual}", layer)
        _IDENTITY[key] = found
    return found


def _span_wrapper(fn: Callable[..., Any], name: str, layer: str,
                  after: Optional[Callable[..., None]]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        ledger = _ACTIVE
        if ledger is None:
            return fn(*args, **kwargs)
        ledger.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except OSError:
            ledger.errors[name] += 1
            raise
        finally:
            ledger.leave()
        if after is not None:
            after(ledger, result, args, kwargs)
        return result

    return wrapper


def _schedule_wrapper(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    """Wrap ``Simulator.schedule_*`` so the queued callback is a span."""

    @functools.wraps(fn)
    def wrapper(self: Any, when: float, callback: Callable[..., Any],
                *args: Any, **kwargs: Any) -> Any:
        ledger = _ACTIVE
        if ledger is None:
            return fn(self, when, callback, *args, **kwargs)
        ledger.enter(name, "sim")
        try:
            if not isinstance(callback, HandlerSpan):
                callback = HandlerSpan(callback)
            return fn(self, when, callback, *args, **kwargs)
        finally:
            ledger.leave()

    return wrapper


# ----------------------------------------------------------------------
# return-value counters: work a span did that its call count cannot show
# ----------------------------------------------------------------------
def _count_noop_report(ledger: Ledger, result: Any, args: Any, kwargs: Any) -> None:
    if not result:
        ledger.extra["core.noop_reports"] += 1


def _count_pruned(ledger: Ledger, result: Any, args: Any, kwargs: Any) -> None:
    ledger.extra["serve.pruned_jobs"] += int(result or 0)


def _count_snapshot_bytes(ledger: Ledger, result: Any, args: Any, kwargs: Any) -> None:
    path = args[0] if args else kwargs["path"]
    ledger.extra["checkpoint.bytes"] += os.path.getsize(path)


AFTER = {
    "core:PDPA.on_report": _count_noop_report,
    "serve:ServeSession.prune": _count_pruned,
    "checkpoint:write_snapshot": _count_snapshot_bytes,
}


def _layer_modules() -> List[Any]:
    """Import every module of the layer packages (lazy imports too)."""
    modules = []
    for package in LAYER_PACKAGES:
        root = importlib.import_module(f"repro.{package}")
        modules.append(root)
        for info in pkgutil.walk_packages(root.__path__, prefix=f"repro.{package}."):
            modules.append(importlib.import_module(info.name))
    return modules


def _wanted(name: str, value: Any, private: Tuple[str, ...]) -> bool:
    if name.startswith("__"):
        return False
    if name.startswith("_") and name not in private:
        return False
    return inspect.isfunction(value)


def instrument() -> None:
    """Wrap every layer's public callables, once per process.

    Wrappers are inert until a :meth:`Ledger.start`.  Instrumentation
    lasts for the life of the process, so a workload runs its untraced
    pass before calling this.
    """
    modules = _layer_modules()
    replaced: Dict[int, Callable[..., Any]] = {}
    for module in modules:
        layer = layer_of(module.__name__)
        extra = EXTRA_PRIVATE.get(module.__name__, {})
        for attr, value in list(vars(module).items()):
            if inspect.isclass(value) and value.__module__ == module.__name__:
                private = extra.get(attr, ())
                for meth, fn in list(vars(value).items()):
                    if not _wanted(meth, fn, private):
                        continue
                    name = f"{layer}:{attr}.{meth}"
                    if value.__name__ == "Simulator" and meth in ("schedule_at", "schedule_after"):
                        setattr(value, meth, _schedule_wrapper(fn, name))
                        continue
                    span_layer = LAYER_OVERRIDE.get(name, layer)
                    span = f"{span_layer}:{attr}.{meth}"
                    setattr(value, meth, _span_wrapper(fn, span, span_layer, AFTER.get(span)))
            elif _wanted(attr, value, ()) and value.__module__ == module.__name__:
                name = f"{layer}:{attr}"
                wrapper = _span_wrapper(value, name, layer, AFTER.get(name))
                replaced[id(value)] = wrapper
                setattr(module, attr, wrapper)
    # ``from x import f`` copies: rebind them, so every caller goes
    # through the wrapper and pickling by name still finds one object.
    for module in list(sys.modules.values()):
        if not (getattr(module, "__name__", None) or "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in replaced:
                setattr(module, attr, replaced[id(value)])

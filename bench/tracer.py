"""Per-layer tracing of the cvteleport package from outside it.

Each layer is one package module.  The tracer wraps every public function
a layer lists in __all__, plus a few named methods, and keeps a stack of
open spans: a span's self time is its duration minus the time of the
spans it opened.  Nothing inside the package changes; the wrappers are
installed into, and removed from, module and class namespaces.

Three traps this avoids:

* cvteleport.teleport is the re-exported function, not the module, so
  layer modules are taken from sys.modules.
* Modules bind names with ``from .x import y``, so each wrapper replaces
  every binding of the original function across the package.
* Methods are wrapped on their defining class only.  Wrapping
  ``epr_ports`` on a subclass would break swap's identity test against
  ``SqueezerSpectrum.epr_ports`` and silently disable its closed form.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "cvteleport"
LAYERS = ("cli", "criteria", "teleport", "swap", "epr", "linmode", "oracle")
# Methods that carry per-row work or serialization; the rest of the public
# methods are cheap accessors whose spans would only add overhead.
METHODS = ("pair", "epr_ports", "transfer", "gain_at", "to_csv", "to_json")


class Tracer:
    """Span-stack tracer; counters accumulate only while installed."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)  # per layer
        self.incl_s: defaultdict[str, float] = defaultdict(float)  # per function
        self.calls: Counter[str] = Counter()  # per function
        self.counts: Counter[str] = Counter()  # work seen at the boundaries
        self._stack: list[list[float]] = []  # child time of each open span
        self._patches = self._plan()

    def install(self) -> None:
        for owner, attr, _orig, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapper in self._patches:
            setattr(owner, attr, orig)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        wrappers = {}
        patches = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:  # a layer the package no longer has reads as 0
                continue
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for meth in METHODS:
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            wrapped = self._wrap(layer, f"{layer}.{name}.{meth}", fn)
                            patches.append((obj, meth, fn, wrapped))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((mod, attr, value, wrappers[value]))
        return patches

    def _wrap(self, layer: str, qualname: str, fn):
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(qualname)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[0]
                self.incl_s[qualname] += dt
                self.calls[qualname] += 1
                if stack:
                    stack[-1][0] += dt

        return span

    def calls_matching(self, suffix: str) -> int:
        """Calls of every wrapped function whose name ends with suffix."""
        return sum(n for name, n in self.calls.items() if name.endswith(suffix))


def _count_rows(counter: str):
    def hook(tracer: Tracer, fn, args, kwargs):
        table = fn(*args, **kwargs)
        tracer.counts[counter] += len(table)
        return table

    return hook


def _count_evaluator_calls(tracer: Tracer, fn, args, kwargs):
    # bandwidth() refines through the table's evaluator; count its calls.
    table = args[0] if args else kwargs.get("spectrum")
    evaluator = getattr(table, "evaluator", None)
    if evaluator is None:
        return fn(*args, **kwargs)

    def counted(w):
        tracer.counts["criteria.evaluator_calls"] += 1
        return evaluator(w)

    try:
        table.evaluator = counted
    except AttributeError:  # frozen table: leave it uncounted
        return fn(*args, **kwargs)
    try:
        return fn(*args, **kwargs)
    finally:
        table.evaluator = evaluator


def _count_samples(tracer: Tracer, fn, args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    tracer.counts["oracle.mc_samples"] += getattr(cfg, "sample_count", 0)
    return fn(*args, **kwargs)


_HOOKS = {
    "criteria.fidelity_spectrum": _count_rows("criteria.rows"),
    "swap.swap_spectrum": _count_rows("swap.rows"),
    "criteria.bandwidth": _count_evaluator_calls,
    "oracle.mc_check": _count_samples,
}

"""Per-layer tracing of nearsym from outside the package.

``Tracer.install()`` wraps each layer's public functions and rebinds every
reference to them in every loaded ``nearsym`` module namespace (including
aliases such as ``cli.apply_transformation`` and calls a module makes to its
own functions), so calls between layers pass through the wrappers.  Each
wrapper counts calls and accumulates total and self time in memory; self
time is a call's duration minus the time spent in wrapped calls it made.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

# Layer module -> the public functions traced in it.
LAYERS = {
    "pcset": ("prime_form", "set_class"),
    "symmetry": ("symmetric_partition",),
    "chord": ("parse_chord", "find_chord", "parent_symmetric_cell", "perturb"),
    "voiceleading": ("vl_relation", "ssd_neighbors"),
    "transform": ("apply", "apply_sequence", "transformation", "transformation_between"),
    "region": ("arthropod_regions", "bridge_regions", "region_of", "polar",
               "enumerate_smooth_cycles", "export_graph", "region_to_dict"),
    "verify": ("run_checks",),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
CACHED = ("transform.apply", "voiceleading.vl_relation")
COUNTERS = ("region.cycles_emitted", "verify.checks", "verify.failed", "cli.exit_nonzero")


# Work counters read off a traced function's result.
RESULT_COUNTS = {
    "region.enumerate_smooth_cycles": lambda r: {"region.cycles_emitted": len(r)},
    "verify.run_checks": lambda r: {"verify.checks": len(r),
                                    "verify.failed": sum(1 for c in r if not c.passed)},
    "cli.main": lambda r: {"cli.exit_nonzero": int(r != 0)},
}


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_ns, self_ns]
        self.functions = {name: [0, 0, 0] for name in FUNCTIONS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []  # child time of each active traced call
        self._originals: dict[str, object] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.functions[name]
        stack = self._stack
        counters = self.counters
        result_counts = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if result_counts is not None:
                for key, value in result_counts(result).items():
                    counters[key] += value
            return result

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self) -> None:
        wrappers = {}
        for mod, fns in LAYERS.items():
            module = importlib.import_module(f"nearsym.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(module, fn)
                self._originals[name] = original
                wrappers[id(original)] = self._wrap(name, original)
        for modname, module in list(sys.modules.items()):
            if modname != "nearsym" and not modname.startswith("nearsym."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def snapshot(self) -> dict:
        """Counts and times so far, with [hits, misses] of each cached layer
        function since import."""
        cache = {}
        for name in CACHED:
            info = self._originals[name].cache_info()
            cache[name] = [info.hits, info.misses]
        return {
            "functions": {k: list(v) for k, v in self.functions.items()},
            "counters": dict(self.counters),
            "cache": cache,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum snapshots taken in separate processes."""
    total = {
        "functions": {name: [0, 0, 0] for name in FUNCTIONS},
        "counters": dict.fromkeys(COUNTERS, 0),
        "cache": {name: [0, 0] for name in CACHED},
    }
    for snap in snapshots:
        for name, values in snap["functions"].items():
            total["functions"][name] = [a + b for a, b in zip(total["functions"][name], values)]
        for key, value in snap["counters"].items():
            total["counters"][key] += value
        for name, values in snap["cache"].items():
            total["cache"][name] = [a + b for a, b in zip(total["cache"][name], values)]
    return total

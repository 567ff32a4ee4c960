"""Per-layer spans of an in-process freycheck run, recorded from outside.

``Tracer.install`` wraps a fixed list of public functions and rebinds
every attribute of the loaded ``freycheck.*`` modules that holds the
original object, because callers import by name (``search.exact_root``,
``tate.factorize``, ``cli.denes_scan``).  Nothing under ``src/`` changes.
Spans live in flat arrays until the run ends.  The traced calls run
with ``--workers 1``, so no span is lost in a forked child.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

#: Wrapped functions, "module.function" under freycheck.  weierstrass is
#: left out: it only runs inside tate and traces calls, whose self time
#: includes it.
TARGETS = (
    "cli.main",
    "denes.denes_criterion",
    "denes.bernoulli_mod_p",
    "arith.mult_order",
    "arith.primes_up_to",
    "arith.factorize",
    "arith.exact_root",
    "tate.local_data_with_model",
    "frey.invariants",
    "traces.trace_table",
    "traces.count_points",
    "search.search_star",
    "search.search_ap_powers",
)


def _aux(target: str) -> Optional[Callable[[tuple, object], int]]:
    """The per-span number a layer metric needs, taken from args or result."""
    if target == "arith.exact_root":
        return lambda args, result: result is not None
    if target == "tate.local_data_with_model":
        return lambda args, result: result[0].scalings
    if target == "traces.count_points":
        return lambda args, result: args[1]
    return None


class Tracer:
    """Spans of one traced pass; make a new Tracer for each pass."""

    def __init__(self) -> None:
        self._restore: List[tuple] = []
        self.name = array("b")
        self.parent = array("q")
        self.invocation = array("l")
        self.start = array("q")
        self.end = array("q")
        self.aux = array("q")
        self._stack: List[int] = [-1]
        self.current_invocation = 0

    def _wrap(self, name_id: int, fn: Callable, aux: Optional[Callable]) -> Callable:
        clock = time.perf_counter_ns
        names, parents, invocations = self.name, self.parent, self.invocation
        starts, ends, auxes, stack = self.start, self.end, self.aux, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            invocations.append(self.current_invocation)
            ends.append(0)
            auxes.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if aux is not None:
                auxes[span] = aux(args, result)
            return result

        return wrapper

    def install(self) -> None:
        import freycheck.cli  # noqa: F401  (loads every module)

        modules = [m for n, m in sys.modules.items() if n == "freycheck" or n.startswith("freycheck.")]
        for name_id, target in enumerate(TARGETS):
            module_name, attr = target.split(".")
            original = getattr(sys.modules["freycheck." + module_name], attr)
            wrapper = self._wrap(name_id, original, _aux(target))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in self._restore:
            setattr(module, key, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """All spans as CSV: invocation, span id, parent id (-1 at the top),
        layer name, start and end in ns of perf_counter."""
        with open(path, "w") as out:
            out.write("invocation,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.name)):
                out.write("%d,%d,%d,%s,%d,%d\n" % (
                    self.invocation[i], i, self.parent[i], TARGETS[self.name[i]],
                    self.start[i], self.end[i]))

    def layer_metrics(self) -> Dict[str, float]:
        """Calls, self time and the layer counters over the recorded spans.

        Self time is span time minus the time its child spans cover.
        """
        n = len(self.name)
        duration = array("q", (self.end[i] - self.start[i] for i in range(n)))
        child = array("q", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        calls = [0] * len(TARGETS)
        self_ns = [0] * len(TARGETS)
        aux_sum = [0] * len(TARGETS)
        roots = {t: [0, 0] for t in ("search.search_star", "search.search_ap_powers")}
        exact_root = TARGETS.index("arith.exact_root")
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_ns[k] += duration[i] - child[i]
            aux_sum[k] += self.aux[i]
            if k == exact_root and self.parent[i] >= 0:
                under = roots.get(TARGETS[self.name[self.parent[i]]])
                if under is not None:
                    under[0] += 1
                    under[1] += self.aux[i]
        out: Dict[str, float] = {}
        for k, target in enumerate(TARGETS):
            out[target + ".calls"] = calls[k]
            out[target + ".self_s"] = self_ns[k] / 1e9
        ell_sum = aux_sum[TARGETS.index("traces.count_points")]
        out["traces.count_points.ns_per_ell"] = (
            self_ns[TARGETS.index("traces.count_points")] / ell_sum if ell_sum else 0.0)
        out["tate.scalings"] = aux_sum[TARGETS.index("tate.local_data_with_model")]
        for target, (tried, hits) in roots.items():
            out[target + ".root_hit_ratio"] = hits / tried if tried else 0.0
        out["trace.spans"] = n
        return out


def mean_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.fmean(s[key] for s in samples) for key in samples[0]}

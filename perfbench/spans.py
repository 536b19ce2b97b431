"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

Each layer is one public function of the simulator.  ``install`` rebinds
it — on its class, or in every loaded ``repro.*`` module that holds the
same function object — to a wrapper that records a span (name, start,
end, parent) and the layer's work counters.  Spans stay in memory until
``Tracer.summary`` reduces them.  A layer's self time is its span's
duration minus the time its direct child spans cover, so the self times
of all spans under the operation's root span, plus the root's own self
time (the unattributed remainder), add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional


def _makespan_tasks(args, kwargs, result) -> Dict[str, int]:
    engine = args[0]
    m = args[1] if len(args) > 1 else kwargs["m"]
    return {"tasks": 2 * engine.plan.pp * engine.plan.vpp * m}


def _search_counts(args, kwargs, result) -> Dict[str, int]:
    stats = result.stats
    return {
        "feasible": stats.feasible,
        "engine_evals": stats.evaluated,
        "priced": stats.priced,
    }


def _ring_pairs(args, kwargs, result) -> Dict[str, int]:
    ranks = args[1] if len(args) > 1 else kwargs["ranks"]
    return {"pairs": len(ranks)}


def _flows(args, kwargs, result) -> Dict[str, int]:
    flows = args[0] if args else kwargs["flows"]
    return {"flows": len(flows)}


# (layer name, module, class or None, attribute, work counter or None)
LAYERS = (
    ("network.fabric_build", "repro.network.topology", "ClosFabric", "__init__",
     lambda a, k, r: {"links": len(a[0].links)}),
    ("training.engine_init", "repro.training.iteration", "IterationEngine", "__init__", None),
    ("collectives.build_comm_model", "repro.collectives.groups", None, "build_comm_model", None),
    ("training.pipeline_makespan", "repro.training.iteration", "IterationEngine",
     "pipeline_makespan", _makespan_tasks),
    ("training.analytic_bounds", "repro.training.iteration", "IterationEngine",
     "analytic_bounds", None),
    ("training.simulate", "repro.training.iteration", "IterationEngine", "simulate", None),
    ("parallel.search_plans", "repro.parallel.search", None, "search_plans", _search_counts),
    ("collectives.ring_bandwidth", "repro.collectives.groups", "GroupCommModel",
     "ring_bandwidth", _ring_pairs),
    ("collectives.fabric_cost", "repro.collectives.fabric", None, "fabric_collective_cost", None),
    ("network.flow_solve", "repro.network.flow", None, "max_min_fair_rates", _flows),
    ("fault.sample", "repro.fault.faults", "FaultInjector", "sample",
     lambda a, k, r: {"events": len(r)}),
    ("fault.resolve_incident", "repro.fault.driver", "ProductionRun", "resolve_incident", None),
    ("fault.production_run", "repro.fault.driver", "ProductionRun", "run", None),
    ("scheduler.run", "repro.scheduler.scheduler", "ClusterScheduler", "run",
     lambda a, k, r: {"decisions": len(r.decisions)}),
    ("exec.run_tasks", "repro.exec.executor", None, "run_tasks", None),
    ("calibration.predict_anchor", "repro.calibration.fit", None, "predict_anchor", None),
)

ROOT = "op"


class Tracer:
    """Records nested spans; one instance per operation process."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, counters or None].
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack and name != ROOT:  # outside the operation: untimed checks
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every layer function to a span-recording wrapper.

        Modules loaded before this call are searched for copies of each
        function; modules loaded later import the wrapper itself.
        """
        for name, module_name, cls_name, attr, counter in LAYERS:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr], counter))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, counter)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)

    def run_root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the operation's root span."""
        return self.wrap(ROOT, fn, None)()

    def summary(self) -> Dict[str, Any]:
        """Per-layer calls, self time and counters, plus the root's split."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers: Dict[str, Dict[str, float]] = {}
        root = None
        for index, (name, start, end, parent, counts) in enumerate(self.spans):
            self_s = (end - start) - covered[index]
            if name == ROOT and parent < 0:
                root = {"traced_s": end - start, "unattributed_s": self_s}
                continue
            layer = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            layer["calls"] += 1
            layer["self_s"] += self_s
            for key, value in (counts or {}).items():
                layer[key] = layer.get(key, 0) + value
        if root is None:
            raise RuntimeError("no root span recorded")
        attributed = sum(layer["self_s"] for layer in layers.values())
        root["attributed_s"] = attributed
        return {"root": root, "layers": layers}

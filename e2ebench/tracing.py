"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry point of each layer (a method on a
class, or a module-level function rebound in every ``repro`` module that
imported it) with a span recorder.  Spans -- (layer, start, end, parent,
pass id) -- are kept in flat in-memory arrays and written out once, when
the pass ends.  A layer's self time is its spans' duration minus the part
covered by their child spans; the run is single-threaded, so children
nest strictly inside their parents and self time is a plain subtraction.

Nothing under ``src/`` is edited: the wrappers are installed at run time
in the pass process only, and that process exits after one pass.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Layer names, in span-table order.  ``traffic.build`` is the
#: ``ScenarioBuilder.build`` self time; it is folded into
#: ``traffic.generate_s`` with the profile ``generate`` self time.
LAYERS = (
    "sim.engine",
    "eval.throughput.load_gen",
    "traffic.generate",
    "traffic.build",
    "products.deploy_train",
    "ids.loadbalancer",
    "ids.sensor",
    "ids.analyzer",
    "ids.monitor",
    "ids.signature",
    "ids.anomaly",
    "net.trace.decode",
    "eval.ground_truth.score",
    "core.scoring",
    "report.render",
)


def _entry_points() -> List[Tuple[str, object, str]]:
    """(layer, owner, attribute) of every wrapped entry point.

    ``owner`` is a class (the method is wrapped on it) or a module (the
    function is rebound wherever ``repro`` imported it).
    """
    from repro.core import report as core_report
    from repro.eval import ground_truth, runner, testbed, throughput
    from repro.ids.analyzer import Analyzer
    from repro.ids.anomaly import AnomalyEngine
    from repro.ids.loadbalancer import LoadBalancer
    from repro.ids.monitor import Monitor
    from repro.ids.sensor import Sensor
    from repro.ids.signature import SignatureEngine
    from repro.net.trace import Trace
    from repro.report import tables
    from repro.sim.engine import Engine
    from repro.traffic.mixer import ScenarioBuilder
    from repro.traffic.profiles import ClusterProfile, EcommerceProfile

    return [
        ("sim.engine", Engine, "run"),
        ("eval.throughput.load_gen", throughput, "make_load_trace"),
        ("traffic.generate", ClusterProfile, "generate"),
        ("traffic.generate", EcommerceProfile, "generate"),
        ("traffic.build", ScenarioBuilder, "build"),
        ("products.deploy_train", testbed.EvalTestbed, "__init__"),
        ("ids.loadbalancer", LoadBalancer, "ingest"),
        ("ids.sensor", Sensor, "ingest"),
        ("ids.analyzer", Analyzer, "receive"),
        ("ids.monitor", Monitor, "receive"),
        ("ids.signature", SignatureEngine, "inspect"),
        ("ids.anomaly", AnomalyEngine, "inspect"),
        ("net.trace.decode", Trace, "load"),
        ("eval.ground_truth.score", ground_truth, "score_alerts"),
        ("core.scoring", runner, "finish_field"),
        ("report.render", tables, "scorecard_table"),
        ("report.render", core_report, "format_weighted_results"),
    ]


class Tracer:
    """Span recorder for one pass; call :meth:`install` before the pass."""

    def __init__(self, pass_id: int = 0) -> None:
        self.pass_id = pass_id
        self._layer = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack: List[int] = [-1]
        self.engine_events = 0
        self.traffic_packets = 0
        self.load_gen_packets = 0

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        lid = LAYERS.index(layer)
        layers, starts, ends, parents = (self._layer, self._start,
                                         self._end, self._parent)
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, idx, args, kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _observer(self, layer: str):
        """Work counts taken at the same boundary as the span."""
        if layer == "sim.engine":
            def observe(fn, idx, args, kwargs):
                engine = args[0]
                before = engine.events_executed
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.engine_events += engine.events_executed - before
            return observe
        if layer == "eval.throughput.load_gen":
            def observe(fn, idx, args, kwargs):
                trace = fn(*args, **kwargs)
                self.load_gen_packets += len(trace)
                return trace
            return observe
        if layer in ("traffic.generate", "traffic.build"):
            build_id = LAYERS.index("traffic.build")

            def observe(fn, idx, args, kwargs):
                out = fn(*args, **kwargs)
                parent = self._parent[idx]
                # background traffic generated inside a scenario build is
                # counted once, as part of the built scenario trace
                if parent < 0 or self._layer[parent] != build_id:
                    trace = out.trace if layer == "traffic.build" else out
                    self.traffic_packets += len(trace)
                return out
            return observe
        return None

    def install(self) -> None:
        """Wrap every entry point of :func:`_entry_points`, once per
        process (each pass runs in a fresh interpreter)."""
        for layer, owner, name in _entry_points():
            if isinstance(owner, type):
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    setattr(owner, name,
                            classmethod(self._wrap(layer, raw.__func__)))
                else:
                    setattr(owner, name, self._wrap(layer, raw))
                continue
            original = getattr(owner, name)
            traced = self._wrap(layer, original)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, name, None) is original):
                    setattr(module, name, traced)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Layer -> (self seconds, calls)."""
        n = len(self._start)
        if n == 0:
            return {layer: (0.0, 0) for layer in LAYERS}
        layer = np.frombuffer(self._layer, dtype=np.uint16)
        dur = (np.frombuffer(self._end, dtype=np.float64)
               - np.frombuffer(self._start, dtype=np.float64))
        parent = np.frombuffer(self._parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=n)
        own = dur - covered
        seconds = np.bincount(layer, weights=own, minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        return {name: (float(seconds[i]), int(calls[i]))
                for i, name in enumerate(LAYERS)}

    def save(self, path: str) -> None:
        """Write every span of the pass as one ``.npz`` table."""
        n = len(self._start)
        np.savez(path,
                 layer_names=np.array(LAYERS),
                 layer=np.frombuffer(self._layer, dtype=np.uint16),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64),
                 parent=np.frombuffer(self._parent, dtype=np.int64),
                 pass_id=np.full(n, self.pass_id, dtype=np.int32))

"""Deterministic fault injection for the Figure-1 pipeline.

The paper's Architectural/Performance metrics (dynamic adaptability,
induced latency, capacity, timeliness) presume an IDS that keeps working
while parts of it fail or saturate.  This module supplies the *fault
side* of that contract: a declarative, seedable :class:`FaultPlan`
(component crash/recover at scheduled times, link loss and latency
spikes, sensor overload, analyzer stall/backpressure, manager partition)
and a :class:`FaultInjector` that applies a plan to any deployment
through ordinary engine-scheduled events.

Design rules:

* **Deterministic.**  Fault times are fractions of the scenario duration
  resolved against the engine clock at :meth:`FaultInjector.arm` time;
  the only randomness (link loss sampling) comes from a generator seeded
  by the plan, so two runs of the same (plan, seed, scenario) are
  identical.
* **Dormant when empty.**  An empty plan schedules nothing, arms no
  degradation hook, and leaves the packet path untouched -- a no-fault
  run through the injector is byte-identical to a run without it.
* **Duck-typed.**  The injector only relies on the degradation hooks
  (``force_fail``/``force_restore``, ``set_slowdown``, ``stall``/
  ``resume``, ``partition``/``heal``) and the ``Deployment`` attribute
  shape (``sensors``/``analyzers``/``monitor``/``pipeline``), so it
  works with every product -- including host-agent-only deployments,
  where faults against absent components are skipped *with accounting*
  rather than failing the run.

Availability bookkeeping is analytic: every resolved fault contributes a
weighted downtime window per component (full weight for crash/stall/
partition, the lost service fraction ``1 - 1/slowdown`` for overload,
the loss fraction for link loss, zero for pure added latency), clipped to
the scenario span.  A component's downtime is the weighted measure of the
*union* of its windows -- where windows overlap, only the heaviest counts
-- and availability is ``1 - sum(downtime) / (components * duration)``.
This makes availability exactly reproducible, always in ``[0, 1]``,
monotone in fault severity, and unmoved by a repeated fault.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .engine import Engine

__all__ = [
    "FaultKind",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "named_plan",
    "plan_names",
]


class FaultKind(enum.Enum):
    """What goes wrong (section-2.2 components, failure-mode side)."""

    CRASH = "crash"                # component hard-down, later restored
    OVERLOAD = "overload"          # sensor slowdown (magnitude = factor)
    STALL = "stall"                # analyzer backpressure: queue, then drain
    PARTITION = "partition"        # monitor cut off from manager/operator
    LINK_LOSS = "link-loss"        # monitored link drops a packet fraction
    LINK_LATENCY = "link-latency"  # monitored link adds per-packet delay


#: target prefixes each kind may name
_ALLOWED_TARGETS: Dict[FaultKind, Tuple[str, ...]] = {
    FaultKind.CRASH: ("sensor", "analyzer", "balancer"),
    FaultKind.OVERLOAD: ("sensor",),
    FaultKind.STALL: ("analyzer",),
    FaultKind.PARTITION: ("monitor",),
    FaultKind.LINK_LOSS: ("link",),
    FaultKind.LINK_LATENCY: ("link",),
}


@dataclass(frozen=True)
class Fault:
    """One scheduled fault window.

    Parameters
    ----------
    kind:
        What goes wrong.
    target:
        ``"sensor:0"`` / ``"sensor:*"`` / ``"analyzer:1"`` /
        ``"analyzer:*"`` / ``"balancer"`` / ``"monitor"`` / ``"link"``.
    start_frac / duration_frac:
        Window expressed as fractions of the scenario duration, so one
        plan adapts to quick and full runs alike.
    magnitude:
        Kind-specific intensity: slowdown factor (>= 1) for OVERLOAD,
        drop fraction in [0, 1] for LINK_LOSS, added seconds for
        LINK_LATENCY; ignored for CRASH/STALL/PARTITION.
    """

    kind: FaultKind
    target: str
    start_frac: float
    duration_frac: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        prefix = self.target.split(":", 1)[0]
        if prefix not in _ALLOWED_TARGETS[self.kind]:
            raise ConfigurationError(
                f"{self.kind.value} fault cannot target {self.target!r}")
        if not 0.0 <= self.start_frac <= 1.0:
            raise ConfigurationError("start_frac must be in [0, 1]")
        if self.duration_frac < 0.0:
            raise ConfigurationError("duration_frac must be >= 0")
        if self.kind is FaultKind.OVERLOAD and self.magnitude < 1.0:
            raise ConfigurationError("overload magnitude is a slowdown "
                                     "factor and must be >= 1")
        if self.kind is FaultKind.LINK_LOSS and not 0.0 <= self.magnitude <= 1.0:
            raise ConfigurationError("link-loss magnitude is a drop "
                                     "fraction and must be in [0, 1]")
        if self.magnitude < 0.0:
            raise ConfigurationError("magnitude must be >= 0")

    # ------------------------------------------------------------------
    def scaled(self, severity: float) -> "Fault":
        """This fault at ``severity`` (0 = no fault, 1 = as declared).

        Durations scale linearly and clamp at the end of the scenario
        window; intensity magnitudes scale so that severity 0 is exactly
        a no-op and every contribution grows monotonically in severity.
        """
        if severity < 0.0:
            raise ConfigurationError("severity must be >= 0")
        end = min(self.start_frac + self.duration_frac * severity, 1.0)
        magnitude = self.magnitude
        if self.kind is FaultKind.OVERLOAD:
            magnitude = 1.0 + (self.magnitude - 1.0) * severity
        elif self.kind is FaultKind.LINK_LOSS:
            magnitude = min(self.magnitude * severity, 1.0)
        elif self.kind is FaultKind.LINK_LATENCY:
            magnitude = self.magnitude * severity
        return replace(self, duration_frac=end - self.start_frac,
                       magnitude=magnitude)

    def downtime_weight(self) -> float:
        """Service-loss fraction while this fault is active."""
        if self.kind in (FaultKind.CRASH, FaultKind.STALL,
                         FaultKind.PARTITION):
            return 1.0
        if self.kind is FaultKind.OVERLOAD:
            return 1.0 - 1.0 / max(self.magnitude, 1.0)
        if self.kind is FaultKind.LINK_LOSS:
            return min(self.magnitude, 1.0)
        return 0.0  # LINK_LATENCY: degraded, but still delivering

    def token(self) -> Tuple:
        """Stable, hashable identity (cache-key participation)."""
        return (self.kind.value, self.target, float(self.start_frac),
                float(self.duration_frac), float(self.magnitude))


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered set of fault windows plus the loss-sampling seed."""

    name: str
    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def scaled(self, severity: float) -> "FaultPlan":
        """The same plan with every fault scaled to ``severity``."""
        if severity == 1.0:
            return self
        return replace(self, faults=tuple(f.scaled(severity)
                                          for f in self.faults))

    def token(self) -> Tuple:
        """Stable identity of the plan's *content* (cache-key input)."""
        return (self.name, self.seed,
                tuple(f.token() for f in self.faults))


# ----------------------------------------------------------------------
# the named-plan registry (CLI ``--faults`` vocabulary)
# ----------------------------------------------------------------------
def _reference_faults() -> Tuple[Fault, ...]:
    # The reference crash/recover plan.  Composed so every product --
    # including host-agent-only deployments with no network sensors --
    # loses some component time: the analyzer-crash and monitor-partition
    # windows apply to all four products.
    return (
        Fault(FaultKind.CRASH, "sensor:0", 0.25, 0.30),
        Fault(FaultKind.CRASH, "analyzer:0", 0.35, 0.15),
        Fault(FaultKind.PARTITION, "monitor", 0.45, 0.20),
    )


_PLANS: Dict[str, Callable[[], Tuple[Fault, ...]]] = {
    "none": tuple,
    "crash-recover": _reference_faults,
    "sensor-overload": lambda: (
        Fault(FaultKind.OVERLOAD, "sensor:*", 0.20, 0.50, magnitude=6.0),),
    "analyzer-stall": lambda: (
        Fault(FaultKind.STALL, "analyzer:*", 0.25, 0.35),),
    "manager-partition": lambda: (
        Fault(FaultKind.PARTITION, "monitor", 0.30, 0.40),),
    "link-degraded": lambda: (
        Fault(FaultKind.LINK_LOSS, "link", 0.20, 0.30, magnitude=0.30),
        Fault(FaultKind.LINK_LATENCY, "link", 0.55, 0.25, magnitude=0.02),),
    "cascade": lambda: (
        Fault(FaultKind.LINK_LOSS, "link", 0.15, 0.20, magnitude=0.15),
        Fault(FaultKind.CRASH, "sensor:*", 0.30, 0.25),
        Fault(FaultKind.STALL, "analyzer:*", 0.35, 0.25),
        Fault(FaultKind.PARTITION, "monitor", 0.50, 0.25),
        Fault(FaultKind.CRASH, "balancer", 0.60, 0.10),),
}


def plan_names() -> Tuple[str, ...]:
    """Names accepted by :func:`named_plan` (and CLI ``--faults``)."""
    return tuple(_PLANS)


def named_plan(name: str, seed: int = 0) -> FaultPlan:
    """Instantiate one of the canned fault plans."""
    try:
        faults = _PLANS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown fault plan {name!r}; known plans: "
            f"{', '.join(plan_names())}") from None
    return FaultPlan(name=name, faults=faults, seed=seed)


# ----------------------------------------------------------------------
# the injector
# ----------------------------------------------------------------------
def _union_downtime(windows: List[Tuple[float, float, float]]) -> float:
    """Weighted measure of the union of ``(start, length, weight)``
    windows, charging the heaviest weight wherever windows overlap."""
    # identical windows are dropped first, so a repeated fault reproduces
    # the single fault's figure exactly rather than to within rounding
    live = [w for w in dict.fromkeys(windows) if w[1] > 0.0 and w[2] > 0.0]
    if len(live) == 1:
        # a lone window is charged as declared, not via its end point
        _, length, weight = live[0]
        return weight * length
    edges = sorted({t for start, length, _ in live
                    for t in (start, start + length)})
    return sum(
        (hi - lo) * max((w for start, length, w in live
                         if start <= lo and hi <= start + length),
                        default=0.0)
        for lo, hi in zip(edges, edges[1:]))


class FaultInjector:
    """Apply a :class:`FaultPlan` to a deployment over one scenario.

    Construct one injector per run, call :meth:`arm` once at (or before)
    scenario start, and route scenario traffic through :meth:`ingest`
    instead of ``deployment.ingest`` so the link faults can act on it.
    """

    def __init__(self, engine: Engine, deployment, plan: FaultPlan,
                 duration_s: float) -> None:
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        self.engine = engine
        self.deployment = deployment
        self.plan = plan
        self.duration_s = float(duration_s)
        self._rng = np.random.default_rng(plan.seed)
        self._armed = False

        # accounting
        self.applied: List[Tuple[Fault, str]] = []   # (fault, component)
        self.skipped: List[Tuple[Fault, str]] = []   # (fault, reason)
        self.packets_lost = 0
        self.packets_delayed = 0
        #: component label -> ``(start, length, weight)`` downtime windows,
        #: relative to the armed start and clipped to the scenario span
        self._windows: Dict[str, List[Tuple[float, float, float]]] = {}

        # live link state (driven by scheduled events)
        self._loss_frac = 0.0
        self._latency_s = 0.0

    # ------------------------------------------------------------------
    # deployment shape (duck-typed)
    # ------------------------------------------------------------------
    @property
    def _sensors(self) -> list:
        return list(getattr(self.deployment, "sensors", []) or [])

    @property
    def _analyzers(self) -> list:
        return list(getattr(self.deployment, "analyzers", []) or [])

    @property
    def _balancer(self):
        return getattr(getattr(self.deployment, "pipeline", None),
                       "balancer", None)

    @property
    def _monitor(self):
        return getattr(self.deployment, "monitor", None)

    def component_count(self) -> int:
        """Components whose uptime the availability figure averages over:
        every sensor and analyzer, the monitor, the balancer (if any) and
        the monitored link itself."""
        n = len(self._sensors) + len(self._analyzers) + 1  # link
        if self._monitor is not None:
            n += 1
        if self._balancer is not None:
            n += 1
        return n

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self, start_at: Optional[float] = None) -> None:
        """Resolve targets and schedule every fault window's events."""
        if self._armed:
            raise ConfigurationError("injector already armed")
        self._armed = True
        if self.plan.is_empty:
            return
        t0 = self.engine.now if start_at is None else float(start_at)
        balancer = self._balancer
        if balancer is not None:
            # graceful degradation: re-select around down sensors for the
            # whole faulted run (the hook stays dormant in clean runs)
            balancer.failover = True
        for fault in self.plan.faults:
            for label, on, off in self._resolve(fault):
                start = fault.start_frac * self.duration_s
                window = fault.duration_frac * self.duration_s
                if start + window > self.duration_s:
                    window = self.duration_s - start
                self.applied.append((fault, label))
                self._windows.setdefault(label, []).append(
                    (start, window, fault.downtime_weight()))
                if window > 0.0:
                    self.engine.schedule_at(t0 + start, on)
                    self.engine.schedule_at(t0 + start + window, off)

    def _resolve(self, fault: Fault):
        """Yield ``(component label, apply, revert)`` for one fault."""
        prefix, _, index = fault.target.partition(":")
        if prefix in ("sensor", "analyzer"):
            pool = self._sensors if prefix == "sensor" else self._analyzers
            if not pool:
                self.skipped.append((fault, f"no {prefix}s in deployment"))
                return
            if index == "*":
                members = list(enumerate(pool))
            else:
                i = int(index)
                if i >= len(pool):
                    self.skipped.append(
                        (fault, f"{prefix}:{i} absent "
                                f"({len(pool)} present)"))
                    return
                members = [(i, pool[i])]
            for i, comp in members:
                yield (f"{prefix}:{i}",
                       *self._component_hooks(fault, comp))
            return
        if prefix == "balancer":
            balancer = self._balancer
            if balancer is None:
                self.skipped.append((fault, "no balancer in deployment"))
                return
            yield "balancer", *self._component_hooks(fault, balancer)
            return
        if prefix == "monitor":
            monitor = self._monitor
            if monitor is None:
                self.skipped.append((fault, "no monitor in deployment"))
                return
            yield "monitor", monitor.partition, monitor.heal
            return
        # the monitored link: handled by this injector's ingest wrapper
        if fault.kind is FaultKind.LINK_LOSS:
            frac = min(fault.magnitude, 1.0)
            yield ("link", lambda: self._shift_loss(frac),
                   lambda: self._shift_loss(-frac))
        else:
            delay = fault.magnitude
            yield ("link", lambda: self._shift_latency(delay),
                   lambda: self._shift_latency(-delay))

    def _component_hooks(self, fault: Fault, comp):
        """(apply, revert) callbacks for a sensor/analyzer/balancer."""
        if fault.kind is FaultKind.OVERLOAD:
            factor = max(fault.magnitude, 1.0)
            return (lambda: comp.set_slowdown(factor), comp.clear_slowdown)
        if fault.kind is FaultKind.STALL:
            # analyzer backpressure: queue detections, drain on resume
            return comp.stall, comp.resume
        balancer = self._balancer
        if (balancer is not None and comp in self._sensors
                and comp is not balancer):
            def restore(sensor=comp):
                sensor.force_restore()
                # recovery re-registration: the balancer learns the sensor
                # is back and may route to it again
                balancer.notify_recovered(sensor)
            return comp.force_fail, restore
        return comp.force_fail, comp.force_restore

    def _shift_loss(self, delta: float) -> None:
        self._loss_frac = min(max(self._loss_frac + delta, 0.0), 1.0)

    def _shift_latency(self, delta: float) -> None:
        self._latency_s = max(self._latency_s + delta, 0.0)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def ingest(self, pkt) -> None:
        """Offer one scenario packet, subject to the link faults."""
        if self._loss_frac > 0.0 and self._rng.random() < self._loss_frac:
            self.packets_lost += 1
            return
        if self._latency_s > 0.0:
            self.packets_delayed += 1
            self.engine.schedule(self._latency_s, self.deployment.ingest,
                                 pkt)
            return
        self.deployment.ingest(pkt)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def availability(self) -> float:
        """Time-and-component-averaged service availability in [0, 1]."""
        if not self._armed:
            raise ConfigurationError("arm() the injector before reading "
                                     "availability")
        total = self.component_count() * self.duration_s
        down = sum(min(_union_downtime(windows), self.duration_s)
                   for windows in self._windows.values())
        return 1.0 - down / total

    def degradation_counters(self) -> Dict[str, int]:
        """Graceful-degradation accounting gathered from the hooks."""
        counters: Dict[str, int] = {
            "faults_applied": len(self.applied),
            "faults_skipped": len(self.skipped),
            "link_packets_lost": self.packets_lost,
            "link_packets_delayed": self.packets_delayed,
        }
        sensors = self._sensors
        counters["sensor_injected_failures"] = sum(
            s.injected_failures for s in sensors)
        counters["sensor_dropped_down"] = sum(s.dropped_down for s in sensors)
        analyzers = self._analyzers
        counters["analyzer_dropped_down"] = sum(
            a.dropped_down for a in analyzers)
        counters["analyzer_stalled"] = sum(
            a.stalled_detections for a in analyzers)
        counters["analyzer_shed"] = sum(a.shed_detections for a in analyzers)
        balancer = self._balancer
        if balancer is not None:
            counters["balancer_failovers"] = balancer.failovers
            counters["balancer_dropped_down"] = balancer.dropped_down
            counters["balancer_shed_no_sensor"] = balancer.shed_no_sensor
            counters["balancer_recoveries"] = balancer.recoveries
        monitor = self._monitor
        if monitor is not None:
            counters["monitor_deferred_notifications"] = \
                monitor.deferred_notifications
            counters["monitor_suppressed_responses"] = \
                monitor.suppressed_responses
        return counters

"""Throughput experiments: system throughput, zero-loss point, lethal dose.

Table 3's load metrics, measured the way the paper's lesson 1 demands --
with *realistic* packet content, not random flood data:

* **System Throughput** -- the maximal sustained processing rate
  (packets/s actually inspected at saturation).
* **Maximal Throughput with Zero Loss** -- the highest offered rate with
  no sensor/balancer drops over the probe window.
* **Network Lethal Dose** -- the offered rate at which the product
  malfunctions (a sensor crashes).

Offered load is generated by :func:`make_load_trace`, whose
``payload_mode`` knob ("http" realistic / "random" / "logical") also drives
the lesson-1 bench (E3).  A trace's random draws are made in one
exact-stream batch (:func:`~repro.traffic.payload.payload_batch` over
:func:`~repro.traffic.generators.bounded_draws`): the same values, and the
same generator end state, as drawing packet by packet, because the batch
replays numpy's Lemire bounded draw on the same 32-bit stream.  A
differential test pins that exactness against the per-packet reference in
``tests/oracles/load.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from ..net.address import IPv4Address
from ..net.packet import Packet, Protocol
from ..net.trace import Trace
from ..products.base import Product
from ..traffic import payload as pl
from .corpus import corpus_trace
from .testbed import EvalTestbed

__all__ = [
    "make_load_trace",
    "LoadProbe",
    "ThroughputReport",
    "probe_rate",
    "report_from_probes",
    "measure_throughput",
    "bisect_zero_loss",
]


def make_load_trace(
    rng: np.random.Generator,
    rate_pps: float,
    duration_s: float,
    dst: IPv4Address,
    payload_mode: str = "http",
    payload_size: int = 400,
    src_pool: int = 64,
) -> Trace:
    """Benign load traffic at a fixed rate with selectable content realism.

    Every mode carries exactly ``payload_size`` bytes, so that content
    *realism*, not packet size, is the experimental variable.  Sources are
    drawn from the first ``src_pool`` hosts of 198.51.100.0/24.
    """
    if rate_pps <= 0 or duration_s <= 0:
        raise MeasurementError("rate_pps and duration_s must be positive")
    if payload_mode not in pl.PAYLOAD_MODES:
        raise MeasurementError(f"unknown payload_mode {payload_mode!r}")
    if payload_size < 0:
        raise MeasurementError("payload_size must be non-negative")
    if not 1 <= src_pool <= 254:
        raise MeasurementError("src_pool must lie in [1, 254]")
    n = int(rate_pps * duration_s)
    times = np.sort(rng.uniform(0, duration_s, size=n))
    payloads, cols = pl.payload_batch(rng, payload_mode, payload_size, n,
                                      tail=(src_pool, 65535 - 1024))
    blen = payload_size if payload_mode == "logical" else None
    base = IPv4Address("198.51.100.0").value + 1
    srcs = [IPv4Address(base + i) for i in range(src_pool)]
    trace = Trace(f"load-{payload_mode}")
    for t, body, (src, sport) in zip(times.tolist(), payloads,
                                     cols.tolist()):
        trace.append(t, Packet(
            src=srcs[src], dst=dst, sport=1024 + sport, dport=80,
            proto=Protocol.TCP, payload=body, payload_len=blen))
    return trace


@dataclass(frozen=True)
class LoadProbe:
    """Outcome of offering one rate for one window."""

    offered_pps: float
    offered_packets: int
    processed_packets: int
    dropped_packets: int
    crashed: bool

    @property
    def loss_ratio(self) -> float:
        if self.offered_packets == 0:
            return 0.0
        return self.dropped_packets / self.offered_packets

    @property
    def processed_pps(self) -> float:
        return self.processed_packets / max(
            self.offered_packets / self.offered_pps, 1e-9)


@dataclass
class ThroughputReport:
    """The three Table-3 load metrics for one product."""

    product: str
    payload_mode: str
    probes: List[LoadProbe]
    zero_loss_pps: float          # highest probed rate with zero loss
    lethal_dose_pps: Optional[float]  # lowest probed rate causing a crash
    system_throughput_pps: float  # max processed rate across probes


def probe_rate(
    product: Product,
    rate_pps: float,
    duration_s: float = 1.0,
    payload_mode: str = "http",
    seed: int = 0,
    n_hosts: int = 4,
) -> LoadProbe:
    """Offer one load level to a *fresh* deployment of the product."""
    testbed = EvalTestbed(product, n_hosts=n_hosts, seed=seed,
                          train_duration_s=0.0)
    dep = testbed.deployment
    dst = testbed.node_addresses[0]
    token = (rate_pps, duration_s, payload_mode, seed, dst.value)
    trace = corpus_trace(
        "load", token,
        lambda: make_load_trace(np.random.default_rng(seed + int(rate_pps)),
                                rate_pps, duration_s, dst=dst,
                                payload_mode=payload_mode))
    trace.replay(testbed.engine, dep.ingest)
    testbed.engine.run(until=duration_s + 1.0)
    return LoadProbe(
        offered_pps=rate_pps,
        offered_packets=len(trace),
        processed_packets=dep.packets_processed,
        dropped_packets=dep.packets_dropped,
        crashed=dep.crash_count > 0,
    )


def measure_throughput(
    product_factory: Callable[[], Product],
    product_name: str,
    rates_pps: Sequence[float] = (500, 1000, 2000, 4000, 8000, 16000,
                                  32000, 64000),
    duration_s: float = 1.0,
    payload_mode: str = "http",
    seed: int = 0,
) -> ThroughputReport:
    """Sweep offered rates and derive the three load metrics.

    Each probe deploys a fresh product instance so that crashes and session
    state never leak across rates.
    """
    if not rates_pps:
        raise MeasurementError("need at least one probe rate")
    probes: List[LoadProbe] = []
    for rate in sorted(rates_pps):
        probes.append(probe_rate(product_factory(), float(rate),
                                 duration_s=duration_s,
                                 payload_mode=payload_mode, seed=seed))
    return report_from_probes(product_name, payload_mode, probes)


def report_from_probes(
    product_name: str,
    payload_mode: str,
    probes: Sequence[LoadProbe],
) -> ThroughputReport:
    """Derive the three Table-3 load metrics from completed probes.

    ``probes`` must be ordered by ascending offered rate; each probe is an
    independent work unit, so the sweep can be sharded across processes and
    the report reassembled deterministically here.
    """
    if not probes:
        raise MeasurementError("need at least one probe")
    probes = sorted(probes, key=lambda p: p.offered_pps)
    zero_loss = 0.0
    for probe in probes:
        if probe.dropped_packets == 0 and not probe.crashed:
            zero_loss = probe.offered_pps
        else:
            break
    lethal: Optional[float] = None
    for probe in probes:
        if probe.crashed:
            lethal = probe.offered_pps
            break
    system = max(p.processed_pps for p in probes)
    return ThroughputReport(
        product=product_name, payload_mode=payload_mode, probes=list(probes),
        zero_loss_pps=zero_loss, lethal_dose_pps=lethal,
        system_throughput_pps=system)


def bisect_zero_loss(
    product_factory: Callable[[], Product],
    lo_pps: float = 500.0,
    hi_pps: float = 64_000.0,
    rel_tol: float = 0.1,
    duration_s: float = 0.5,
    payload_mode: str = "http",
    seed: int = 0,
) -> float:
    """Refine the Maximal-Throughput-with-Zero-Loss point by bisection.

    The coarse rate sweep of :func:`measure_throughput` brackets the
    zero-loss point within a factor of two; this narrows it to ``rel_tol``
    relative precision.  ``lo_pps`` must be loss-free and ``hi_pps`` lossy
    (both are verified; a loss-free ``hi_pps`` short-circuits to it).

    Returns the highest probed loss-free rate.
    """
    if not 0 < lo_pps < hi_pps:
        raise MeasurementError("need 0 < lo_pps < hi_pps")
    if rel_tol <= 0:
        raise MeasurementError("rel_tol must be positive")

    def lossy(rate: float) -> bool:
        probe = probe_rate(product_factory(), rate, duration_s=duration_s,
                           payload_mode=payload_mode, seed=seed)
        return probe.dropped_packets > 0 or probe.crashed

    if lossy(lo_pps):
        raise MeasurementError(
            f"lower bracket {lo_pps} pps already loses packets")
    if not lossy(hi_pps):
        return hi_pps
    lo, hi = lo_pps, hi_pps
    while (hi - lo) / lo > rel_tol:
        mid = (lo + hi) / 2.0
        if lossy(mid):
            hi = mid
        else:
            lo = mid
    return lo

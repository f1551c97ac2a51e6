"""The three benchmark workloads and the correctness digest of their units.

Every workload evaluates the four products under the ``realtime``
requirement profile, serially in one process (``workers=1``, no result
cache), through the public runner API.  A pass is split into *units* --
the runner's own work units (one accuracy scenario, one load probe) plus,
for ``evaluate-quick``, the final scoring-and-rendering step -- and every
unit yields a SHA-256 digest of the simulated statistics it produced.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

WORKLOADS = ("evaluate-quick", "accuracy-e1", "throughput-e1-warm")

#: ``--seed n`` runs the program with seed ``n % REFERENCE_SEEDS``: the
#: reference digests cover exactly these program seeds.
REFERENCE_SEEDS = 16

#: E1 load-probe ladder (``benchmarks/conftest.py``).
E1_RATES = (500, 1000, 2000, 4000, 8000, 16000, 32000, 64000)


def program_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def factories():
    from repro.products import (AafidProduct, ManhuntProduct, NidProduct,
                                RealSecureProduct)
    return (NidProduct, RealSecureProduct, ManhuntProduct, AafidProduct)


def quick_options(seed: int):
    """The options ``python -m repro evaluate --quick`` builds."""
    from repro.eval.runner import EvaluationOptions
    return EvaluationOptions(
        seed=seed, n_hosts=4, scenario_duration_s=40.0,
        train_duration_s=15.0, throughput_rates_pps=(500, 4000, 32000),
        throughput_probe_s=0.4)


def e1_options(seed: int):
    """The E1 configuration (6 hosts, 70 s scenario with the flood)."""
    from repro.eval.runner import EvaluationOptions
    return EvaluationOptions(
        seed=seed, n_hosts=6, scenario_duration_s=70.0,
        train_duration_s=30.0, include_dos=True, flood_rate_pps=1500.0,
        throughput_rates_pps=E1_RATES, throughput_probe_s=1.0)


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def deployment_counters(testbed) -> Dict[str, object]:
    """Balancer and sensor counters of one deployment after its run."""
    dep = testbed.deployment
    counters: Dict[str, object] = {
        "ingested": dep.ingested,
        "sensors": [[s.received, s.processed, s.dropped_overload,
                     s.dropped_down, s.crashes] for s in dep.sensors],
    }
    balancer = dep.pipeline.balancer if dep.pipeline is not None else None
    if balancer is not None:
        counters["balancer"] = [balancer.received, balancer.forwarded,
                                balancer.dropped, balancer.dropped_down,
                                balancer.shed_no_sensor]
    return counters


def scenario_statistics(m) -> Dict[str, object]:
    """Accuracy counts and delays of one ``measure_scenario`` result."""
    acc = m.accuracy
    return {
        "product": acc.product,
        "transactions": acc.transactions,
        "actual": sorted(acc.actual),
        "detected": sorted(acc.detected),
        "missed": sorted(acc.missed),
        "false_alarms": acc.false_alarms,
        "alerts_total": acc.alerts_total,
        "detection_delay": sorted(acc.detection_delay.items()),
        "notification_delay": sorted(acc.notification_delay.items()),
    }


def probe_statistics(p) -> Dict[str, object]:
    """Offered/processed/dropped packets and crash of one load probe."""
    return {"offered_pps": p.offered_pps, "offered": p.offered_packets,
            "processed": p.processed_packets, "dropped": p.dropped_packets,
            "crashed": p.crashed}


def render_digest(text: str) -> str:
    """Digest of rendered output: the SHA-256 of its bytes, so it equals
    the digest of ``python -m repro evaluate --quick`` stdout."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# unit recording
# ----------------------------------------------------------------------
@dataclass
class UnitRecord:
    name: str
    seconds: float
    digest: Optional[str]
    error: Optional[str] = None


@dataclass
class Recorder:
    """Times units, digests their results and logs the testbeds they
    built (through a wrapper on ``EvalTestbed.__init__``)."""

    units: List[UnitRecord] = field(default_factory=list)
    first_unit_at: Optional[float] = None
    packets_offered: int = 0
    lb_received: int = 0
    lb_forwarded: int = 0
    sensor_received: int = 0
    sensor_processed: int = 0
    _testbeds: list = field(default_factory=list)

    def install(self) -> None:
        from repro.eval.testbed import EvalTestbed

        original = EvalTestbed.__init__
        created = self._testbeds

        @functools.wraps(original)
        def __init__(testbed, *args, **kwargs):
            original(testbed, *args, **kwargs)
            created.append(testbed)

        EvalTestbed.__init__ = __init__

    def unit(self, name: str, run: Callable[[], object],
             statistics: Optional[Callable[[object], object]] = None,
             digest: Optional[Callable[[object], str]] = None):
        """Run one unit; returns its result, or None when it raised."""
        if self.first_unit_at is None:
            self.first_unit_at = time.monotonic()
        self._testbeds.clear()
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception:  # a unit that raises is a failed unit
            seconds = time.perf_counter() - t0
            error = traceback.format_exc()
            print(f"unit {name} raised:\n{error}", file=sys.stderr)
            self.units.append(UnitRecord(name, seconds, None, error))
            self._testbeds.clear()
            return None
        seconds = time.perf_counter() - t0
        counters = [deployment_counters(tb) for tb in self._testbeds]
        self._count(counters)
        self._testbeds.clear()
        if digest is not None:
            value = digest(result)
        else:
            value = _sha({"statistics": statistics(result),
                          "counters": counters})
        self.units.append(UnitRecord(name, seconds, value))
        return result

    def _count(self, counters) -> None:
        for c in counters:
            self.packets_offered += c["ingested"]
            for s in c["sensors"]:
                self.sensor_received += s[0]
                self.sensor_processed += s[1]
            if "balancer" in c:
                self.lb_received += c["balancer"][0]
                self.lb_forwarded += c["balancer"][1]


# ----------------------------------------------------------------------
# the passes
# ----------------------------------------------------------------------
def render_field(field_eval, profile: str = "realtime") -> str:
    """What ``python -m repro evaluate`` prints for a finished field."""
    from repro.core import report as core_report
    from repro.report import tables

    lines = [tables.scorecard_table(field_eval.scorecard), "",
             core_report.format_weighted_results(field_eval.results),
             f"\nranking ({profile}): {' > '.join(field_eval.ranking())}"]
    return "\n".join(lines) + "\n"


def _product_units(rec: Recorder, factory, opts, rates):
    from repro.eval import runner

    name = factory().name
    scenario = rec.unit(f"{name}/scenario",
                        lambda: runner.measure_scenario(factory, opts),
                        scenario_statistics)
    probes = [rec.unit(f"{name}/rate-{int(rate)}",
                       lambda r=rate: runner.measure_rate(factory, float(r),
                                                          opts),
                       probe_statistics)
              for rate in sorted(rates)]
    return scenario, probes


def evaluate_quick(rec: Recorder, seed: int) -> None:
    """``python -m repro evaluate --quick --seed <seed>``, serial."""
    from repro.core.profiles import realtime_cluster_requirements
    from repro.eval import runner

    opts = quick_options(seed)
    evaluations = {}
    complete = True
    for factory in factories():
        scenario, probes = _product_units(rec, factory, opts,
                                          opts.throughput_rates_pps)
        if scenario is None or any(p is None for p in probes):
            complete = False
            continue
        evaluation = runner.assemble_evaluation(scenario, probes, opts)
        evaluations[evaluation.name] = evaluation
    if not complete:
        rec.units.append(UnitRecord("finish", 0.0, None,
                                    "skipped: an earlier unit failed"))
        return
    rec.unit("finish",
             lambda: render_field(runner.finish_field(
                 evaluations, realtime_cluster_requirements())),
             digest=render_digest)


def accuracy_e1(rec: Recorder, seed: int) -> None:
    """``measure_scenario`` for the four products at E1 size, cold."""
    from repro.eval import runner

    opts = e1_options(seed)
    for factory in factories():
        name = factory().name
        rec.unit(f"{name}/scenario",
                 lambda f=factory: runner.measure_scenario(f, opts),
                 scenario_statistics)


def throughput_e1(rec: Recorder, seed: int) -> None:
    """``measure_rate`` over the E1 ladder for the four products; the
    caller decides whether a trace corpus is active."""
    from repro.eval import runner

    opts = e1_options(seed)
    for factory in factories():
        name = factory().name
        for rate in E1_RATES:
            rec.unit(f"{name}/rate-{rate}",
                     lambda f=factory, r=rate: runner.measure_rate(
                         f, float(r), opts),
                     probe_statistics)


def fill_corpus(seed: int) -> None:
    """Store every E1 load trace in the active corpus: one product's
    probes generate the whole ladder (the traces do not depend on the
    product)."""
    from repro.eval import runner
    from repro.products import NidProduct

    opts = e1_options(seed)
    for rate in E1_RATES:
        runner.measure_rate(NidProduct, float(rate), opts)

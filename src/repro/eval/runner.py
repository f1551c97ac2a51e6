"""The full evaluation: every product through the whole measurement battery.

This is the reproduction of the paper's prototype evaluation (section 3.2):
each product is deployed on the testbed, measured (accuracy scenario,
throughput sweep, latency, timeliness, host overhead), scored on the full
metric catalog (analysis + open-source methods), and finally ranked under a
requirement profile's weights (Figures 5-6).

The battery is decomposed into *work units* -- top-level, picklable
functions over picklable inputs and results:

* :func:`measure_scenario` -- one (product, seed) accuracy scenario plus
  every measurement derived from that same run (latency, timeliness, host
  overhead, storage), summarized as a :class:`ScenarioMeasurement`;
* :func:`measure_rate` -- one (product, seed, offered-rate) load probe of
  the throughput sweep.

:func:`assemble_evaluation` merges completed units back into a
:class:`ProductEvaluation`.  The serial path below runs the units in-line;
``repro.eval.parallel`` fans the same units out across a process pool and
memoizes them on disk (``EvaluationOptions.workers`` / ``cache_dir``),
producing bit-identical results by construction.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from .dependability import DependabilityReport

from ..core.catalog import MetricCatalog, default_catalog
from ..core.requirements import RequirementSet
from ..core.scorecard import Scorecard
from ..core.scoring import WeightedResult, rank_products, weighted_scores
from ..core.weighting import derive_weights
from ..errors import ConfigurationError
from ..products.base import DeploymentSnapshot, Product
from ..sim.faults import plan_names
from ..traffic.payload import PAYLOAD_MODES
from .corpus import corpus_root, use_corpus
from .ground_truth import AccuracyResult
from .latency import (
    LatencyReport,
    TimelinessReport,
    measure_induced_latency,
    timeliness_from_accuracy,
)
from .observer import MeasurementBundle, fill_scorecard
from .overhead import OverheadReport, measure_host_overhead
from .testbed import PROFILES, EvalTestbed
from .throughput import (
    LoadProbe,
    ThroughputReport,
    probe_rate,
    report_from_probes,
)

__all__ = ["EvaluationOptions", "ScenarioMeasurement", "ProductEvaluation",
           "FieldEvaluation", "measure_scenario", "measure_rate",
           "assemble_evaluation", "evaluate_product", "evaluate_field"]

ProductFactory = Callable[[], Product]


@dataclass
class EvaluationOptions:
    """Knobs for the evaluation battery (defaults reproduce E1; tests use
    smaller settings).

    ``workers`` and ``cache_dir`` control *how* the battery executes, never
    *what* it measures: any worker count produces bit-identical results,
    and both knobs are excluded from the result-cache key.
    """

    seed: int = 0
    n_hosts: int = 6
    scenario_duration_s: float = 70.0
    train_duration_s: float = 30.0
    include_dos: bool = True
    flood_rate_pps: float = 1500.0
    throughput_rates_pps: Sequence[float] = (500, 1000, 2000, 4000, 8000,
                                             16000, 32000)
    throughput_probe_s: float = 1.0
    payload_mode: str = "http"
    profile: str = "cluster"
    #: named fault plan for the dependability experiment ("none" skips it
    #: entirely and keeps the battery byte-identical to a plain run)
    faults: str = "none"
    #: severity ladder for the degradation fit (each rung is one extra
    #: scenario replay on a fresh deployment)
    fault_severities: Sequence[float] = (0.5, 1.0)
    #: process-pool width; 1 = serial in-process, 0 = one per CPU
    workers: int = 1
    #: on-disk result cache directory; None disables memoization and the
    #: shared trace corpus (``<cache_dir>/traces/``)
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # fail before the first unit runs, not in the first load probe
        if self.payload_mode not in PAYLOAD_MODES:
            raise ConfigurationError(
                f"unknown payload_mode {self.payload_mode!r}")
        if self.profile not in PROFILES:
            raise ConfigurationError(f"unknown profile {self.profile!r}")
        if self.faults not in plan_names():
            raise ConfigurationError(f"unknown fault plan {self.faults!r}")
        if self.throughput_probe_s <= 0:
            raise ConfigurationError("throughput_probe_s must be positive")
        if not self.throughput_rates_pps or any(
                r <= 0 for r in self.throughput_rates_pps):
            raise ConfigurationError(
                "throughput_rates_pps must be non-empty and positive")


@dataclass
class ScenarioMeasurement:
    """Everything one accuracy-scenario run yields, in picklable form.

    This is the result of the ``scenario`` work unit: the accuracy scoring
    plus every measurement that derives from the same deployment (latency,
    timeliness, host overhead, storage, response/filter activity via the
    deployment snapshot).
    """

    name: str
    accuracy: AccuracyResult
    latency: LatencyReport
    timeliness: TimelinessReport
    overhead: OverheadReport
    snapshot: DeploymentSnapshot
    storage_bytes_per_mb: float
    attack_sources: FrozenSet[int]
    scenario_duration_s: float
    #: clean-vs-faulted comparison; populated only when the options name a
    #: fault plan (``faults != "none"``)
    dependability: Optional["DependabilityReport"] = None


@dataclass
class ProductEvaluation:
    """All raw measurements for one product."""

    name: str
    accuracy: AccuracyResult
    throughput: ThroughputReport
    bundle: MeasurementBundle


@dataclass
class FieldEvaluation:
    """The complete evaluation outcome across the product field."""

    scorecard: Scorecard
    weights: Dict[str, float]
    results: List[WeightedResult]
    evaluations: Dict[str, ProductEvaluation]
    requirement_profile: str

    def ranking(self) -> List[str]:
        return [r.product for r in rank_products(self.results)]


# ----------------------------------------------------------------------
# work units (top-level and picklable by design)
# ----------------------------------------------------------------------
def measure_scenario(
    factory: ProductFactory,
    options: Optional[EvaluationOptions] = None,
) -> ScenarioMeasurement:
    """Run the accuracy scenario and every same-run measurement."""
    opts = options or EvaluationOptions()
    with _unit_corpus(opts):
        return _measure_scenario(factory, opts)


def _unit_corpus(opts: EvaluationOptions):
    """The trace corpus context for one work unit.

    Activated only when the harness cache is on; without a ``cache_dir``
    this is a no-op context so an *ambient* corpus (e.g. one a benchmark
    installed around the whole battery) stays in effect.
    """
    if opts.cache_dir is None:
        return nullcontext()
    return use_corpus(corpus_root(opts.cache_dir))


def _measure_scenario(factory: ProductFactory,
                      opts: EvaluationOptions) -> ScenarioMeasurement:
    testbed = EvalTestbed(factory(), n_hosts=opts.n_hosts, seed=opts.seed,
                          train_duration_s=opts.train_duration_s,
                          profile=opts.profile)
    deployment = testbed.deployment
    scenario = testbed.make_scenario(
        duration_s=opts.scenario_duration_s,
        include_dos=opts.include_dos,
        flood_rate_pps=opts.flood_rate_pps)
    accuracy = testbed.run_scenario(scenario)

    traffic_mb = max(scenario.trace.total_bytes / 1e6, 1e-9)
    storage_bytes = sum(a.storage_bytes for a in deployment.analyzers)
    attack_sources = frozenset(
        pkt.src.value for _, pkt in scenario.trace if pkt.attack_id)
    timeliness = timeliness_from_accuracy(accuracy)
    latency = measure_induced_latency(deployment)
    overhead = measure_host_overhead(deployment, observe_s=5.0)

    dependability = None
    if opts.faults != "none":
        from ..sim.faults import named_plan
        from .dependability import measure_dependability

        dependability = measure_dependability(
            factory, opts, named_plan(opts.faults, seed=opts.seed),
            severities=opts.fault_severities, baseline=accuracy)

    return ScenarioMeasurement(
        name=deployment.name,
        accuracy=accuracy,
        latency=latency,
        timeliness=timeliness,
        overhead=overhead,
        snapshot=deployment.snapshot(),
        storage_bytes_per_mb=storage_bytes / traffic_mb,
        attack_sources=attack_sources,
        scenario_duration_s=scenario.duration_s,
        dependability=dependability,
    )


def measure_rate(
    factory: ProductFactory,
    rate_pps: float,
    options: Optional[EvaluationOptions] = None,
) -> LoadProbe:
    """Offer one load level to a fresh deployment (one throughput unit)."""
    opts = options or EvaluationOptions()
    with _unit_corpus(opts):
        return probe_rate(factory(), float(rate_pps),
                          duration_s=opts.throughput_probe_s,
                          payload_mode=opts.payload_mode, seed=opts.seed)


def assemble_evaluation(
    scenario: ScenarioMeasurement,
    probes: Sequence[LoadProbe],
    options: Optional[EvaluationOptions] = None,
) -> ProductEvaluation:
    """Merge completed work units into one :class:`ProductEvaluation`."""
    opts = options or EvaluationOptions()
    throughput = report_from_probes(scenario.name, opts.payload_mode, probes)
    bundle = MeasurementBundle(
        accuracy=scenario.accuracy,
        throughput=throughput,
        latency=scenario.latency,
        timeliness=scenario.timeliness,
        overhead=scenario.overhead,
        deployment=scenario.snapshot,
        storage_bytes_per_mb=scenario.storage_bytes_per_mb,
        attack_sources=set(scenario.attack_sources),
        scenario_duration_s=scenario.scenario_duration_s,
        dependability=scenario.dependability,
    )
    return ProductEvaluation(name=scenario.name, accuracy=scenario.accuracy,
                             throughput=throughput, bundle=bundle)


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------
def evaluate_product(
    factory: ProductFactory,
    options: Optional[EvaluationOptions] = None,
) -> ProductEvaluation:
    """Run the full measurement battery against one product."""
    opts = options or EvaluationOptions()
    if opts.workers != 1 or opts.cache_dir is not None:
        from .parallel import evaluate_product_parallel

        return evaluate_product_parallel(factory, opts)
    scenario = measure_scenario(factory, opts)
    probes = [measure_rate(factory, float(rate), opts)
              for rate in sorted(opts.throughput_rates_pps)]
    return assemble_evaluation(scenario, probes, opts)


def finish_field(
    evaluations: Dict[str, ProductEvaluation],
    requirements: RequirementSet,
    catalog: Optional[MetricCatalog] = None,
) -> FieldEvaluation:
    """Score, weight, and rank completed product evaluations.

    Products are scored in the order of ``evaluations`` (the factory input
    order), so serial and parallel execution render identical scorecards.
    """
    catalog = catalog or default_catalog()
    scorecard = Scorecard(catalog)
    for evaluation in evaluations.values():
        fill_scorecard(scorecard, evaluation.bundle.deployment.facts,
                       evaluation.bundle)
    weights = derive_weights(requirements, catalog)
    results = weighted_scores(scorecard, weights, strict=False)
    return FieldEvaluation(
        scorecard=scorecard, weights=weights, results=results,
        evaluations=evaluations, requirement_profile=requirements.name)


def evaluate_field(
    factories: Sequence[ProductFactory],
    requirements: RequirementSet,
    options: Optional[EvaluationOptions] = None,
    catalog: Optional[MetricCatalog] = None,
) -> FieldEvaluation:
    """Evaluate every product and rank them under a requirement profile."""
    opts = options or EvaluationOptions()
    if opts.workers != 1 or opts.cache_dir is not None:
        from .parallel import evaluate_field_parallel

        return evaluate_field_parallel(factories, requirements, opts, catalog)
    evaluations: Dict[str, ProductEvaluation] = {}
    for factory in factories:
        evaluation = evaluate_product(factory, opts)
        evaluations[evaluation.name] = evaluation
    return finish_field(evaluations, requirements, catalog)

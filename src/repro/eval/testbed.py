"""Evaluation testbed assembly: topology + scenario + deployed product.

One :class:`EvalTestbed` per (product, scenario) run: it builds the
Figure-1 network, deploys the product, optionally trains anomaly baselines
on a benign warmup generated from the same site profile ("the best way to
evaluate any IDS is to use real traffic ... from the site where the IDS is
expected to be deployed", section 4), then replays the labeled scenario.
"""

from __future__ import annotations

from typing import List, Optional

from ..attacks.catalog import standard_attack_suite
from ..net.address import IPv4Address
from ..net.topology import LanTestbed
from ..products.base import Deployment, Product
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..traffic.mixer import Scenario, ScenarioBuilder
from ..traffic.profiles import ClusterProfile, EcommerceProfile
from .corpus import corpus_scenario, corpus_trace
from .ground_truth import AccuracyResult, score_alerts

__all__ = ["EvalTestbed", "cluster_scenario", "ecommerce_scenario",
           "EXTERNAL_ATTACKER", "PROFILES"]

#: the background-traffic site profiles :class:`EvalTestbed` can generate
PROFILES = ("cluster", "ecommerce")

EXTERNAL_ATTACKER = IPv4Address("198.18.0.1")


def cluster_scenario(
    node_addresses: List[IPv4Address],
    duration_s: float = 70.0,
    seed: int = 0,
    rate_scale: float = 1.0,
    include_dos: bool = True,
    flood_rate_pps: float = 1500.0,
) -> Scenario:
    """The canonical distributed-real-time-cluster scenario: cluster
    background traffic plus the standard labeled attack campaign."""

    def build() -> Scenario:
        builder = ScenarioBuilder("cluster-rt", duration_s=duration_s,
                                  seed=seed)
        builder.add_background(ClusterProfile(node_addresses,
                                              rate_scale=rate_scale))
        suite = standard_attack_suite(
            EXTERNAL_ATTACKER, node_addresses, include_dos=include_dos,
            flood_rate_pps=flood_rate_pps)
        # The canonical campaign is laid out over 70 s; compress the start
        # offsets proportionally for shorter scenarios.
        scale = min(duration_s / 70.0, 1.0)
        builder.add_attacks([(start * scale, attack)
                             for start, attack in suite])
        return builder.build()

    token = (tuple(a.value for a in node_addresses), duration_s, seed,
             rate_scale, include_dos, flood_rate_pps)
    return corpus_scenario("scenario-cluster", token, build)


def ecommerce_scenario(
    server: IPv4Address,
    lan_hosts: List[IPv4Address],
    duration_s: float = 70.0,
    seed: int = 0,
    rate_scale: float = 1.0,
    include_dos: bool = True,
) -> Scenario:
    """The e-commerce contrast scenario (web-shop background traffic)."""

    def build() -> Scenario:
        builder = ScenarioBuilder("ecommerce", duration_s=duration_s,
                                  seed=seed)
        builder.add_background(EcommerceProfile(server,
                                                rate_scale=rate_scale))
        suite = standard_attack_suite(EXTERNAL_ATTACKER, lan_hosts,
                                      include_dos=include_dos)
        scale = min(duration_s / 70.0, 1.0)
        builder.add_attacks([(start * scale, attack)
                             for start, attack in suite])
        return builder.build()

    token = (server.value, tuple(a.value for a in lan_hosts), duration_s,
             seed, rate_scale, include_dos)
    return corpus_scenario("scenario-ecommerce", token, build)


class EvalTestbed:
    """One product deployed against one scenario.

    Parameters
    ----------
    product:
        Product definition to deploy.
    n_hosts:
        Protected hosts on the LAN.
    train_duration_s:
        Benign warmup fed to trainable detectors before the run (0 skips
        training; signature-only products ignore it).
    profile:
        ``"cluster"`` or ``"ecommerce"``; selects background traffic for
        both warmup and scenario.
    """

    def __init__(
        self,
        product: Product,
        n_hosts: int = 6,
        seed: int = 0,
        train_duration_s: float = 30.0,
        profile: str = "cluster",
    ) -> None:
        self.engine = Engine()
        self.lan = LanTestbed(self.engine, n_hosts=n_hosts)
        self.product = product
        self.deployment: Deployment = product.deploy(self.engine, self.lan)
        self.seed = int(seed)
        self.profile = profile
        self._rng = RngRegistry(seed)
        self.node_addresses = [h.address for h in self.lan.hosts]

        if train_duration_s > 0:
            token = (self.profile,
                     tuple(a.value for a in self.node_addresses),
                     train_duration_s, self.seed, "warmup")
            warmup = corpus_trace(
                "warmup", token,
                lambda: self._background_trace(train_duration_s,
                                               self._rng.stream("warmup")))
            self.deployment.train_on(warmup)
        self.deployment.freeze()

    def _background_trace(self, duration_s, rng):
        if self.profile == "ecommerce":
            return EcommerceProfile(self.node_addresses[0]).generate(
                duration_s, rng)
        return ClusterProfile(self.node_addresses).generate(duration_s, rng)

    # ------------------------------------------------------------------
    def make_scenario(self, duration_s: float = 70.0,
                      include_dos: bool = True,
                      flood_rate_pps: float = 1500.0,
                      rate_scale: float = 1.0) -> Scenario:
        if self.profile == "ecommerce":
            return ecommerce_scenario(
                self.node_addresses[0], self.node_addresses,
                duration_s=duration_s, seed=self.seed,
                rate_scale=rate_scale, include_dos=include_dos)
        return cluster_scenario(
            self.node_addresses, duration_s=duration_s, seed=self.seed,
            rate_scale=rate_scale, include_dos=include_dos,
            flood_rate_pps=flood_rate_pps)

    def run_scenario(self, scenario: Scenario,
                     settle_s: float = 5.0,
                     sink: Optional[callable] = None) -> AccuracyResult:
        """Replay a scenario through the deployment and score the alerts.

        ``sink`` overrides the packet entry point (default: the
        deployment's own ``ingest``) -- a fault injector interposes its
        link-fault wrapper this way."""
        start = self.engine.now
        scenario.trace.replay(self.engine,
                              sink if sink is not None
                              else self.deployment.ingest,
                              start_at=start)
        self.engine.run(until=start + scenario.duration_s + settle_s)
        return score_alerts(
            self.deployment.name, scenario,
            self.deployment.monitor.alerts,
            self.deployment.monitor.notifications)

"""Tests for observation->score mapping and the full evaluation runner."""

import pytest

from repro.core.catalog import default_catalog
from repro.core.metric import MetricClass
from repro.core.profiles import (
    distributed_requirements,
    realtime_cluster_requirements,
)
from repro.core.scorecard import Scorecard
from repro.errors import ConfigurationError
from repro.eval.observer import fill_scorecard, score_open_source
from repro.eval.runner import (
    EvaluationOptions,
    evaluate_field,
    evaluate_product,
)
from repro.products import (
    AafidProduct,
    ManhuntProduct,
    NidProduct,
    RealSecureProduct,
)

QUICK = EvaluationOptions(
    scenario_duration_s=40.0,
    train_duration_s=15.0,
    n_hosts=4,
    throughput_rates_pps=(500, 4000, 32000),
    throughput_probe_s=0.4,
)


@pytest.fixture(scope="module")
def field():
    return evaluate_field(
        [NidProduct, RealSecureProduct, ManhuntProduct, AafidProduct],
        realtime_cluster_requirements(), QUICK)


class TestOpenSourceScoring:
    def test_scores_in_range_with_evidence(self):
        for product in (NidProduct(), AafidProduct()):
            scores = score_open_source(product.facts)
            assert len(scores) >= 20
            for metric, (score, evidence) in scores.items():
                assert 0 <= score <= 4, metric
                assert evidence

    def test_ordinal_facts_ordered(self):
        nid = score_open_source(NidProduct.facts)
        aafid = score_open_source(AafidProduct.facts)
        # commercial remote management beats research none
        assert nid["Distributed Management"][0] > aafid["Distributed Management"][0]
        # research cost beats commercial cost
        assert aafid["Three Year Cost of Ownership"][0] >= \
            nid["Three Year Cost of Ownership"][0]

    def test_detection_mechanism_mirror(self):
        mh = score_open_source(ManhuntProduct.facts)
        nid = score_open_source(NidProduct.facts)
        assert mh["Anomaly Based"][0] == 4 and mh["Signature Based"][0] == 0
        assert nid["Anomaly Based"][0] == 0 and nid["Signature Based"][0] == 4

    def test_scope_proportions(self):
        aafid = score_open_source(AafidProduct.facts)
        assert aafid["Host-based"][0] == 4
        assert aafid["Network-based"][0] == 0


class TestProductEvaluation:
    def test_single_product_bundle_complete(self):
        ev = evaluate_product(NidProduct, QUICK)
        assert ev.name == "sim-nid"
        assert ev.accuracy.transactions > 0
        assert ev.throughput.system_throughput_pps > 0
        assert ev.bundle.storage_bytes_per_mb >= 0
        assert ev.bundle.attack_sources

    def test_fill_scorecard_covers_catalog(self):
        ev = evaluate_product(NidProduct, QUICK)
        card = Scorecard(default_catalog())
        fill_scorecard(card, ev.bundle.deployment.facts, ev.bundle)
        missing = card.missing("sim-nid")
        assert missing == []  # every one of the 52 metrics scored


class TestFieldEvaluation:
    def test_all_products_scored_completely(self, field):
        assert len(field.scorecard.products) == 4
        for product in field.scorecard.products:
            assert field.scorecard.missing(product) == []
        for result in field.results:
            assert result.unscored_weighted == ()

    def test_realtime_ranking_shape(self, field):
        ranking = field.ranking()
        # the scalable, reactive, accurate product leads the RT profile;
        # the research host-agent prototype trails
        assert ranking[0] == "sim-manhunt"
        assert ranking[-1] == "sim-aafid"

    def test_class_scores_present(self, field):
        for result in field.results:
            for c in MetricClass:
                assert c in result.class_scores

    def test_expected_measured_contrasts(self, field):
        card = field.scorecard
        # anomaly product catches novel attacks: best FNR score
        fnr = {p: card.score(p, "Observed False Negative Ratio")
               for p in card.products}
        assert fnr["sim-manhunt"] == max(fnr.values())
        # but pays with false positives
        fpr = {p: card.score(p, "Observed False Positive Ratio")
               for p in card.products}
        assert fpr["sim-manhunt"] == min(fpr.values())
        # AAFID's C2 audit has the worst host impact
        impact = {p: card.score(p, "Operational Performance Impact")
                  for p in card.products}
        assert impact["sim-aafid"] == min(impact.values())
        # failure behaviour anchors: restart(4) > reboot(2)
        err = {p: card.score(p, "Error Reporting and Recovery")
               for p in card.products}
        assert err["sim-realsecure"] == 4
        assert err["sim-nid"] == 2

    def test_distributed_profile_shifts_weights(self, field):
        """Re-weight the same scorecard under the distributed profile --
        the paper's reusability claim -- and check FNR dominates."""
        from repro.core.scoring import weighted_scores
        from repro.core.weighting import derive_weights

        weights = derive_weights(distributed_requirements(),
                                 field.scorecard.catalog)
        results = weighted_scores(field.scorecard, weights, strict=False)
        assert len(results) == 4
        for result in results:
            assert result.unscored_weighted == ()
        # the weighting actually changed (different metrics emphasized)
        assert weights != field.weights
        totals = {r.product: r.total for r in results}
        rt_totals = {r.product: r.total for r in field.results}
        assert totals != rt_totals
        # the research prototype, blind to most of the attack corpus
        # (worst FNR), stays last under the FNR-dominated weighting
        from repro.core.scoring import rank_products
        assert rank_products(results)[-1].product == "sim-aafid"

    def test_raw_values_recorded_for_measured_metrics(self, field):
        entry = field.scorecard.get("sim-manhunt",
                                    "Observed False Negative Ratio")
        assert entry.raw_value is not None
        assert entry.evidence


class TestEvaluationOptions:
    """Bad options fail at construction, before any unit runs."""

    @pytest.mark.parametrize("bad", [
        {"payload_mode": "flood"},
        {"profile": "campus"},
        {"faults": "meltdown"},
        {"throughput_probe_s": 0.0},
        {"throughput_probe_s": -1.0},
        {"throughput_rates_pps": ()},
        {"throughput_rates_pps": (500, 0)},
        {"throughput_rates_pps": (-500,)},
    ])
    def test_rejected_at_construction(self, bad):
        with pytest.raises(ConfigurationError):
            EvaluationOptions(**bad)

    @pytest.mark.parametrize("good", [
        {"payload_mode": "random"},
        {"payload_mode": "logical"},
        {"profile": "ecommerce"},
        {"faults": "crash-recover"},
        {"throughput_rates_pps": [250.5]},
    ])
    def test_accepted(self, good):
        EvaluationOptions(**good)

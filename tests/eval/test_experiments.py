"""Tests for the measurement experiments (throughput, latency, overhead,
accuracy sweep) and the EER locator."""

import math

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.eval.accuracy import equal_error_rate, run_accuracy, sensitivity_sweep
from repro.eval.latency import measure_induced_latency, timeliness_from_accuracy
from repro.eval.overhead import logging_level_overhead, measure_host_overhead
from repro.eval.testbed import EvalTestbed
from repro.eval.throughput import make_load_trace, measure_throughput, probe_rate
from repro.ids.host import LoggingLevel
from repro.net.address import IPv4Address
from repro.products import AafidProduct, ManhuntProduct, NidProduct

DST = IPv4Address("10.0.0.1")


class TestLoadTrace:
    def test_rate_and_duration(self):
        rng = np.random.default_rng(1)
        trace = make_load_trace(rng, 1000.0, 2.0, DST, payload_mode="http")
        assert len(trace) == 2000
        assert trace.duration <= 2.0

    def test_payload_modes(self):
        rng = np.random.default_rng(1)
        http = make_load_trace(rng, 100, 0.5, DST, payload_mode="http")
        rnd = make_load_trace(rng, 100, 0.5, DST, payload_mode="random")
        logical = make_load_trace(rng, 100, 0.5, DST, payload_mode="logical")
        assert all(r.packet.payload.startswith((b"GET", b"POST", b"HEAD"))
                   for r in http)
        assert all(r.packet.payload is not None for r in rnd)
        assert all(r.packet.payload is None and r.packet.payload_len == 400
                   for r in logical)

    def test_benign_ground_truth(self):
        rng = np.random.default_rng(1)
        trace = make_load_trace(rng, 100, 0.5, DST)
        assert trace.attack_packet_count() == 0

    def test_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(MeasurementError):
            make_load_trace(rng, 0, 1.0, DST)
        with pytest.raises(MeasurementError):
            make_load_trace(rng, 10, 1.0, DST, payload_mode="weird")
        with pytest.raises(MeasurementError):
            make_load_trace(rng, 10, 1.0, DST, payload_size=-1)
        for pool in (0, -3, 255):
            with pytest.raises(MeasurementError):
                make_load_trace(rng, 10, 1.0, DST, src_pool=pool)

    def test_sources_stay_in_pool(self):
        rng = np.random.default_rng(1)
        trace = make_load_trace(rng, 2000, 1.0, DST, src_pool=254)
        sources = {r.packet.src.value for r in trace}
        base = IPv4Address("198.51.100.0").value
        assert sources <= set(range(base + 1, base + 255))
        assert len(sources) > 200


class TestThroughput:
    def test_low_rate_zero_loss(self):
        probe = probe_rate(NidProduct(), 200.0, duration_s=0.5)
        assert probe.dropped_packets == 0
        assert not probe.crashed
        assert probe.processed_packets == probe.offered_packets

    def test_overload_drops(self):
        probe = probe_rate(NidProduct(), 50_000.0, duration_s=0.5)
        assert probe.dropped_packets > 0
        assert 0 < probe.loss_ratio <= 1.0

    def test_report_shape(self):
        report = measure_throughput(
            lambda: NidProduct(), "sim-nid",
            rates_pps=(500, 4000, 32000), duration_s=0.4)
        assert report.zero_loss_pps >= 500
        assert report.system_throughput_pps > 0
        assert len(report.probes) == 3
        # probes are sorted by rate
        rates = [p.offered_pps for p in report.probes]
        assert rates == sorted(rates)

    def test_lethal_dose_observed_for_fragile_product(self):
        report = measure_throughput(
            lambda: NidProduct(), "sim-nid",
            rates_pps=(1000, 64000), duration_s=1.0)
        assert report.lethal_dose_pps == 64000

    def test_resilient_product_no_lethal_dose(self):
        report = measure_throughput(
            lambda: ManhuntProduct(), "sim-manhunt",
            rates_pps=(1000, 16000), duration_s=0.4)
        assert report.lethal_dose_pps is None

    def test_validation(self):
        with pytest.raises(MeasurementError):
            measure_throughput(lambda: NidProduct(), "x", rates_pps=())


class TestPayloadRealismEffect:
    """Lesson 1: random flood data under-loads a content-inspecting IDS."""

    def test_deep_sensor_realistic_payloads_cost_more(self):
        rate = 8000.0
        http = probe_rate(NidProduct(), rate, duration_s=0.5,
                          payload_mode="http", seed=3)
        rnd = probe_rate(NidProduct(), rate, duration_s=0.5,
                         payload_mode="random", seed=3)
        # protocol-parseable content takes the expensive parse path
        assert http.loss_ratio > rnd.loss_ratio

    def test_header_only_sensor_insensitive_to_content(self):
        # ManHunt's flow sensors barely touch payload: loss ratios match
        rate = 40000.0
        http = probe_rate(ManhuntProduct(), rate, duration_s=0.3,
                          payload_mode="http", seed=3)
        rnd = probe_rate(ManhuntProduct(), rate, duration_s=0.3,
                         payload_mode="random", seed=3)
        assert abs(http.loss_ratio - rnd.loss_ratio) < 0.05


class TestLatencyAndOverhead:
    def test_passive_product_zero_induced_latency(self):
        tb = EvalTestbed(NidProduct(), n_hosts=3, train_duration_s=0)
        report = measure_induced_latency(tb.deployment)
        assert report.induced_latency_s == pytest.approx(0.0, abs=1e-9)

    def test_inline_product_positive_latency(self):
        tb = EvalTestbed(ManhuntProduct(), n_hosts=3, train_duration_s=0)
        report = measure_induced_latency(tb.deployment)
        assert report.induced_latency_s == pytest.approx(200e-6, rel=0.1)

    def test_logging_level_overhead_bands(self):
        nominal = logging_level_overhead(LoggingLevel.NOMINAL, observe_s=5.0)
        c2 = logging_level_overhead(LoggingLevel.C2, observe_s=5.0)
        assert 0.03 <= nominal <= 0.05          # paper: 3-5 %
        assert c2 == pytest.approx(0.20, abs=0.01)  # paper: ~20 %

    def test_host_overhead_measured_on_deployment(self):
        tb = EvalTestbed(AafidProduct(), n_hosts=3, train_duration_s=0)
        report = measure_host_overhead(tb.deployment, observe_s=3.0)
        assert report.monitored_hosts == 3
        assert report.mean_host_cpu_fraction == pytest.approx(0.20, abs=0.02)
        assert report.percent == pytest.approx(20.0, abs=2.0)

    def test_no_agents_zero_overhead(self):
        tb = EvalTestbed(NidProduct(), n_hosts=3, train_duration_s=0)
        report = measure_host_overhead(tb.deployment, observe_s=1.0)
        assert report.mean_host_cpu_fraction == 0.0

    def test_timeliness_from_empty_accuracy(self):
        from repro.eval.ground_truth import AccuracyResult
        res = AccuracyResult(product="p", transactions=10, actual={"a"},
                             detected=set(), missed={"a"}, false_alarms=0,
                             alerts_total=0)
        report = timeliness_from_accuracy(res)
        assert math.isinf(report.mean_report_delay_s)
        assert report.attacks_reported == 0


class TestEqualErrorRate:
    def test_crossing_located(self):
        s = np.array([0.0, 0.5, 1.0])
        fpr = np.array([0.0, 0.1, 0.4])
        fnr = np.array([0.4, 0.1, 0.0])
        point = equal_error_rate(s, fpr, fnr)
        assert point is not None
        assert point[0] == pytest.approx(0.5)
        assert point[1] == pytest.approx(0.1)

    def test_interpolated_crossing(self):
        s = np.array([0.0, 1.0])
        fpr = np.array([0.0, 0.2])
        fnr = np.array([0.2, 0.0])
        point = equal_error_rate(s, fpr, fnr)
        assert point[0] == pytest.approx(0.5)
        assert point[1] == pytest.approx(0.1)

    def test_no_crossing(self):
        s = np.array([0.0, 1.0])
        assert equal_error_rate(s, np.array([0.0, 0.1]),
                                np.array([0.5, 0.3])) is None

    def test_single_point(self):
        assert equal_error_rate(np.array([0.5]), np.array([0.1]),
                                np.array([0.1])) is None

    def test_endpoint_equality(self):
        s = np.array([0.0, 1.0])
        point = equal_error_rate(s, np.array([0.0, 0.2]),
                                 np.array([0.5, 0.2]))
        assert point == (1.0, pytest.approx(0.2))


class TestAccuracyRuns:
    def test_run_accuracy_basic(self):
        res = run_accuracy(lambda s: NidProduct(sensitivity=s), 0.5,
                           duration_s=40.0, n_hosts=4, include_dos=False)
        assert res.transactions > 0
        assert res.detected  # signature IDS catches known attacks
        res.check_invariants()

    def test_sweep_monotone_shape(self):
        sweep = sensitivity_sweep(
            lambda s: ManhuntProduct(sensitivity=s), "mh",
            sensitivities=(0.1, 0.6, 1.0), duration_s=40.0, n_hosts=4)
        # FNR non-increasing, FPR non-decreasing across the sweep ends
        assert sweep.fnr[0] >= sweep.fnr[-1]
        assert sweep.fpr[-1] >= sweep.fpr[0]

    def test_sweep_validation(self):
        with pytest.raises(MeasurementError):
            sensitivity_sweep(lambda s: NidProduct(sensitivity=s), "x",
                              sensitivities=())


class TestBisectZeroLoss:
    def test_refines_between_brackets(self):
        from repro.eval.throughput import bisect_zero_loss, probe_rate

        rate = bisect_zero_loss(lambda: NidProduct(), lo_pps=500.0,
                                hi_pps=32_000.0, rel_tol=0.25,
                                duration_s=0.3)
        assert 500.0 <= rate < 32_000.0
        # the found rate is genuinely loss-free...
        probe = probe_rate(NidProduct(), rate, duration_s=0.3, seed=0)
        assert probe.dropped_packets == 0
        # ...and 1.5x beyond it is not
        beyond = probe_rate(NidProduct(), rate * 1.5, duration_s=0.3, seed=0)
        assert beyond.dropped_packets > 0

    def test_lossfree_upper_short_circuits(self):
        from repro.eval.throughput import bisect_zero_loss

        rate = bisect_zero_loss(lambda: ManhuntProduct(), lo_pps=500.0,
                                hi_pps=2_000.0, duration_s=0.3)
        assert rate == 2_000.0

    def test_bad_brackets(self):
        from repro.errors import MeasurementError
        from repro.eval.throughput import bisect_zero_loss

        with pytest.raises(MeasurementError):
            bisect_zero_loss(lambda: NidProduct(), lo_pps=0, hi_pps=100)
        with pytest.raises(MeasurementError):
            bisect_zero_loss(lambda: NidProduct(), lo_pps=64_000.0,
                             hi_pps=128_000.0, duration_s=0.3)

"""Tests for the fault-injection layer (plans, injector, hooks)."""

import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.ids.alert import Detection, Severity
from repro.ids.analyzer import Analyzer
from repro.ids.monitor import Monitor
from repro.net.address import IPv4Address
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.faults import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    named_plan,
    plan_names,
)


# ----------------------------------------------------------------------
# duck-typed fake deployment (hooks only; no simulation behaviour)
# ----------------------------------------------------------------------
class FakeComponent:
    def __init__(self):
        self.up = True
        self.calls = []
        # the degradation counters real components set in __init__
        # (FaultInjector.degradation_counters reads them directly)
        self.injected_failures = self.dropped_down = 0
        self.stalled_detections = self.shed_detections = 0
        self.failovers = self.recoveries = self.shed_no_sensor = 0
        self.deferred_notifications = self.suppressed_responses = 0

    def force_fail(self):
        self.up = False
        self.calls.append("fail")

    def force_restore(self):
        self.up = True
        self.calls.append("restore")

    def set_slowdown(self, factor):
        self.calls.append(("slow", factor))

    def clear_slowdown(self):
        self.calls.append("clear")

    def stall(self):
        self.calls.append("stall")

    def resume(self):
        self.calls.append("resume")

    def partition(self):
        self.calls.append("partition")

    def heal(self):
        self.calls.append("heal")

    def notify_recovered(self, sensor):
        self.calls.append(("recovered", sensor))


def fake_deployment(n_sensors=2, n_analyzers=1, monitor=True, balancer=True):
    bal = FakeComponent() if balancer else None
    if bal is not None:
        bal.failover = False
    return SimpleNamespace(
        sensors=[FakeComponent() for _ in range(n_sensors)],
        analyzers=[FakeComponent() for _ in range(n_analyzers)],
        monitor=FakeComponent() if monitor else None,
        pipeline=SimpleNamespace(balancer=bal) if bal is not None else None,
        ingest=lambda pkt: None,
    )


def pkt():
    return Packet(src=IPv4Address("198.18.0.1"),
                  dst=IPv4Address("10.0.0.5"), sport=1, dport=80)


# ----------------------------------------------------------------------
# plan construction and validation
# ----------------------------------------------------------------------
class TestFaultValidation:
    def test_kind_target_mismatch(self):
        with pytest.raises(ConfigurationError):
            Fault(FaultKind.OVERLOAD, "analyzer:0", 0.1, 0.1)
        with pytest.raises(ConfigurationError):
            Fault(FaultKind.PARTITION, "sensor:0", 0.1, 0.1)
        with pytest.raises(ConfigurationError):
            Fault(FaultKind.LINK_LOSS, "monitor", 0.1, 0.1)

    def test_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            Fault(FaultKind.CRASH, "sensor:0", 1.5, 0.1)
        with pytest.raises(ConfigurationError):
            Fault(FaultKind.CRASH, "sensor:0", 0.1, -0.1)

    def test_bad_magnitudes(self):
        with pytest.raises(ConfigurationError):
            Fault(FaultKind.OVERLOAD, "sensor:0", 0.1, 0.1, magnitude=0.5)
        with pytest.raises(ConfigurationError):
            Fault(FaultKind.LINK_LOSS, "link", 0.1, 0.1, magnitude=1.5)

    def test_unknown_plan(self):
        with pytest.raises(ConfigurationError):
            named_plan("no-such-plan")

    def test_registry(self):
        names = plan_names()
        assert "none" in names and "crash-recover" in names
        assert named_plan("none").is_empty
        for name in names:
            plan = named_plan(name, seed=7)
            assert plan.name == name and plan.seed == 7
            assert plan.token() == named_plan(name, seed=7).token()

    def test_scaled_severity_zero_is_noop(self):
        fault = Fault(FaultKind.OVERLOAD, "sensor:*", 0.2, 0.5,
                      magnitude=8.0)
        zero = fault.scaled(0.0)
        assert zero.duration_frac == 0.0
        assert zero.magnitude == 1.0
        assert zero.downtime_weight() == 0.0

    def test_scaled_clamps_at_scenario_end(self):
        fault = Fault(FaultKind.CRASH, "sensor:0", 0.8, 0.5)
        assert fault.scaled(1.0).duration_frac == pytest.approx(0.2)


# ----------------------------------------------------------------------
# the injector
# ----------------------------------------------------------------------
class TestInjector:
    def test_empty_plan_is_dormant(self):
        eng = Engine()
        dep = fake_deployment()
        inj = FaultInjector(eng, dep, named_plan("none"), duration_s=10.0)
        inj.arm()
        assert not inj.applied and not inj.skipped
        assert dep.pipeline.balancer.failover is False  # hook stays off
        assert inj.availability() == 1.0
        eng.run()
        assert eng.now == 0.0  # nothing was ever scheduled

    def test_crash_schedules_fail_and_restore(self):
        eng = Engine()
        dep = fake_deployment()
        plan = FaultPlan("t", (Fault(FaultKind.CRASH, "sensor:0", 0.2, 0.3),))
        inj = FaultInjector(eng, dep, plan, duration_s=10.0)
        inj.arm()
        assert dep.pipeline.balancer.failover is True
        eng.run()
        assert dep.sensors[0].calls == ["fail", "restore"]
        assert dep.sensors[1].calls == []
        # recovery re-registration reaches the balancer, not the sensor
        assert ("recovered", dep.sensors[0]) in dep.pipeline.balancer.calls

    def test_skip_accounting_for_absent_components(self):
        eng = Engine()
        dep = fake_deployment(n_sensors=0, balancer=False)
        plan = FaultPlan("t", (
            Fault(FaultKind.CRASH, "sensor:0", 0.1, 0.2),
            Fault(FaultKind.CRASH, "balancer", 0.1, 0.2),
            Fault(FaultKind.CRASH, "analyzer:5", 0.1, 0.2),
        ))
        inj = FaultInjector(eng, dep, plan, duration_s=10.0)
        inj.arm()
        assert len(inj.skipped) == 3
        assert not inj.applied
        assert inj.availability() == 1.0  # skipped faults add no downtime
        counters = inj.degradation_counters()
        assert counters["faults_skipped"] == 3

    def test_link_loss_is_seed_deterministic(self):
        def run(seed):
            eng = Engine()
            delivered = []
            dep = fake_deployment()
            dep.ingest = lambda p: delivered.append(p)
            plan = FaultPlan("t", (
                Fault(FaultKind.LINK_LOSS, "link", 0.0, 1.0,
                      magnitude=0.5),), seed=seed)
            inj = FaultInjector(eng, dep, plan, duration_s=10.0)
            inj.arm()
            eng.run(until=0.5)  # open the loss window, keep it open
            lost_pattern = []
            for _ in range(50):
                before = len(delivered)
                inj.ingest(pkt())
                lost_pattern.append(len(delivered) == before)
            return lost_pattern, inj.packets_lost

        a_pattern, a_lost = run(3)
        b_pattern, b_lost = run(3)
        c_pattern, _ = run(4)
        assert a_pattern == b_pattern and a_lost == b_lost
        assert a_lost > 0
        assert a_pattern != c_pattern  # a different seed samples differently

    def test_link_latency_delays_not_drops(self):
        eng = Engine()
        delivered = []
        dep = fake_deployment()
        dep.ingest = lambda p: delivered.append(eng.now)
        plan = FaultPlan("t", (
            Fault(FaultKind.LINK_LATENCY, "link", 0.0, 1.0,
                  magnitude=0.25),))
        inj = FaultInjector(eng, dep, plan, duration_s=10.0)
        inj.arm()
        eng.run(until=0.5)  # open the latency window, keep it open
        inj.ingest(pkt())
        eng.run()
        assert inj.packets_delayed == 1 and inj.packets_lost == 0
        assert delivered and delivered[0] >= 0.75

    def test_availability_reference_plan(self):
        eng = Engine()
        dep = fake_deployment()
        inj = FaultInjector(eng, dep, named_plan("crash-recover"),
                            duration_s=100.0)
        inj.arm()
        # components: 2 sensors + 1 analyzer + monitor + balancer + link = 6
        # downtime: sensor 30s + analyzer 15s + monitor 20s = 65s of 600s
        assert inj.availability() == pytest.approx(1.0 - 65.0 / 600.0)

    def test_window_past_scenario_end_is_clipped(self):
        eng = Engine()
        dep = fake_deployment()
        plan = FaultPlan("late", (Fault(FaultKind.STALL, "analyzer:0",
                                        0.9, 0.5),))
        inj = FaultInjector(eng, dep, plan, duration_s=50.0)
        inj.arm()
        # only the 5 s inside the scenario count, of 6 components x 50 s
        assert inj.availability() == 1.0 - 5.0 / 300.0
        eng.run()
        assert eng.now == pytest.approx(50.0)  # resumed at the end

    def test_overlapping_windows_charge_their_union(self):
        plan = FaultPlan("overlap", (
            Fault(FaultKind.OVERLOAD, "sensor:0", 0.1, 0.4, magnitude=2.0),
            Fault(FaultKind.CRASH, "sensor:0", 0.3, 0.4)))
        inj = FaultInjector(Engine(), fake_deployment(), plan,
                            duration_s=50.0)
        inj.arm()
        # half-weight overload alone for 10 s, then the crash for 20 s
        assert inj.availability() == pytest.approx(1.0 - 25.0 / 300.0)

    def test_double_arm_rejected(self):
        eng = Engine()
        inj = FaultInjector(eng, fake_deployment(), named_plan("none"),
                            duration_s=10.0)
        inj.arm()
        with pytest.raises(ConfigurationError):
            inj.arm()


# ----------------------------------------------------------------------
# real component hooks
# ----------------------------------------------------------------------
class TestDegradationCounters:
    def test_counters_read_from_a_deployed_product(self):
        from repro.net.topology import LanTestbed
        from repro.products import RealSecureProduct

        eng = Engine()
        dep = RealSecureProduct().deploy(eng, LanTestbed(eng, n_hosts=3))
        inj = FaultInjector(eng, dep, named_plan("none"), duration_s=10.0)
        counters = inj.degradation_counters()
        assert counters["sensor_dropped_down"] == 0
        assert counters["balancer_shed_no_sensor"] == 0
        # a missing (e.g. renamed) counter raises instead of reading 0
        del dep.sensors[0].dropped_down
        with pytest.raises(AttributeError):
            inj.degradation_counters()


class TestAnalyzerHooks:
    def _det(self, t, cat="portscan"):
        return Detection(time=t, sensor="s0", category=cat,
                         src=IPv4Address("198.18.0.1"),
                         dst=IPv4Address("10.0.0.5"),
                         severity=Severity.MEDIUM, score=1.0)

    def test_stall_queues_and_resume_drains(self):
        eng = Engine()
        alerts = []
        an = Analyzer(eng, "a0", analysis_delay_s=0.0)
        an.set_sink(alerts.append)
        an.stall()
        an.receive(self._det(1.0))
        assert alerts == [] and an.stalled_detections == 1
        an.resume()
        assert len(alerts) == 1
        assert alerts[0].time == pytest.approx(1.0)  # detection time kept

    def test_stall_queue_sheds_at_limit(self):
        eng = Engine()
        an = Analyzer(eng, "a0")
        an.STALL_QUEUE_LIMIT = 3
        an.stall()
        for i in range(5):
            an.receive(self._det(float(i), cat=f"c{i}"))
        assert an.stalled_detections == 3
        assert an.shed_detections == 2

    def test_crash_drops_and_loses_stall_backlog(self):
        eng = Engine()
        an = Analyzer(eng, "a0")
        an.stall()
        an.receive(self._det(1.0))
        an.force_fail()
        assert an.dropped_down == 1  # queued detection lost with the crash
        an.receive(self._det(2.0))
        assert an.dropped_down == 2
        an.force_restore()
        an.resume()
        an.receive(self._det(3.0))
        assert an.alerts_emitted == 0  # no sink attached; just no raise


class TestMonitorHooks:
    def _alert(self, t=1.0):
        from repro.ids.alert import Alert

        return Alert(time=t, analyzer="a0", category="portscan",
                     src=IPv4Address("198.18.0.1"),
                     dst=IPv4Address("10.0.0.5"),
                     severity=Severity.CRITICAL, confidence=1.0)

    def test_partition_defers_notifications_until_heal(self):
        eng = Engine()
        mon = Monitor(eng, "m0", notify_delay_s=0.0)
        mon.partition()
        mon.receive(self._alert())
        eng.run()
        assert mon.notifications == []
        assert mon.deferred_notifications == 1
        eng.schedule_at(5.0, mon.heal)
        eng.run()
        assert len(mon.notifications) == 1
        assert mon.notifications[0].time == pytest.approx(5.0)

    def test_partition_suppresses_responses(self):
        from repro.ids.policy import ResponseAction, SecurityPolicy

        eng = Engine()
        fired = []
        policy = SecurityPolicy.default()
        mon = Monitor(eng, "m0", policy=policy)
        mon.set_responder(lambda action, alert: fired.append(action))
        mon.partition()
        mon.receive(self._alert())
        actions = policy.actions_for(self._alert())
        expected = sum(1 for a in actions
                       if a not in (ResponseAction.NOTIFY,
                                    ResponseAction.LOG_ONLY))
        assert fired == []
        assert mon.suppressed_responses == expected


# ----------------------------------------------------------------------
# Hypothesis: analytic availability properties
# ----------------------------------------------------------------------
_TARGETS = {
    FaultKind.CRASH: ("sensor:0", "sensor:*", "analyzer:0", "balancer"),
    FaultKind.OVERLOAD: ("sensor:*", "sensor:1"),
    FaultKind.STALL: ("analyzer:*",),
    FaultKind.PARTITION: ("monitor",),
    FaultKind.LINK_LOSS: ("link",),
    FaultKind.LINK_LATENCY: ("link",),
}


@st.composite
def faults(draw):
    kind = draw(st.sampled_from(list(FaultKind)))
    target = draw(st.sampled_from(_TARGETS[kind]))
    start = draw(st.floats(0.0, 1.0, allow_nan=False))
    duration = draw(st.floats(0.0, 1.0, allow_nan=False))
    if kind is FaultKind.OVERLOAD:
        magnitude = draw(st.floats(1.0, 50.0, allow_nan=False))
    elif kind is FaultKind.LINK_LOSS:
        magnitude = draw(st.floats(0.0, 1.0, allow_nan=False))
    else:
        magnitude = draw(st.floats(0.0, 10.0, allow_nan=False))
    return Fault(kind, target, start, duration, magnitude)


@st.composite
def plans(draw):
    return FaultPlan("prop", tuple(draw(st.lists(faults(), max_size=6))),
                     seed=draw(st.integers(0, 2**16)))


def _availability(plan):
    eng = Engine()
    inj = FaultInjector(eng, fake_deployment(), plan, duration_s=50.0)
    inj.arm()
    return inj.availability()


@settings(max_examples=60, deadline=None)
@given(plan=plans(), severity=st.floats(0.0, 3.0, allow_nan=False))
def test_availability_in_unit_interval(plan, severity):
    value = _availability(plan.scaled(severity))
    assert 0.0 <= value <= 1.0
    assert math.isfinite(value)


@settings(max_examples=60, deadline=None)
@given(plan=plans(),
       s1=st.floats(0.0, 2.0, allow_nan=False),
       s2=st.floats(0.0, 2.0, allow_nan=False))
# a window running past the scenario end used to be charged unclipped at
# severity 1.0 only, so severity 2.0 scored higher
@example(plan=FaultPlan("prop", (Fault(FaultKind.STALL, "analyzer:*",
                                       1.0, 1.0),)),
         s1=1.0, s2=2.0)
def test_degradation_monotone_in_severity(plan, s1, s2):
    lo, hi = sorted((s1, s2))
    # more severe faults can never *increase* availability
    assert _availability(plan.scaled(hi)) <= _availability(
        plan.scaled(lo)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(plan=plans(), pick=st.integers(0, 5),
       severity=st.floats(0.0, 2.0, allow_nan=False))
@example(plan=FaultPlan("prop", (Fault(FaultKind.STALL, "analyzer:0",
                                       0.2, 0.2),)),
         pick=0, severity=1.0)
def test_duplicated_fault_never_lowers_availability(plan, pick, severity):
    assume(plan.faults)
    doubled = replace(plan, faults=plan.faults
                      + (plan.faults[pick % len(plan.faults)],))
    assert (_availability(doubled.scaled(severity))
            >= _availability(plan.scaled(severity)))


#: Named-plan availabilities on ``fake_deployment()`` over 50 s.  No named
#: plan runs past the scenario end or overlaps windows on one component,
#: so the union accounting leaves every value bit-identical.
NAMED_PLAN_AVAILABILITY = {
    ("none", 0.5): 1.0,
    ("none", 1.0): 1.0,
    ("crash-recover", 0.5): 0.9458333333333333,
    ("crash-recover", 1.0): 0.8916666666666666,
    ("sensor-overload", 0.5): 0.9404761904761905,
    ("sensor-overload", 1.0): 0.8611111111111112,
    ("analyzer-stall", 0.5): 0.9708333333333333,
    ("analyzer-stall", 1.0): 0.9416666666666667,
    ("manager-partition", 0.5): 0.9666666666666667,
    ("manager-partition", 1.0): 0.9333333333333333,
    ("link-degraded", 0.5): 0.99625,
    ("link-degraded", 1.0): 0.985,
    ("cascade", 0.5): 0.9070833333333334,
    ("cascade", 1.0): 0.8116666666666666,
}


@pytest.mark.parametrize("severity", (0.5, 1.0))
@pytest.mark.parametrize("name", plan_names())
def test_named_plan_availability_is_exact(name, severity):
    assert (_availability(named_plan(name).scaled(severity))
            == NAMED_PLAN_AVAILABILITY[name, severity])

"""Differential tests: batched load generation must equal the per-packet loop.

``make_load_trace`` and ``UdpFlood._emit`` draw every packet's payload,
source and port in one batch.  For every payload mode, payload size and
source pool they must produce the records of the per-packet reference in
:mod:`tests.oracles.load` -- time, addresses, ports, protocol, payload and
payload length -- and leave the generator in the same state.  The two
``@example`` production cases are load probes whose draws hit a Lemire
rejection (checked by ``test_production_cases_hit_a_rejection``), so the
redraw path is pinned by real traffic, not only by synthetic sizes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.attacks.dos import UdpFlood
from repro.errors import ConfigurationError
from repro.eval.throughput import make_load_trace
from repro.net.address import IPv4Address
from tests.oracles.load import load_trace, udp_flood_records

DST = IPv4Address("10.0.0.1")
ATT = IPv4Address("203.0.113.9")
MODES = ("http", "random", "logical")
SIZES = (0, 1, 400, 401)

#: probes whose draws hit a rejection: (seed, rate_pps, duration_s)
REJECTING_PROBES = ((32013, 32000.0, 0.4), (8009, 8000.0, 1.0))


def fields(time, packet):
    return (time, packet.src.value, packet.dst.value, packet.sport,
            packet.dport, packet.proto, packet.payload, packet.payload_len)


def assert_same_load(seed, rate, duration, mode, size, pool):
    batch_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    got = make_load_trace(batch_rng, rate, duration, DST, payload_mode=mode,
                          payload_size=size, src_pool=pool)
    want = load_trace(loop_rng, rate, duration, DST, payload_mode=mode,
                      payload_size=size, src_pool=pool)
    assert got.name == want.name
    assert ([fields(r.time, r.packet) for r in got]
            == [fields(r.time, r.packet) for r in want])
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


def assert_same_flood(seed, rate, duration, mode, size):
    flood = UdpFlood(ATT, DST, rate_pps=rate, duration_s=duration,
                     payload_size=size, payload_mode=mode)
    batch_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    got = flood._emit(batch_rng)
    want = udp_flood_records(flood, loop_rng)
    assert [fields(*r) for r in got] == [fields(*r) for r in want]
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


class TestLoadTraceGrid:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("pool", (1, 64))
    def test_matches_reference(self, mode, size, pool):
        assert_same_load(5, 200.0, 0.25, mode, size, pool)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_packets(self, mode):
        # int(3 * 0.2) == 0: only the (empty) time draw happens
        assert_same_load(5, 3.0, 0.2, mode, 400, 64)

    @pytest.mark.parametrize("seed,rate,duration", REJECTING_PROBES)
    def test_production_cases_hit_a_rejection(self, seed, rate, duration):
        # without a rejection the probe would use exactly four words a packet
        n = int(rate * duration)
        loop_rng = np.random.default_rng(seed)
        load_trace(loop_rng, rate, duration, DST)
        no_reject = np.random.default_rng(seed)
        no_reject.uniform(size=n)
        no_reject.integers(0, 2**32, size=4 * n, dtype=np.uint32)
        assert loop_rng.bit_generator.state != no_reject.bit_generator.state


class TestUdpFloodGrid:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("size", SIZES)
    def test_matches_reference(self, mode, size):
        assert_same_flood(9, 300.0, 0.2, mode, size)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_packets(self, mode):
        assert_same_flood(9, 3.0, 0.2, mode, 512)

    def test_negative_payload_size_rejected(self):
        with pytest.raises(ConfigurationError):
            UdpFlood(ATT, DST, payload_size=-1)


load_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    rate=st.sampled_from((3.0, 50.0, 400.0, 1500.0)),
    duration=st.sampled_from((0.2, 0.5)),
    mode=st.sampled_from(MODES),
    size=st.sampled_from(SIZES + (3, 64)),
    pool=st.sampled_from((1, 2, 64, 254)),
)


class TestProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**load_cases)
    @example(seed=32013, rate=32000.0, duration=0.4, mode="http", size=400,
             pool=64)
    @example(seed=8009, rate=8000.0, duration=1.0, mode="http", size=400,
             pool=64)
    def test_load_trace_matches_reference(self, seed, rate, duration, mode,
                                          size, pool):
        assert_same_load(seed, rate, duration, mode, size, pool)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=load_cases["seed"], rate=load_cases["rate"],
           duration=load_cases["duration"], mode=load_cases["mode"],
           size=load_cases["size"])
    def test_udp_flood_matches_reference(self, seed, rate, duration, mode,
                                         size):
        assert_same_flood(seed, rate, duration, mode, size)


@pytest.mark.slow
class TestPropertiesDeep:
    """The long lane: more examples, full-rate probes (CI's -m slow lane)."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=load_cases["seed"],
           rate=st.sampled_from((3.0, 500.0, 4000.0, 8000.0, 32000.0)),
           duration=st.sampled_from((0.2, 0.4, 1.0)),
           mode=load_cases["mode"], size=load_cases["size"],
           pool=load_cases["pool"])
    def test_load_trace_matches_reference(self, seed, rate, duration, mode,
                                          size, pool):
        assert_same_load(seed, rate, duration, mode, size, pool)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=load_cases["seed"],
           rate=st.sampled_from((3.0, 1500.0, 20000.0)),
           duration=st.sampled_from((0.2, 1.0)),
           mode=load_cases["mode"], size=load_cases["size"])
    def test_udp_flood_matches_reference(self, seed, rate, duration, mode,
                                         size):
        assert_same_flood(seed, rate, duration, mode, size)

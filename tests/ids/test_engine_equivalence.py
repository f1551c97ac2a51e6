"""Differential testing: the indexed engine must equal the linear scan.

:class:`~repro.ids.signature.SignatureEngine`'s rule index and shared
pattern scan are an optimization, not a behaviour change: for any rule
set, any packet stream and any sensitivity it must produce the *same
matches in the same order* as the linear reference scan
(:func:`tests.oracles.signature.linear_inspect`) -- including across TCP
stream state, threshold windows and flow-cap eviction.  Hypothesis drives
both over randomized rule sets and packet streams (with deliberate
segmentation of patterns across TCP boundaries) and asserts the full
match transcripts are equal.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ids.signature import (
    HeaderRule,
    PayloadPatternRule,
    SignatureEngine,
    StreamPatternRule,
    ThresholdRule,
    default_ruleset,
)
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol, TcpFlags
from tests.oracles.signature import linear_inspect

# a deliberately nasty pattern pool: shared prefixes/suffixes, a pattern
# containing another, single bytes, and real-ruleset markers
PATTERNS = (b"EVILMARKER", b"EVIL", b"MARK", b"KERX",
            b"\x90\x90\x90\x90/bin/sh\x00", b"/cgi-bin/phf", b"Z")

ADDRESSES = tuple(IPv4Address(f"10.0.0.{i}") for i in (1, 2, 3))
PORTS = (80, 143, 4000, 9999)
SENSITIVITIES = (0.0, 0.25, 0.5, 0.75, 1.0)


# ----------------------------------------------------------------------
# rule-set specs (rules are stateful, so each side gets a fresh build)
# ----------------------------------------------------------------------
def _src_key(pkt):
    return pkt.src.value


def _dport_if_tcp(pkt):
    return pkt.dport if pkt.proto is Protocol.TCP else None


def _count_all(pkt):
    return ThresholdRule.COUNT


some_ports = st.none() | st.lists(st.sampled_from(PORTS), min_size=1,
                                  max_size=2, unique=True)
some_patterns = st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=4,
                         unique=True)
min_sens = st.sampled_from((0.0, 0.4, 0.8))

payload_spec = st.tuples(st.just("payload"), some_patterns, some_ports,
                         st.sampled_from((None, Protocol.TCP, Protocol.UDP)),
                         min_sens)
# tiny max_flows values force eviction churn; tiny windows force expiry
stream_spec = st.tuples(st.just("stream"), some_patterns, some_ports,
                        st.sampled_from((2, 3, 8192)),
                        st.sampled_from((0.05, 30.0)), min_sens)
header_spec = st.tuples(st.just("header"),
                        st.sampled_from((None, Protocol.TCP, Protocol.ICMP)),
                        some_ports,
                        st.sampled_from((None, TcpFlags.SYN,
                                         TcpFlags.ACK | TcpFlags.PSH)),
                        st.sampled_from((None, 1, 64)), min_sens)
threshold_spec = st.tuples(st.just("threshold"),
                           st.sampled_from(("distinct", "count")),
                           st.sampled_from((2, 4)),
                           st.sampled_from((0.5, 30.0)),
                           st.booleans(), min_sens)

ruleset_spec = st.lists(payload_spec | stream_spec | header_spec
                        | threshold_spec, min_size=1, max_size=8)


def build_rules(specs):
    rules = []
    for i, spec in enumerate(specs):
        kind = spec[0]
        if kind == "payload":
            _, patterns, ports, proto, ms = spec
            rules.append(PayloadPatternRule(
                f"p{i}", patterns, ports=ports, proto=proto,
                category=f"cat-p{i}", min_sensitivity=ms))
        elif kind == "stream":
            _, patterns, ports, max_flows, window_s, ms = spec
            rules.append(StreamPatternRule(
                f"s{i}", patterns, ports=ports, max_flows=max_flows,
                window_s=window_s, category=f"cat-s{i}", min_sensitivity=ms))
        elif kind == "header":
            _, proto, dports, flags, min_payload, ms = spec
            rules.append(HeaderRule(
                f"h{i}", proto=proto, dports=dports, flags=flags,
                min_payload=min_payload, category=f"cat-h{i}",
                min_sensitivity=ms))
        else:
            _, mode, threshold, window_s, declare, ms = spec
            value_fn = _dport_if_tcp if mode == "distinct" else _count_all
            # the declared proto constraint is implied by _dport_if_tcp
            # returning None off-protocol; _count_all may not declare it
            proto = (Protocol.TCP
                     if declare and mode == "distinct" else None)
            rules.append(ThresholdRule(
                f"t{i}", _src_key, value_fn, threshold, window_s=window_s,
                proto=proto, category=f"cat-t{i}", min_sensitivity=ms))
    return rules


# ----------------------------------------------------------------------
# packet streams
# ----------------------------------------------------------------------
def byte_text(alphabet: bytes, min_size: int, max_size: int):
    """Bytes drawn from a small alphabet (st.binary has no alphabet knob)."""
    return st.lists(st.sampled_from(list(alphabet)), min_size=min_size,
                    max_size=max_size).map(bytes)


random_payload = (st.none()
                  | st.just(b"")
                  | byte_text(b"EVILMARKX/Z .abc\x90", 0, 40)
                  | st.sampled_from(PATTERNS))

time_steps = st.sampled_from((0.001, 0.02, 0.2, 40.0))


@st.composite
def packet_events(draw):
    """One event: a single random packet, or a TCP flow carrying a pattern
    sliced across contiguous segments (the straddling case)."""
    src = draw(st.sampled_from(ADDRESSES))
    dst = draw(st.sampled_from(ADDRESSES))
    sport = draw(st.sampled_from(PORTS))
    dport = draw(st.sampled_from(PORTS))
    if draw(st.booleans()):
        proto = draw(st.sampled_from(tuple(Protocol)))
        flags = draw(st.sampled_from((TcpFlags.NONE, TcpFlags.SYN,
                                      TcpFlags.ACK | TcpFlags.PSH)))
        payload = draw(random_payload)
        seq = draw(st.sampled_from((0, 7, 1000)))
        return [(draw(time_steps),
                 Packet(src=src, dst=dst, sport=sport, dport=dport,
                        proto=proto, flags=flags, seq=seq, payload=payload))]
    # split a pattern across 2-3 contiguous (or deliberately gapped)
    # segments of one TCP flow
    pattern = draw(st.sampled_from(PATTERNS))
    body = draw(byte_text(b"x. ", 0, 6)) + pattern
    n_cuts = draw(st.integers(1, min(2, max(1, len(body) - 1))))
    cuts = sorted(draw(st.lists(st.integers(1, len(body) - 1),
                                min_size=n_cuts, max_size=n_cuts,
                                unique=True))) if len(body) > 1 else []
    pieces = [body[a:b] for a, b in
              zip([0] + cuts, cuts + [len(body)])]
    seq = draw(st.sampled_from((0, 5000)))
    gap_at = draw(st.sampled_from((None, 1)))  # break contiguity sometimes
    events = []
    for j, piece in enumerate(pieces):
        if gap_at == j:
            seq += 17
        events.append((draw(time_steps),
                       Packet(src=src, dst=dst, sport=sport, dport=dport,
                              proto=Protocol.TCP,
                              flags=TcpFlags.ACK | TcpFlags.PSH,
                              seq=seq, payload=piece)))
        seq += len(piece)
    return events


def packet_stream(max_events):
    return st.lists(packet_events(), min_size=1,
                    max_size=max_events).map(
        lambda batches: [p for batch in batches for p in batch])


# ----------------------------------------------------------------------
# the differential harness
# ----------------------------------------------------------------------
def transcript(kind, rules, events, sensitivity):
    """Every match of one side, in order: ``"indexed"`` is the engine,
    ``"linear"`` the reference scan."""
    if kind == "indexed":
        inspect = SignatureEngine(rules, sensitivity=sensitivity).inspect
    else:
        def inspect(pkt, now):
            return linear_inspect(rules, pkt, now, sensitivity)
    now = 0.0
    out = []
    for dt, pkt in events:
        now += dt
        for m in inspect(pkt, now):
            out.append((pkt.pid, m.rule, m.category, m.severity, m.score,
                        m.detail))
    return out


def assert_kernels_agree(specs, events, sensitivity):
    linear = transcript("linear", build_rules(specs), events, sensitivity)
    indexed = transcript("indexed", build_rules(specs), events, sensitivity)
    assert indexed == linear


class TestDifferential:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(events=packet_stream(12),
           sensitivity=st.sampled_from(SENSITIVITIES))
    def test_default_ruleset(self, events, sensitivity):
        linear = transcript("linear", default_ruleset(), events, sensitivity)
        indexed = transcript("indexed", default_ruleset(), events,
                             sensitivity)
        assert indexed == linear

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=ruleset_spec, events=packet_stream(12),
           sensitivity=st.sampled_from(SENSITIVITIES))
    def test_random_rulesets(self, specs, events, sensitivity):
        assert_kernels_agree(specs, events, sensitivity)

    def test_straddled_marker_detected_by_both(self):
        # deterministic anchor: a marker split across three segments must
        # fire on its final segment on both sides
        specs = [("stream", [b"EVILMARKER"], None, 8192, 30.0, 0.0)]
        events = [(0.01, Packet(src=ADDRESSES[0], dst=ADDRESSES[1],
                                sport=4000, dport=143, proto=Protocol.TCP,
                                flags=TcpFlags.ACK | TcpFlags.PSH,
                                seq=seq, payload=piece))
                  for seq, piece in ((0, b"..EVI"), (5, b"LMAR"),
                                     (9, b"KER.."))]
        linear = transcript("linear", build_rules(specs), events, 0.5)
        indexed = transcript("indexed", build_rules(specs), events, 0.5)
        assert linear == indexed
        assert len(linear) == 1 and "stream pattern" in linear[0][5]


@pytest.mark.slow
class TestDifferentialDeep:
    """The long lane: bigger streams, more examples (CI's -m slow lane)."""

    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=ruleset_spec, events=packet_stream(30),
           sensitivity=st.sampled_from(SENSITIVITIES))
    def test_random_rulesets_deep(self, specs, events, sensitivity):
        assert_kernels_agree(specs, events, sensitivity)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(events=packet_stream(30),
           sensitivity=st.sampled_from(SENSITIVITIES))
    def test_default_ruleset_deep(self, events, sensitivity):
        linear = transcript("linear", default_ruleset(), events, sensitivity)
        indexed = transcript("indexed", default_ruleset(), events,
                             sensitivity)
        assert indexed == linear

"""``packet_to_events`` against the every-check reference in
``tests/oracles/audit.py``.

The production function builds events only for what the audit depth
records, tests SYN-without-ACK on the packet's int codes and parses a
cluster command only behind the cluster magic; none of that may change a
single event.  A fixed grid covers every protocol, SYN/ACK combination,
payload shape and audit depth; Hypothesis adds random packets on top.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids.audit import C2_EVENTS, NOMINAL_EVENTS, packet_to_events
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.traffic.payload import cluster_command, telnet_login
from tests.oracles.audit import packet_to_events as reference_events

MAGIC = struct.pack("<I", 0x52_54_4D_53)
SRC = IPv4Address("198.18.0.1")
DST = IPv4Address("10.0.0.5")

PAYLOADS = {
    "none": None,
    "empty": b"",
    "login-failure": telnet_login("root", "x", success=False),
    "login-success": telnet_login("root", "y", success=True),
    "command": cluster_command(3, "exfil"),
    "known-command": cluster_command(1, "sync"),
    "telemetry": struct.pack("<IHHI", 0x52_54_4D_53, 1, 2, 7) + bytes(64),
    "short-magic": MAGIC + struct.pack("<H", 2) + b"sync",
    "magic-only": MAGIC,
    "command-and-login": cluster_command(2, "status") + b"Last login",
    "binary": bytes(range(256)),
}

SYN_ACK = [TcpFlags.NONE, TcpFlags.SYN, TcpFlags.ACK,
           TcpFlags.SYN | TcpFlags.ACK]
DEPTHS = {"nominal": NOMINAL_EVENTS, "c2": C2_EVENTS}


def same_events(pkt, now, depth):
    expected = reference_events(pkt, now, depth)
    assert packet_to_events(pkt, now, depth) == expected
    return expected


@pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS.keys())
def test_grid_matches_reference(payload):
    for proto in Protocol:
        for flags in SYN_ACK:
            for depth in DEPTHS.values():
                for attack_id in (None, "atk-1"):
                    pkt = Packet(src=SRC, dst=DST, sport=1234, dport=23,
                                 proto=proto, flags=flags | TcpFlags.PSH,
                                 payload=payload, attack_id=attack_id)
                    same_events(pkt, 2.5, depth)


def test_grid_exercises_every_event_type():
    seen = set()
    for proto in Protocol:
        for flags in SYN_ACK:
            for payload in PAYLOADS.values():
                pkt = Packet(src=SRC, dst=DST, dport=23, proto=proto,
                             flags=flags, payload=payload)
                seen.update(e.etype
                            for e in same_events(pkt, 0.0, C2_EVENTS))
    assert seen == set(C2_EVENTS)


def _payloads():
    text = st.text(alphabet=st.characters(min_codepoint=32,
                                          max_codepoint=126), max_size=12)
    return st.one_of(
        st.none(),
        st.just(b""),
        st.builds(telnet_login, text, text, st.booleans()),
        st.builds(cluster_command, st.integers(0, 0xFFFF),
                  st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
                          max_size=20)),
        st.binary(max_size=27).map(lambda tail: MAGIC + tail),
        st.tuples(st.integers(0, 5), st.binary(min_size=24, max_size=40))
        .map(lambda t: MAGIC + struct.pack("<H", t[0]) + t[1]),
        st.binary(max_size=80),
        st.tuples(st.binary(max_size=20),
                  st.sampled_from([b"Login incorrect", b"Last login"]))
        .map(lambda t: t[0] + t[1]),
    )


@settings(max_examples=400, deadline=None)
@given(proto=st.sampled_from(list(Protocol)),
       flags=st.integers(0, 0x3F).map(TcpFlags),
       payload=_payloads(),
       src=st.integers(0, 2**32 - 1).map(IPv4Address),
       dport=st.integers(0, 65535),
       attack_id=st.one_of(st.none(), st.text(min_size=1, max_size=8)),
       now=st.floats(0.0, 1e6, allow_nan=False),
       depth=st.sampled_from(list(DEPTHS.values())))
def test_random_packets_match_reference(proto, flags, payload, src, dport,
                                        attack_id, now, depth):
    pkt = Packet(src=src, dst=DST, sport=40000, dport=dport, proto=proto,
                 flags=flags, payload=payload, attack_id=attack_id)
    same_events(pkt, now, depth)

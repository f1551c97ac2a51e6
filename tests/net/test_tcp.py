"""Tests for TCP session generation and the reference session tracker."""

import pytest

from repro.net.address import IPv4Address
from repro.net.flow import FlowKey
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.net.tcp import build_session
from tests.oracles.tcp import (
    SessionTable,
    TcpConnection,
    TcpState,
    TcpStateError,
)

C = IPv4Address("10.0.0.1")
S = IPv4Address("10.0.0.2")


def tcp(src, dst, sport, dport, flags, seq=0, ack=0, payload=None):
    return Packet(src=src, dst=dst, sport=sport, dport=dport,
                  proto=Protocol.TCP, flags=flags, seq=seq, ack=ack,
                  payload=payload)


def handshake(conn, t0=0.0):
    conn.feed(tcp(C, S, 1000, 80, TcpFlags.SYN, seq=1), t0)
    conn.feed(tcp(S, C, 80, 1000, TcpFlags.SYN | TcpFlags.ACK, seq=9, ack=2), t0 + 0.01)
    conn.feed(tcp(C, S, 1000, 80, TcpFlags.ACK, seq=2, ack=10), t0 + 0.02)


class TestTcpConnection:
    def test_three_way_handshake(self):
        conn = TcpConnection()
        conn.feed(tcp(C, S, 1000, 80, TcpFlags.SYN), 0.0)
        assert conn.state is TcpState.SYN_SENT
        assert conn.half_open
        conn.feed(tcp(S, C, 80, 1000, TcpFlags.SYN | TcpFlags.ACK), 0.01)
        assert conn.state is TcpState.SYN_RECEIVED
        assert conn.half_open
        conn.feed(tcp(C, S, 1000, 80, TcpFlags.ACK), 0.02)
        assert conn.established
        assert conn.established_at == 0.02
        assert conn.initiator == (C, 1000)
        assert conn.responder == (S, 80)

    def test_graceful_close(self):
        conn = TcpConnection()
        handshake(conn)
        conn.feed(tcp(C, S, 1000, 80, TcpFlags.FIN | TcpFlags.ACK), 1.0)
        assert conn.state is TcpState.FIN_WAIT
        conn.feed(tcp(S, C, 80, 1000, TcpFlags.FIN | TcpFlags.ACK), 1.1)
        assert conn.state is TcpState.TIME_WAIT
        assert conn.finished
        assert conn.closed_at == 1.1

    def test_server_initiated_close(self):
        conn = TcpConnection()
        handshake(conn)
        conn.feed(tcp(S, C, 80, 1000, TcpFlags.FIN | TcpFlags.ACK), 1.0)
        assert conn.state is TcpState.CLOSE_WAIT

    def test_reset_terminates(self):
        conn = TcpConnection()
        handshake(conn)
        conn.feed(tcp(S, C, 80, 1000, TcpFlags.RST), 2.0)
        assert conn.state is TcpState.RESET
        assert conn.finished

    def test_payload_accounting_by_direction(self):
        conn = TcpConnection()
        handshake(conn)
        conn.feed(tcp(C, S, 1000, 80, TcpFlags.ACK | TcpFlags.PSH, payload=b"x" * 10), 1.0)
        conn.feed(tcp(S, C, 80, 1000, TcpFlags.ACK | TcpFlags.PSH, payload=b"y" * 30), 1.1)
        assert conn.bytes_to_responder == 10
        assert conn.bytes_to_initiator == 30

    def test_syn_retransmission_tolerated(self):
        conn = TcpConnection()
        conn.feed(tcp(C, S, 1000, 80, TcpFlags.SYN), 0.0)
        conn.feed(tcp(C, S, 1000, 80, TcpFlags.SYN), 1.0)
        assert conn.state is TcpState.SYN_SENT

    def test_strict_rejects_data_before_syn(self):
        conn = TcpConnection(strict=True)
        with pytest.raises(TcpStateError):
            conn.feed(tcp(C, S, 1, 2, TcpFlags.ACK, payload=b"hi"), 0.0)

    def test_non_strict_ignores_data_before_syn(self):
        conn = TcpConnection()
        conn.feed(tcp(C, S, 1, 2, TcpFlags.ACK, payload=b"hi"), 0.0)
        assert conn.state is TcpState.CLOSED

    def test_non_tcp_rejected(self):
        conn = TcpConnection()
        with pytest.raises(TcpStateError):
            conn.feed(Packet(src=C, dst=S, proto=Protocol.UDP), 0.0)


class TestSessionTable:
    def test_tracks_by_flow(self):
        table = SessionTable()
        for pkt in build_session(C, S, 1000, 80, request=b"GET /"):
            table.feed(pkt, 0.0)
        assert len(table) == 1
        assert table.half_open_count == 0

    def test_half_open_counting(self):
        table = SessionTable()
        for i in range(5):
            table.feed(tcp(C, S, 1000 + i, 80, TcpFlags.SYN), float(i))
        assert table.half_open_count == 5
        assert table.established_count == 0

    def test_eviction_prefers_half_open(self):
        table = SessionTable(max_sessions=3)
        # one established session
        for pkt in build_session(C, S, 999, 80, teardown=False):
            table.feed(pkt, 0.0)
        # fill with half-open
        table.feed(tcp(C, S, 1001, 80, TcpFlags.SYN), 1.0)
        table.feed(tcp(C, S, 1002, 80, TcpFlags.SYN), 2.0)
        # next new session evicts the *oldest half-open* (port 1001)
        table.feed(tcp(C, S, 1003, 80, TcpFlags.SYN), 3.0)
        assert table.evicted == 1
        assert table.established_count == 1
        assert table.get(tcp(C, S, 1001, 80, TcpFlags.SYN)) is None

    def test_finished_session_replaced_on_new_syn(self):
        table = SessionTable()
        for pkt in build_session(C, S, 1000, 80):
            table.feed(pkt, 0.0)
        conn1 = table.get(tcp(C, S, 1000, 80, TcpFlags.SYN))
        assert conn1 is not None and conn1.finished
        table.feed(tcp(C, S, 1000, 80, TcpFlags.SYN), 10.0)
        conn2 = table.get(tcp(C, S, 1000, 80, TcpFlags.SYN))
        assert conn2 is not conn1
        assert conn2.half_open

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            SessionTable(max_sessions=0)


class TestBuildSession:
    def test_session_establishes_and_closes(self):
        conn = TcpConnection(strict=True)
        pkts = build_session(C, S, 1000, 80, request=b"GET / HTTP/1.0\r\n\r\n",
                             response=b"HTTP/1.0 200 OK\r\n\r\nhi")
        for i, pkt in enumerate(pkts):
            conn.feed(pkt, float(i))
        assert conn.finished
        assert conn.bytes_to_responder == 18
        assert conn.bytes_to_initiator == 21

    def test_segmentation_respects_mss(self):
        pkts = build_session(C, S, 1, 2, request=b"x" * 3500, mss=1000)
        data = [p for p in pkts if p.payload and p.src == C]
        assert [len(p.payload) for p in data] == [1000, 1000, 1000, 500]

    def test_reassembly_of_generated_session(self):
        req = bytes(range(256)) * 7
        pkts = build_session(C, S, 1, 2, request=req, mss=100)
        data = [p for p in pkts if p.src == C and p.payload]
        # segments start at isn_client + 1 and each one's seq is where the
        # previous one ended: no gap, no overlap
        seq = 1001
        for p in data:
            assert p.seq == seq
            seq += len(p.payload)
        assert b"".join(p.payload for p in data) == req

    def test_handshake_sequence_numbers(self):
        syn, synack, ack = build_session(C, S, 1, 2, isn_client=70,
                                         isn_server=900)[:3]
        assert (syn.flags, syn.seq) == (TcpFlags.SYN, 70)
        assert synack.flags == TcpFlags.SYN | TcpFlags.ACK
        assert (synack.src, synack.seq, synack.ack) == (S, 900, 71)
        assert (ack.flags, ack.seq, ack.ack) == (TcpFlags.ACK, 71, 901)

    def test_response_segments_contiguous(self):
        resp = b"r" * 250
        pkts = build_session(C, S, 1, 2, request=b"q" * 30, response=resp,
                             mss=100)
        data = [p for p in pkts if p.src == S and p.payload]
        assert [len(p.payload) for p in data] == [100, 100, 50]
        seq = 5001
        for p in data:
            # every response segment acknowledges the whole request
            assert (p.seq, p.ack) == (seq, 1001 + 30)
            seq += len(p.payload)
        assert b"".join(p.payload for p in data) == resp

    def test_response_acknowledged_only_when_present(self):
        with_resp = build_session(C, S, 1, 2, response=b"ok", teardown=False)
        assert with_resp[-1].src == C
        assert (with_resp[-1].flags, with_resp[-1].ack) == (TcpFlags.ACK,
                                                            5001 + 2)
        assert len(build_session(C, S, 1, 2, teardown=False)) == 3

    def test_teardown_acknowledges_both_fins(self):
        fin_c, fin_s, last = build_session(C, S, 1, 2, request=b"abc")[-3:]
        assert fin_c.src == C and fin_c.has_flag(TcpFlags.FIN)
        assert (fin_c.seq, fin_c.ack) == (1004, 5001)
        assert fin_s.src == S and fin_s.has_flag(TcpFlags.FIN)
        assert (fin_s.seq, fin_s.ack) == (5001, 1005)
        assert (last.flags, last.seq, last.ack) == (TcpFlags.ACK, 1005, 5002)

    def test_all_packets_share_one_flow(self):
        pkts = build_session(C, S, 4321, 80, request=b"x" * 3000,
                             response=b"y" * 3000)
        assert all(p.proto is Protocol.TCP for p in pkts)
        assert {FlowKey.of(p) for p in pkts} == {FlowKey.of(pkts[0])}

    def test_attack_id_propagates(self):
        pkts = build_session(C, S, 1, 2, request=b"evil", attack_id="exp-1")
        assert all(p.attack_id == "exp-1" for p in pkts)

    def test_no_teardown_option(self):
        pkts = build_session(C, S, 1, 2, teardown=False)
        assert not any(p.has_flag(TcpFlags.FIN) for p in pkts)

    def test_bad_mss(self):
        with pytest.raises(ValueError):
            build_session(C, S, 1, 2, mss=0)

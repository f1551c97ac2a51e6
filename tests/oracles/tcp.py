"""Reference TCP session tracking: checks that generated sessions are valid.

* :class:`TcpConnection` -- a passive bidirectional connection tracker that
  walks the RFC-793 state machine; in ``strict`` mode it raises
  :class:`TcpStateError` on flags impossible in the current state.
* :class:`SessionTable` -- a bounded table of those trackers keyed by the
  canonical flow, evicting half-open sessions first.

The traffic, attack and property tests feed ``build_session`` output and
generated traces through them: every control session must complete its
handshake and teardown, and a SYN flood must fill the table with half-open
entries.
"""

import enum
from typing import Dict, Optional, Tuple

from repro.errors import NetworkError
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol, TcpFlags


class TcpStateError(NetworkError):
    """Raised on an illegal TCP state-machine transition."""


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RECEIVED = "SYN_RECEIVED"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT = "FIN_WAIT"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    TIME_WAIT = "TIME_WAIT"
    RESET = "RESET"


# Terminal states from a tracker's point of view.
_TERMINAL = frozenset({TcpState.TIME_WAIT, TcpState.RESET, TcpState.CLOSED})


class TcpConnection:
    """Passive bidirectional TCP connection tracker.

    The tracker identifies the *initiator* as the sender of the first SYN.
    It is tolerant of retransmissions (repeated SYN/FIN do not error) but
    raises :class:`TcpStateError` in ``strict`` mode when it sees flags that
    are impossible in the current state (e.g. data before any SYN).
    """

    __slots__ = (
        "initiator",
        "responder",
        "state",
        "opened_at",
        "established_at",
        "closed_at",
        "bytes_to_responder",
        "bytes_to_initiator",
        "strict",
        "_fin_seen",
    )

    def __init__(self, strict: bool = False) -> None:
        self.initiator: Optional[Tuple[IPv4Address, int]] = None
        self.responder: Optional[Tuple[IPv4Address, int]] = None
        self.state = TcpState.CLOSED
        self.opened_at: Optional[float] = None
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.bytes_to_responder = 0
        self.bytes_to_initiator = 0
        self.strict = strict
        self._fin_seen: set = set()  # which endpoints sent FIN

    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        return self.state is TcpState.ESTABLISHED

    @property
    def half_open(self) -> bool:
        """SYN seen but the three-way handshake never completed."""
        return self.state in (TcpState.SYN_SENT, TcpState.SYN_RECEIVED)

    @property
    def finished(self) -> bool:
        return self.state in _TERMINAL and self.opened_at is not None

    def feed(self, pkt: Packet, now: float) -> TcpState:
        """Observe one packet of this connection; returns the new state."""
        if pkt.proto is not Protocol.TCP:
            raise TcpStateError("TcpConnection fed a non-TCP packet")
        sender = (pkt.src, pkt.sport)

        if pkt.has_flag(TcpFlags.RST):
            if self.state is not TcpState.CLOSED or self.opened_at is not None:
                self.state = TcpState.RESET
                self.closed_at = now
            return self.state

        if pkt.has_flag(TcpFlags.SYN) and not pkt.has_flag(TcpFlags.ACK):
            # Initial SYN (or a retransmission of it).
            if self.state is TcpState.CLOSED:
                self.initiator = sender
                self.responder = (pkt.dst, pkt.dport)
                self.state = TcpState.SYN_SENT
                self.opened_at = now
            elif self.strict and self.state not in (TcpState.SYN_SENT,):
                raise TcpStateError(f"unexpected SYN in state {self.state}")
            return self.state

        if pkt.has_flag(TcpFlags.SYN) and pkt.has_flag(TcpFlags.ACK):
            if self.state is TcpState.SYN_SENT and sender == self.responder:
                self.state = TcpState.SYN_RECEIVED
            elif self.strict and self.state not in (
                TcpState.SYN_RECEIVED,
                TcpState.ESTABLISHED,
            ):
                raise TcpStateError(f"unexpected SYN/ACK in state {self.state}")
            return self.state

        if self.state is TcpState.CLOSED:
            if self.strict:
                raise TcpStateError("data/ACK on a connection with no SYN")
            return self.state

        if pkt.has_flag(TcpFlags.FIN):
            self._fin_seen.add(sender)
            self._count_payload(pkt, sender)
            if len(self._fin_seen) == 2:
                self.state = TcpState.TIME_WAIT
                self.closed_at = now
            elif self.state is TcpState.ESTABLISHED:
                self.state = TcpState.FIN_WAIT if sender == self.initiator else TcpState.CLOSE_WAIT
            return self.state

        if pkt.has_flag(TcpFlags.ACK):
            if self.state is TcpState.SYN_RECEIVED and sender == self.initiator:
                self.state = TcpState.ESTABLISHED
                self.established_at = now
            self._count_payload(pkt, sender)
            return self.state

        # Bare data segment (no ACK flag): tolerated unless strict.
        if self.strict:
            raise TcpStateError(f"segment without ACK in state {self.state}")
        self._count_payload(pkt, sender)
        return self.state

    def _count_payload(self, pkt: Packet, sender: Tuple[IPv4Address, int]) -> None:
        if pkt.payload_len:
            if sender == self.initiator:
                self.bytes_to_responder += pkt.payload_len
            else:
                self.bytes_to_initiator += pkt.payload_len


class SessionTable:
    """Bounded table of tracked TCP connections, keyed by canonical flow.

    Mirrors what a stateful sensor or TCP-aware load balancer keeps: when
    full, the oldest non-established session is dropped first (half-open
    SYN-flood entries), then the oldest established one.
    """

    def __init__(self, max_sessions: int = 65536, strict: bool = False) -> None:
        if max_sessions <= 0:
            raise ValueError("max_sessions must be positive")
        self.max_sessions = int(max_sessions)
        self.strict = strict
        self._sessions: Dict[tuple, TcpConnection] = {}
        self._last_seen: Dict[tuple, float] = {}
        self.evicted = 0

    @staticmethod
    def _key(pkt: Packet) -> tuple:
        a = (pkt.src.value, pkt.sport)
        b = (pkt.dst.value, pkt.dport)
        return (a, b) if a <= b else (b, a)

    def feed(self, pkt: Packet, now: float) -> TcpConnection:
        key = self._key(pkt)
        conn = self._sessions.get(key)
        is_new_syn = pkt.has_flag(TcpFlags.SYN) and not pkt.has_flag(TcpFlags.ACK)
        if conn is None or (conn.finished and is_new_syn):
            if conn is None and len(self._sessions) >= self.max_sessions:
                self._evict()
            conn = TcpConnection(strict=self.strict)
            self._sessions[key] = conn
        conn.feed(pkt, now)
        self._last_seen[key] = now
        return conn

    def _evict(self) -> None:
        half_open = [k for k, c in self._sessions.items() if c.half_open]
        pool = half_open if half_open else list(self._sessions)
        victim = min(pool, key=lambda k: self._last_seen.get(k, 0.0))
        del self._sessions[victim]
        self._last_seen.pop(victim, None)
        self.evicted += 1

    def get(self, pkt: Packet) -> Optional[TcpConnection]:
        return self._sessions.get(self._key(pkt))

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def half_open_count(self) -> int:
        return sum(1 for c in self._sessions.values() if c.half_open)

    @property
    def established_count(self) -> int:
        return sum(1 for c in self._sessions.values() if c.established)

"""Reference anomaly scoring: every feature recomputed per packet.

:class:`ReferenceAnomalyScorer` scores live packets against a frozen
:class:`repro.ids.anomaly.AnomalyEngine`'s trained state the plain way:
no memoized payload features, no interned service keys and no precheck
cuts -- each feature's deviation goes through the logistic on every
packet, and the payload entropy and application token are recomputed by
per-call helpers.  The production ``AnomalyEngine.inspect`` must produce
the same ``(feature, score)`` list for every packet.

The scorer keeps its own live windows and counters and only *reads* the
engine's trained tables, so the engine under test and the reference can
score the same stream side by side; the threshold follows the engine's
current sensitivity.
"""

import math
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.ids.anomaly import (
    _ENTROPY_SAMPLE,
    AnomalyEngine,
    AnomalyScore,
    _logistic,
)
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.traffic.payload import shannon_entropy

_ALPHA = frozenset(b"abcdefghijklmnopqrstuvwxyz_")


def reference_token(pkt: Packet) -> Optional[bytes]:
    """The application-protocol token of ``pkt``, one byte at a time.

    Text protocols: the first word, at most 12 bytes.  Binary protocols:
    the 6-byte header, ``|``, and the first >=4-byte lowercase/underscore
    run inside ``payload[6:32]`` (at most 12 bytes of it).
    """
    p = pkt.payload
    if p is None or len(p) < 4:
        return None
    head = p[:16]
    printable = sum(32 <= b < 127 for b in head)
    if printable >= max(len(head) - 2, 4):  # text protocol
        return bytes(p.split(b" ", 1)[0][:12])
    run = b""
    current = bytearray()
    for b in p[6:32]:
        if b in _ALPHA:
            current.append(b)
            continue
        if len(current) >= 4:
            break
        current.clear()
    if len(current) >= 4:
        run = bytes(current[:12])
    return bytes(p[:6]) + b"|" + run


class ReferenceAnomalyScorer:
    """Score packets against a frozen engine's trained state."""

    def __init__(self, engine: AnomalyEngine) -> None:
        if not engine.trained:
            raise ConfigurationError("reference scorer needs a frozen engine")
        self.engine = engine
        self.packets_inspected = 0
        self.detections = 0
        self._live_bins: Dict[int, list] = {}
        self._live_fanout: Dict[int, list] = {}

    def inspect(self, pkt: Packet, now: float) -> List[AnomalyScore]:
        """Score one packet; returns the features above threshold."""
        trained = self.engine
        self.packets_inspected += 1
        scores: List[AnomalyScore] = []
        t = trained.threshold

        # rate
        src = pkt.src.value
        bin_idx = int(now)
        live = self._live_bins.get(src)
        if live is None or live[0] != bin_idx:
            live = [bin_idx, 0]
            self._live_bins[src] = live
        live[1] += 1
        ratio = live[1] / max(trained._max_src_rate, 1.0)
        if ratio > 1.0:
            s = _logistic(math.log2(ratio), midpoint=2.0, steepness=1.6)
            if s > t:
                scores.append(AnomalyScore(("rate", s)))

        # fan-out
        fo = self._live_fanout.get(src)
        if fo is None or now - fo[0] > trained.window_s:
            fo = [now, set()]
            self._live_fanout[src] = fo
        fo[1].add(pkt.dport)
        fan = len(fo[1])
        if fan > trained._max_fanout:
            s = _logistic(math.log2(fan / max(trained._max_fanout, 1)),
                          midpoint=1.5, steepness=1.8)
            if s > t:
                scores.append(AnomalyScore(("fanout", s)))

        # new service (only consider plausible service-side ports)
        port = AnomalyEngine._server_port(pkt)
        key = (pkt.proto, port)
        is_syn = (pkt.proto is Protocol.TCP and pkt.has_flag(TcpFlags.SYN)
                  and not pkt.has_flag(TcpFlags.ACK))
        if key not in trained._services and (
                is_syn or pkt.proto is not Protocol.TCP):
            s = 0.75 if port < 1024 or pkt.dport == port else 0.55
            if s > t:
                scores.append(AnomalyScore(("new-service", s)))

        # payload entropy deviation
        if pkt.payload is not None and len(pkt.payload) >= 32:
            stats = trained._entropy.get(key)
            if stats is not None and stats.n >= 8:
                h = shannon_entropy(pkt.payload[:_ENTROPY_SAMPLE])
                z = abs(h - stats.mean) / stats.std
                s = _logistic(z, midpoint=6.0, steepness=0.8)
                if s > t:
                    scores.append(AnomalyScore(("entropy", s)))

        # ICMP payload size
        icmp = trained._icmp_sizes
        if pkt.proto is Protocol.ICMP and icmp.n >= 8:
            z = abs(pkt.payload_len - icmp.mean) / icmp.std
            s = _logistic(z, midpoint=6.0, steepness=0.7)
            if s > t:
                scores.append(AnomalyScore(("icmp-size", s)))

        # token novelty on known services
        token = reference_token(pkt)
        if token is not None and key in trained._tokens:
            if token not in trained._tokens[key]:
                s = 0.7
                if s > t:
                    scores.append(AnomalyScore(("token", s)))

        self.detections += len(scores)
        return scores

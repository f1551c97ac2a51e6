"""Denial-of-service attacks: SYN flood and UDP amplification flood.

Floods are the load vector for the *Network Lethal Dose* and *Maximal
Throughput with Zero Loss* experiments (Table 3): the harness scales
``rate_pps`` upward until the product under test starts dropping packets
and, eventually, fails.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..net.address import IPv4Address, Subnet
from ..net.packet import Packet, Protocol, TcpFlags
from ..traffic.payload import PAYLOAD_MODES, payload_batch
from .base import Attack, AttackKind

__all__ = ["SynFlood", "UdpFlood"]


class SynFlood(Attack):
    """TCP SYN flood from spoofed sources.

    Every packet is a fresh SYN from a random address in ``spoof_subnet``,
    exhausting the victim's (and any stateful sensor's) session tables --
    the paper's "host-based IDSs ... when the host they run on is under
    attack" concern applies to sensors too.
    """

    kind = AttackKind.DOS

    def __init__(
        self,
        target: IPv4Address,
        dport: int = 80,
        rate_pps: float = 2000.0,
        duration_s: float = 5.0,
        spoof_subnet: str = "203.0.113.0/24",
    ) -> None:
        super().__init__(description=f"SYN flood at {rate_pps:.0f} pps on {target}:{dport}")
        if rate_pps <= 0 or duration_s <= 0:
            raise ConfigurationError("rate_pps and duration_s must be positive")
        self.target = target
        self.dport = int(dport)
        self.rate_pps = float(rate_pps)
        self.duration_s = float(duration_s)
        self.spoof_subnet = Subnet(spoof_subnet)

    def _emit(self, rng: np.random.Generator):
        n = int(self.rate_pps * self.duration_s)
        base = self.spoof_subnet.network.value
        span = max((1 << (32 - self.spoof_subnet.prefix)) - 2, 1)
        times = np.sort(rng.uniform(0, self.duration_s, size=n))
        srcs = rng.integers(1, span + 1, size=n)
        sports = rng.integers(1024, 65535, size=n)
        seqs = rng.integers(1, 2**31, size=n)
        out = []
        for t, s, sp, seq in zip(times, srcs, sports, seqs):
            out.append((float(t), Packet(
                src=IPv4Address(base + int(s)), dst=self.target,
                sport=int(sp), dport=self.dport,
                proto=Protocol.TCP, flags=TcpFlags.SYN, seq=int(seq))))
        return out


class UdpFlood(Attack):
    """High-volume UDP flood with configurable payload realism.

    ``payload_mode`` selects the content (the lesson-1 experiment knob):

    * ``"random"``  -- uniform random bytes (the naive load test);
    * ``"logical"`` -- size-only packets, no bytes materialized;
    * ``"http"``    -- packets that *look like* web traffic fragments.
    """

    kind = AttackKind.DOS

    def __init__(
        self,
        attacker: IPv4Address,
        target: IPv4Address,
        rate_pps: float = 5000.0,
        duration_s: float = 2.0,
        payload_size: int = 512,
        payload_mode: str = "random",
        dport: int = 7,
    ) -> None:
        super().__init__(description=f"UDP flood at {rate_pps:.0f} pps on {target}")
        if rate_pps <= 0 or duration_s <= 0:
            raise ConfigurationError("rate_pps and duration_s must be positive")
        if payload_mode not in PAYLOAD_MODES:
            raise ConfigurationError(f"unknown payload_mode {payload_mode!r}")
        if payload_size < 0:
            raise ConfigurationError("payload_size must be non-negative")
        self.attacker = attacker
        self.target = target
        self.rate_pps = float(rate_pps)
        self.duration_s = float(duration_s)
        self.payload_size = int(payload_size)
        self.payload_mode = payload_mode
        self.dport = int(dport)

    def _emit(self, rng: np.random.Generator):
        n = int(self.rate_pps * self.duration_s)
        times = np.sort(rng.uniform(0, self.duration_s, size=n))
        payloads, cols = payload_batch(rng, self.payload_mode,
                                       self.payload_size, n,
                                       tail=(65535 - 1024,))
        blen = self.payload_size if self.payload_mode == "logical" else None
        return [(t, Packet(
            src=self.attacker, dst=self.target, sport=1024 + sport,
            dport=self.dport, proto=Protocol.UDP, payload=body,
            payload_len=blen))
            for t, body, (sport,) in zip(times.tolist(), payloads,
                                         cols.tolist())]

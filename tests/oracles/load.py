"""Reference load generation: one packet, and one draw, at a time.

* :func:`load_trace` builds a load-probe trace the way ``make_load_trace``
  did before it drew in batches: per packet, the payload (an
  ``http_request`` cut or padded to size, a ``random_payload``, or a
  logical length), then a scalar source-address and source-port draw.
* :func:`udp_flood_records` is the same loop for ``UdpFlood._emit``:
  payload, then a scalar source-port draw.

``make_load_trace`` and ``UdpFlood._emit`` must produce the same records
field for field and leave the generator in the same state.
"""

from typing import List, Tuple

import numpy as np

from repro.attacks.dos import UdpFlood
from repro.net.address import IPv4Address
from repro.net.packet import Packet, Protocol
from repro.net.trace import Trace
from repro.traffic import payload as pl


def _payload(rng: np.random.Generator, mode: str, size: int):
    """One packet's ``(payload, payload_len)`` drawn from ``rng``."""
    if mode == "http":
        return pl.http_request(rng)[:size].ljust(size, b" "), None
    if mode == "random":
        return pl.random_payload(rng, size), None
    return None, size


def load_trace(
    rng: np.random.Generator,
    rate_pps: float,
    duration_s: float,
    dst: IPv4Address,
    payload_mode: str = "http",
    payload_size: int = 400,
    src_pool: int = 64,
) -> Trace:
    """Benign load traffic at a fixed rate, built packet by packet."""
    n = int(rate_pps * duration_s)
    times = np.sort(rng.uniform(0, duration_s, size=n))
    base = IPv4Address("198.51.100.0").value
    trace = Trace(f"load-{payload_mode}")
    for t in times:
        body, blen = _payload(rng, payload_mode, payload_size)
        trace.append(float(t), Packet(
            src=IPv4Address(base + 1 + int(rng.integers(0, src_pool))),
            dst=dst,
            sport=int(rng.integers(1024, 65535)), dport=80,
            proto=Protocol.TCP, payload=body, payload_len=blen))
    return trace


def udp_flood_records(flood: UdpFlood,
                      rng: np.random.Generator) -> List[Tuple[float, Packet]]:
    """``flood``'s ``(relative_time, Packet)`` records, packet by packet."""
    n = int(flood.rate_pps * flood.duration_s)
    times = np.sort(rng.uniform(0, flood.duration_s, size=n))
    out = []
    for t in times:
        body, blen = _payload(rng, flood.payload_mode, flood.payload_size)
        out.append((float(t), Packet(
            src=flood.attacker, dst=flood.target,
            sport=int(rng.integers(1024, 65535)), dport=flood.dport,
            proto=Protocol.UDP, payload=body, payload_len=blen)))
    return out

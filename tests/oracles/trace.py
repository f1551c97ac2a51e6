"""Reference trace codec and replay: one record at a time.

* :func:`write_v1` / :func:`read_v1` are the v1 per-record stream codec --
  one ``write``/``read`` per field group per record.  The batched
  ``Trace.to_bytes``/``Trace.from_bytes`` must be byte-identical (encode)
  and field-identical, errors included (decode).
* :func:`scheduled_replay` heap-inserts one engine event per record up
  front.  ``Trace.replay`` must deliver the same packets in the same event
  order, ties against unrelated events included.
"""

from typing import BinaryIO, Callable

from repro.errors import TraceFormatError
from repro.net.address import IPv4Address
from repro.net.packet import Packet, TcpFlags
from repro.net.trace import (
    _CODE_PROTO,
    _HEADER,
    _MAGIC,
    _PROTO_CODE,
    _RECORD,
    _VERSION,
    TimedPacket,
    Trace,
)
from repro.sim.engine import Engine


def write_v1(trace: Trace, fh: BinaryIO) -> None:
    """Encode ``trace`` with one stream write per field group per record."""
    fh.write(_HEADER.pack(_MAGIC, _VERSION, len(trace)))
    for t, p in trace:
        payload = p.payload or b""
        attack = (p.attack_id or "").encode("utf-8")
        fh.write(
            _RECORD.pack(
                t,
                p.src.value,
                p.dst.value,
                p.sport,
                p.dport,
                _PROTO_CODE[p.proto],
                int(p.flags),
                p.seq & 0xFFFFFFFF,
                p.ack & 0xFFFFFFFF,
                p.payload_len,
                len(payload),
                len(attack),
            )
        )
        fh.write(payload)
        fh.write(attack)


def read_v1(fh: BinaryIO, name: str) -> Trace:
    """Decode a trace with one stream read per field group per record."""
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, version, count = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise TraceFormatError(f"unsupported trace version {version}")
    trace = Trace(name)
    for _ in range(count):
        raw = fh.read(_RECORD.size)
        if len(raw) != _RECORD.size:
            raise TraceFormatError("truncated trace record")
        (t, src, dst, sport, dport, proto_code, flags,
         seq, ack, plen, blen, alen) = _RECORD.unpack(raw)
        payload = fh.read(blen) if blen else None
        if payload is not None and len(payload) != blen:
            raise TraceFormatError("truncated payload")
        attack_raw = fh.read(alen)
        if len(attack_raw) != alen:
            raise TraceFormatError("truncated attack id")
        pkt = Packet(
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            sport=sport,
            dport=dport,
            proto=_CODE_PROTO[proto_code],
            flags=TcpFlags(flags),
            seq=seq,
            ack=ack,
            payload=payload,
            payload_len=plen,
            attack_id=attack_raw.decode("utf-8") if alen else None,
        )
        # appended unchecked, exactly as the v1 reader did
        trace._records.append(TimedPacket(t, pkt))
    return trace


def scheduled_replay(trace: Trace, engine: Engine,
                     sink: Callable[[Packet], None], start_at: float = 0.0,
                     speedup: float = 1.0) -> None:
    """Schedule one ``engine`` event per record, all up front."""
    if speedup <= 0:
        raise TraceFormatError("speedup must be positive")
    if not len(trace):
        return
    t0 = trace[0].time
    for t, pkt in trace:
        engine.schedule_at(start_at + (t - t0) / speedup, sink, pkt)

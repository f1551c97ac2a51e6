"""Reference audit-event derivation: every check made on every packet.

This is the plain version of :func:`repro.ids.audit.packet_to_events`:
it builds the subject string and a recording closure for every packet,
tests SYN-without-ACK through the ``Protocol`` enum and ``TcpFlags``
members, and parses every non-empty payload for a cluster command.  The
production function must return the same events for every packet and
audit depth.
"""

from __future__ import annotations

from typing import List

from repro.ids.audit import (
    NOMINAL_EVENTS,
    AuditEvent,
    AuditEventType,
    _parse_cluster_command,
)
from repro.net.packet import Packet, Protocol, TcpFlags


def packet_to_events(pkt: Packet, now: float,
                     depth: frozenset = NOMINAL_EVENTS) -> List[AuditEvent]:
    events: List[AuditEvent] = []
    subject = str(pkt.src)
    truth = pkt.attack_id

    def add(etype: AuditEventType, detail: str) -> None:
        if etype in depth:
            events.append(AuditEvent(time=now, etype=etype, subject=subject,
                                     detail=detail, truth_attack_id=truth))

    # connection establishment (TCP SYN toward this host)
    if (pkt.proto is Protocol.TCP and pkt.has_flag(TcpFlags.SYN)
            and not pkt.has_flag(TcpFlags.ACK)):
        add(AuditEventType.CONNECTION, f"tcp connect to port {pkt.dport}")

    payload = pkt.payload
    if payload:
        if b"Login incorrect" in payload:
            add(AuditEventType.LOGIN_FAILURE, "telnet login failure")
        elif b"Last login" in payload:
            add(AuditEventType.LOGIN_SUCCESS, "telnet login success")
        command = _parse_cluster_command(payload)
        if command is not None:
            add(AuditEventType.COMMAND, command)
    return events

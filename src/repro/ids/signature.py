"""Signature-based detection engine.

"A signature-based IDS attempts to detect patterns in network traffic that
are characteristic of known attacks" (section 2.1).  The engine evaluates a
rule set against each packet (and light per-source state for threshold
rules).  Like its commercial counterparts it only knows *previously known*
attacks: the shipped :func:`default_ruleset` covers the attack library's
known vectors but, by construction, not the ``novel=True`` ones.

Sensitivity
-----------
The engine exposes the paper's *Adjustable Sensitivity* metric: a value in
[0, 1].  Raising it lowers threshold-rule trigger counts and enables the
low-specificity "noisy" rules (which occasionally fire on benign traffic) --
trading false negatives for false positives exactly as Figure 4 describes.

Matching kernel
---------------
The paper's Class-3 performance metrics are measured by pushing traffic
through this engine, so its per-packet cost bounds how many scenarios a
CPU-hour of evaluation can sweep.  Rules are bucketed by their declared
static constraints (protocol, destination ports, either-direction ports,
required TCP flag bits) so a packet only visits rules that could possibly
fire, and all payload patterns across all payload/stream rules are
compiled into one shared
:class:`~repro.ids.multipattern.MultiPatternMatcher` so each payload is
scanned once instead of once per pattern.  Hits map back to owning rules
in original rule order, preserving match-report ordering: the matches are
exactly those of running every enabled rule's ``match`` on every packet,
which the differential test suite checks against a reference scan.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..net.packet import Packet, Protocol, TcpFlags
from .alert import Severity
from .multipattern import MultiPatternMatcher

#: proto_id -> Protocol member, inverse of :data:`repro.net.packet.PROTO_IDS`
#: (dispatch keys carry the int id; bucket builds map it back).
_PROTOS = tuple(Protocol)

__all__ = [
    "RuleMatch",
    "SignatureRule",
    "PayloadPatternRule",
    "StreamPatternRule",
    "HeaderRule",
    "ThresholdRule",
    "SignatureEngine",
    "default_ruleset",
]


@dataclass(frozen=True, slots=True)
class RuleMatch:
    """The outcome of a rule firing on a packet."""

    rule: str
    category: str
    severity: Severity
    score: float
    detail: str = ""


class SignatureRule:
    """Base rule.

    Parameters
    ----------
    name / category / severity:
        Identification and the threat class reported on match.
    min_sensitivity:
        The rule is evaluated only when the engine sensitivity is at least
        this value; low-specificity rules carry high values so they only
        fire on aggressive tunings.
    """

    __slots__ = ("name", "category", "severity", "min_sensitivity",
                 "base_score")

    def __init__(
        self,
        name: str,
        category: str,
        severity: Severity = Severity.MEDIUM,
        min_sensitivity: float = 0.0,
        base_score: float = 0.9,
    ) -> None:
        if not 0.0 <= min_sensitivity <= 1.0:
            raise ConfigurationError("min_sensitivity must be in [0, 1]")
        self.name = name
        self.category = category
        self.severity = severity
        self.min_sensitivity = float(min_sensitivity)
        self.base_score = float(base_score)

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        raise NotImplementedError

    def dispatch_constraints(self) -> Tuple[Optional[Protocol],
                                            Optional[FrozenSet[int]],
                                            Optional[FrozenSet[int]],
                                            Optional[TcpFlags]]:
        """Static preconditions for the indexed dispatch path.

        Returns ``(proto, dports, ports, flags)``: the packet protocol
        this rule requires, destination ports it requires, ports it
        requires in *either* direction, and TCP flag bits that must all be
        set -- ``None`` meaning unconstrained.  The contract: any packet
        violating a declared constraint makes :meth:`match` return ``None``
        with no side effects, so the indexed engine may skip the rule
        entirely.  The base class declares nothing (the rule is visited
        for every packet); subclasses with narrower ``match`` logic
        override this to enable dispatch pruning.
        """
        return (None, None, None, None)

    def reset(self) -> None:
        """Clear any per-rule state (between evaluation runs)."""

    def _hit(self, detail: str = "") -> RuleMatch:
        return RuleMatch(self.name, self.category, self.severity,
                         self.base_score, detail)


class PayloadPatternRule(SignatureRule):
    """Match any of a set of byte patterns in the packet payload.

    Only materialized payloads are inspected -- a deliberate property: this
    is the class of rule that makes payload realism matter (lesson 1).
    """

    __slots__ = ("patterns", "ports", "proto", "_indexed_patterns")

    def __init__(
        self,
        name: str,
        patterns: Sequence[bytes],
        ports: Optional[Sequence[int]] = None,
        proto: Optional[Protocol] = None,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        if not patterns:
            raise ConfigurationError("patterns must be non-empty")
        self.patterns = [bytes(p) for p in patterns]
        self.ports = frozenset(int(p) for p in ports) if ports is not None else None
        self.proto = proto
        #: ``(pattern, shared-matcher id)`` pairs, in rule-priority order;
        #: assigned by the indexed engine at index-build time
        self._indexed_patterns: Tuple[Tuple[bytes, int], ...] = ()

    def dispatch_constraints(self):
        return (self.proto, None, self.ports, None)

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        if pkt.payload is None:
            return None
        if self.proto is not None and pkt.proto is not self.proto:
            return None
        if self.ports is not None and pkt.dport not in self.ports and pkt.sport not in self.ports:
            return None
        for pattern in self.patterns:
            if pattern in pkt.payload:
                return self._hit(detail=f"pattern {pattern[:16]!r}")
        return None

    def match_prefiltered(self, pkt: Packet, now: float, sensitivity: float,
                          matched_ids: FrozenSet[int]) -> Optional[RuleMatch]:
        """Indexed fast path: the dispatch index already proved the
        proto/port constraints and the caller guarantees a materialized
        payload; ``matched_ids`` is the shared one-pass scan result."""
        for pattern, pid in self._indexed_patterns:
            if pid in matched_ids:
                return self._hit(detail=f"pattern {pattern[:16]!r}")
        return None


class StreamPatternRule(SignatureRule):
    """Match byte patterns across TCP segment boundaries.

    Per-packet rules miss an attack whose signature straddles two segments
    (an easy evasion).  This rule keeps a bounded per-direction rolling
    buffer per flow: each segment is appended to the retained tail of the
    stream so any pattern shorter than the tail cannot slip through a
    segmentation seam.  Out-of-order delivery within a flow is handled by
    sequencing on TCP sequence numbers when they are contiguous and
    falling back to arrival order otherwise (the common fast path of
    commercial engines, which do not buffer out-of-order segments for full
    reassembly).

    Flow-state economy: a carried tail can only ever matter if some byte
    of it could *start* a pattern, so flow state is stored only for tails
    containing at least one pattern-leading byte (a single C-speed
    character-class search over the last ``tail_len`` bytes decides).
    Benign traffic therefore keeps the flow table essentially empty -- a
    packet costs one dict miss instead of insert-and-evict churn.  When
    the ``max_flows`` cap is hit anyway, the oldest stored flow is evicted
    in amortized O(1) via a creation-order key queue -- no full-table
    sweeps on the packet path.  (A ``next(iter(dict))`` eviction cursor
    was tried first; under churn it degrades to scanning the tombstones
    that deletions leave in the dict's entry array.)
    """

    __slots__ = ("patterns", "ports", "max_flows", "window_s", "_tail_len",
                 "_tail_gate", "_streams", "_order", "_indexed_patterns")

    def __init__(
        self,
        name: str,
        patterns: Sequence[bytes],
        ports: Optional[Sequence[int]] = None,
        max_flows: int = 8192,
        window_s: float = 30.0,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        if not patterns:
            raise ConfigurationError("patterns must be non-empty")
        self.patterns = [bytes(p) for p in patterns]
        self.ports = frozenset(int(p) for p in ports) if ports is not None else None
        self.max_flows = int(max_flows)
        self.window_s = float(window_s)
        self._tail_len = max(len(p) for p in self.patterns) - 1
        # "could a pattern start in this tail?" -- class of leading bytes
        first = sorted({p[0] for p in self.patterns})
        self._tail_gate = re.compile(
            b"[" + b"".join(re.escape(bytes((b,))) for b in first) + b"]")
        # (src, sport, dst, dport) -> [stored_at, expected_seq, tail];
        # only flows whose tail passes the gate are present
        self._streams: Dict[tuple, list] = {}
        # stored-flow keys, oldest first; may contain stale keys (state
        # dropped on hit/degenerate tail), compacted when 2x the cap
        self._order: deque = deque()
        self._indexed_patterns: Tuple[Tuple[bytes, int], ...] = ()

    def dispatch_constraints(self):
        return (None, None, self.ports, None)

    def reset(self) -> None:
        self._streams.clear()
        self._order.clear()

    def _valid_tail(self, pkt: Packet, now: float, state: Optional[list]) -> bytes:
        """The carried tail, or ``b""`` when absent/expired/out-of-seq."""
        if state is None:
            return b""
        if now - state[0] > self.window_s or pkt.seq != state[1]:
            return b""
        return state[2]

    def _store_tail(self, key: tuple, state: Optional[list], pkt: Packet,
                    now: float, haystack: bytes) -> None:
        """Persist the next packet's seam context -- the trailing
        ``tail_len`` bytes of ``haystack`` -- but only if a pattern could
        start inside it; otherwise drop any stale state (an absent entry
        and an unusable tail are equivalent, and keeping the table free of
        dead flows is what makes the common path one dict miss)."""
        streams = self._streams
        tail_len = self._tail_len
        if tail_len and self._tail_gate.search(
                haystack, max(0, len(haystack) - tail_len)) is not None:
            tail = haystack[-tail_len:]
            if state is not None:
                state[0] = now
                state[1] = pkt.seq + len(pkt.payload)
                state[2] = tail
                return
            order = self._order
            while len(streams) >= self.max_flows:
                stale = streams.pop(order.popleft(), None)
                if stale is not None:
                    break
            streams[key] = [now, pkt.seq + len(pkt.payload), tail]
            order.append(key)
            if len(order) >= 2 * self.max_flows:
                # drop stale keys; dict.fromkeys dedups re-created flows
                self._order = deque(dict.fromkeys(
                    k for k in order if k in streams))
        elif state is not None:
            del streams[key]

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        payload = pkt.payload
        if payload is None:
            return None
        if self.ports is not None and pkt.dport not in self.ports \
                and pkt.sport not in self.ports:
            return None
        if pkt.proto is not Protocol.TCP:
            # datagrams have no stream: plain per-packet matching
            for pattern in self.patterns:
                if pattern in payload:
                    return self._hit(detail=f"pattern {pattern[:16]!r}")
            return None
        key = (pkt.src.value, pkt.sport, pkt.dst.value, pkt.dport)
        state = self._streams.get(key)
        tail = self._valid_tail(pkt, now, state)
        haystack = tail + payload if tail else payload
        for pattern in self.patterns:
            if pattern in haystack:
                if state is not None:
                    del self._streams[key]  # one hit per occurrence window
                return self._hit(detail=f"stream pattern {pattern[:16]!r}")
        self._store_tail(key, state, pkt, now, haystack)
        return None

    def match_prefiltered(self, pkt: Packet, now: float, sensitivity: float,
                          matched_ids: FrozenSet[int]) -> Optional[RuleMatch]:
        """Indexed fast path.  A pattern occurs in ``tail + payload`` iff
        it occurs inside the payload (covered by the shared scan) or in the
        seam ``tail + payload[:tail_len]`` (every boundary-straddling
        occurrence starts in the tail and ends within ``tail_len`` payload
        bytes), so the full haystack is never re-scanned per pattern."""
        payload = pkt.payload
        if pkt.proto is not Protocol.TCP:
            for pattern, pid in self._indexed_patterns:
                if pid in matched_ids:
                    return self._hit(detail=f"pattern {pattern[:16]!r}")
            return None
        streams = self._streams
        if streams:
            key = (pkt.src.value, pkt.sport, pkt.dst.value, pkt.dport)
            state = streams.get(key)
        else:
            key = state = None  # empty table: skip the flow-key build
        tail_len = self._tail_len
        if state is not None and now - state[0] <= self.window_s \
                and pkt.seq == state[1]:
            seam = state[2] + payload[:tail_len]
        else:
            seam = b""
        if matched_ids or seam:
            for pattern, pid in self._indexed_patterns:
                if pid in matched_ids or (seam and pattern in seam):
                    if state is not None:
                        del streams[key]  # one hit per occurrence window
                    return self._hit(detail=f"stream pattern {pattern[:16]!r}")
        if state is None:
            # benign fast path: no stored flow, and nothing to store unless
            # a pattern could start inside the would-be tail
            plen = len(payload)
            if tail_len and self._tail_gate.search(
                    payload,
                    plen - tail_len if plen > tail_len else 0) is not None:
                if key is None:
                    key = (pkt.src.value, pkt.sport, pkt.dst.value, pkt.dport)
                self._store_tail(key, None, pkt, now, payload)
            return None
        self._store_tail(key, state, pkt, now,
                         state[2] + payload if seam else payload)
        return None


class HeaderRule(SignatureRule):
    """Match on header fields only (proto, ports, flags, size)."""

    __slots__ = ("proto", "dports", "flags", "min_payload", "predicate")

    def __init__(
        self,
        name: str,
        proto: Optional[Protocol] = None,
        dports: Optional[Sequence[int]] = None,
        flags: Optional[TcpFlags] = None,
        min_payload: Optional[int] = None,
        predicate: Optional[Callable[[Packet], bool]] = None,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        self.proto = proto
        self.dports = frozenset(int(p) for p in dports) if dports is not None else None
        self.flags = flags
        self.min_payload = min_payload
        self.predicate = predicate

    def dispatch_constraints(self):
        return (self.proto, self.dports, None, self.flags)

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        if self.proto is not None and pkt.proto is not self.proto:
            return None
        if self.dports is not None and pkt.dport not in self.dports:
            return None
        if self.flags is not None and (pkt.flags & self.flags) != self.flags:
            return None
        if self.min_payload is not None and pkt.payload_len < self.min_payload:
            return None
        if self.predicate is not None and not self.predicate(pkt):
            return None
        return self._hit()


class ThresholdRule(SignatureRule):
    """Fire when a keyed event count exceeds a threshold within a window.

    This is the portscan-preprocessor family: ``key_fn`` buckets events
    (e.g. by source address), ``value_fn`` extracts the counted item
    (``None`` to skip the packet; a hashable to count *distinct* items, or
    the sentinel :attr:`COUNT` to count occurrences).

    The effective threshold scales with sensitivity: at 0 it doubles, at 1
    it halves -- the knob the Figure-4 sweep turns.

    ``proto`` / ``dports`` / ``flags`` optionally declare, as indexable
    constraints, preconditions the key/value functions already imply (a
    rule keyed on TCP SYNs can declare ``proto=Protocol.TCP,
    flags=TcpFlags.SYN``).  They are dispatch metadata only -- ``match``
    itself never consults them -- which makes the contract easy to state:
    the declaration must be implied by ``key_fn``/``value_fn`` returning
    ``None``, or the engine would skip a rule that could fire.
    """

    COUNT = object()

    __slots__ = ("key_fn", "value_fn", "threshold", "window_s", "proto",
                 "dports", "flags", "_state", "_eff_cache")

    def __init__(
        self,
        name: str,
        key_fn: Callable[[Packet], Optional[object]],
        value_fn: Callable[[Packet], Optional[object]],
        threshold: int,
        window_s: float = 5.0,
        proto: Optional[Protocol] = None,
        dports: Optional[Sequence[int]] = None,
        flags: Optional[TcpFlags] = None,
        **kwargs,
    ) -> None:
        super().__init__(name, **kwargs)
        if threshold < 1:
            raise ConfigurationError("threshold must be >= 1")
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        self.key_fn = key_fn
        self.value_fn = value_fn
        self.threshold = int(threshold)
        self.window_s = float(window_s)
        self.proto = proto
        self.dports = frozenset(int(p) for p in dports) if dports is not None else None
        self.flags = flags
        # key -> (window_start, set-or-int, fired_in_window)
        self._state: Dict[object, list] = {}
        self._eff_cache: Tuple[float, int] = (-1.0, 0)

    def dispatch_constraints(self):
        return (self.proto, self.dports, None, self.flags)

    def reset(self) -> None:
        self._state.clear()

    def effective_threshold(self, sensitivity: float) -> int:
        cached_s, cached_t = self._eff_cache
        if cached_s == sensitivity:
            return cached_t
        value = max(1, int(round(self.threshold * (2.0 ** (1.0 - 2.0 * sensitivity)))))
        self._eff_cache = (sensitivity, value)
        return value

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        key = self.key_fn(pkt)
        if key is None:
            return None
        state = self._state.get(key)
        if state is not None and now - state[0] <= self.window_s:
            if state[2]:
                # one alert per key per window, and a fired window's count
                # is unobservable until expiry replaces the state wholesale
                # -- skip the accounting (value_fn included) entirely
                return None
        else:
            state = None  # expired: treat as absent
        value = self.value_fn(pkt)
        if value is None:
            return None
        if state is None:
            state = [now, (0 if value is ThresholdRule.COUNT else set()), False]
            self._state[key] = state
        if value is ThresholdRule.COUNT:
            count = state[1] + 1
            state[1] = count
        else:
            values = state[1]
            values.add(value)
            count = len(values)
        # inline the memoized effective threshold: sensitivity is fixed
        # across a run, so this is one tuple compare on the hot path
        cached_s, eff = self._eff_cache
        if cached_s != sensitivity:
            eff = self.effective_threshold(sensitivity)
        if count >= eff:
            state[2] = True
            return self._hit(detail=f"count={count} key={key}")
        return None


class SignatureEngine:
    """Evaluate a rule set against a packet stream.

    Parameters
    ----------
    rules:
        The rule set; order is preserved in match reporting.  The engine
        indexes it at construction -- build a new engine rather
        than mutating ``rules`` afterwards.
    sensitivity:
        Engine-wide sensitivity in [0, 1]; see module docstring.
    """

    def __init__(self, rules: Sequence[SignatureRule],
                 sensitivity: float = 0.5) -> None:
        self.rules = list(rules)
        # (proto, normalized dport, normalized sport, masked flags) ->
        # rule bucket; rebuilt lazily, emptied whenever sensitivity changes
        # (same dict object throughout: the hot tuple below captures it)
        self._dispatch: Dict[tuple, tuple] = {}
        self._matcher: Optional[MultiPatternMatcher] = None
        self._dports_of_interest: FrozenSet[int] = frozenset()
        self._sports_of_interest: FrozenSet[int] = frozenset()
        self._flags_mask = 0
        self.sensitivity = sensitivity
        self.packets_inspected = 0
        self.matches = 0
        self._build_index()
        # one attribute read per packet instead of five
        self._hot = (self._dispatch, self._dports_of_interest,
                     self._sports_of_interest, self._flags_mask,
                     self._matcher.scan)

    @property
    def sensitivity(self) -> float:
        return self._sensitivity

    @sensitivity.setter
    def sensitivity(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError("sensitivity must be in [0, 1]")
        self._sensitivity = float(value)
        # dispatch buckets bake in the min_sensitivity gate; clear in
        # place so the hot tuple's reference stays valid
        self._dispatch.clear()

    # ------------------------------------------------------------------
    # rule index + shared multi-pattern automaton
    # ------------------------------------------------------------------
    def _build_index(self) -> None:
        pattern_rules = [r for r in self.rules
                         if type(r) in (PayloadPatternRule, StreamPatternRule)]
        self._matcher = MultiPatternMatcher(
            p for rule in pattern_rules for p in rule.patterns)
        for rule in pattern_rules:
            rule._indexed_patterns = tuple(
                (p, self._matcher.pattern_id(p)) for p in rule.patterns)
        dports, sports, flags_mask = set(), set(), 0
        for rule in self.rules:
            _, rule_dports, rule_ports, rule_flags = rule.dispatch_constraints()
            if rule_dports:
                dports |= rule_dports
            if rule_ports:
                dports |= rule_ports
                sports |= rule_ports
            if rule_flags:
                flags_mask |= int(rule_flags)
        self._dports_of_interest = frozenset(dports)
        self._sports_of_interest = frozenset(sports)
        self._flags_mask = flags_mask

    def _build_bucket(self, key: int) -> tuple:
        """Rules that can possibly fire for packets normalizing to ``key``,
        in original rule order, each paired with its fast-path method.

        Returns ``(full, header_only, guard)``:

        * ``full`` -- every eligible rule, paired with its fast-path flag,
          for payload packets that might involve pattern rules;
        * ``header_only`` -- the non-prefiltered subset, walked for
          payload-less packets (pattern rules never fire on those) and for
          payload packets the guard proves pattern-rule-free;
        * ``guard`` -- ``None`` when the bucket has no prefiltered rules,
          else ``(gate, span, tables)`` deciding whether an empty scan
          result lets the hot loop skip every prefiltered call: it may
          unless some stream rule holds flow state (``tables`` are their
          live ``_streams`` dicts) or a pattern could start inside the
          packet's would-be carried tail (``gate`` is the union of the
          stream rules' first-byte classes, searched over the trailing
          ``span`` bytes -- a superset of each rule's own store gate, so
          a combined miss implies every per-rule store is a no-op).
        """
        flag_bits = key & 0x3F
        sport = (key >> 6) & 0x1FFFF
        dport = (key >> 23) & 0x1FFFF
        proto = _PROTOS[key >> 40]
        sport = -1 if sport == 0x10000 else sport
        dport = -1 if dport == 0x10000 else dport
        s = self._sensitivity
        bucket = []
        for rule in self.rules:
            if s < rule.min_sensitivity:
                continue
            rule_proto, rule_dports, rule_ports, rule_flags = \
                rule.dispatch_constraints()
            if rule_proto is not None and proto is not rule_proto:
                continue
            if rule_dports is not None and dport not in rule_dports:
                continue
            if rule_ports is not None and dport not in rule_ports \
                    and sport not in rule_ports:
                continue
            if rule_flags is not None \
                    and (flag_bits & int(rule_flags)) != int(rule_flags):
                continue
            # exact-type check: a subclass overriding match() must not be
            # silently routed through the inherited prefiltered path
            if type(rule) in (PayloadPatternRule, StreamPatternRule):
                bucket.append((rule.match_prefiltered, True))
            else:
                bucket.append((rule.match, False))
        stream_rules = [fn.__self__ for fn, pref in bucket
                        if pref and type(fn.__self__) is StreamPatternRule]
        if any(pref for _, pref in bucket):
            # tail_len 0 means single-byte patterns: no tail is ever
            # carried, so such rules need no store gate either
            stream_rules = [r for r in stream_rules if r._tail_len]
            if stream_rules:
                first = sorted({p[0] for r in stream_rules for p in r.patterns})
                gate = re.compile(
                    b"[" + b"".join(re.escape(bytes((b,))) for b in first)
                    + b"]")
                span = max(r._tail_len for r in stream_rules)
                guard = (gate, span, tuple(r._streams for r in stream_rules))
            else:
                guard = (None, 0, ())
        else:
            guard = None
        result = (tuple(bucket),
                  tuple(fn for fn, pref in bucket if not pref),
                  guard)
        self._dispatch[key] = result
        return result

    # ------------------------------------------------------------------
    def inspect(self, pkt: Packet, now: float) -> List[RuleMatch]:
        """Run every enabled rule that can fire against the packet."""
        self.packets_inspected += 1
        s = self._sensitivity
        # hits are rare: plain .append on the hit path beats paying a
        # bound-method binding on every packet
        hits: List[RuleMatch] = []
        dispatch, dports, sports, flags_mask, scan = self._hot
        key = ((pkt.proto_id << 40)
               | ((pkt.dport if pkt.dport in dports else 0x10000) << 23)
               | ((pkt.sport if pkt.sport in sports else 0x10000) << 6)
               | (pkt.flag_bits & flags_mask))
        bucket = dispatch.get(key)
        if bucket is None:
            bucket = self._build_bucket(key)
        payload = pkt.payload
        guard = bucket[2]
        if payload is None or guard is None:
            # pattern rules never fire on logical payloads (and touch
            # no stream state for them): walk the header-only bucket
            for fn in bucket[1]:
                m = fn(pkt, now, s)
                if m is not None:
                    hits.append(m)
        else:
            matched = scan(payload)
            skip = False
            if not matched:
                # nothing matched anywhere in the payload; prefiltered
                # calls are no-ops unless stream state is in play
                gate, span, tables = guard
                if gate is None or pkt.proto is not Protocol.TCP:
                    skip = True
                else:
                    plen = len(payload)
                    if gate.search(
                            payload,
                            plen - span if plen > span else 0) is None:
                        # suffix gate miss: no stream rule will store a
                        # tail off this packet.  The only remaining
                        # side effect would be on an existing entry for
                        # this flow; with the flow key absent from
                        # every table, each prefiltered call is a
                        # provable no-op.
                        skip = True
                        flow = (pkt.src.value, pkt.sport,
                                pkt.dst.value, pkt.dport)
                        for table in tables:
                            if flow in table:
                                skip = False
                                break
            if skip:
                for fn in bucket[1]:
                    m = fn(pkt, now, s)
                    if m is not None:
                        hits.append(m)
            else:
                for fn, prefiltered in bucket[0]:
                    if prefiltered:
                        m = fn(pkt, now, s, matched)
                    else:
                        m = fn(pkt, now, s)
                    if m is not None:
                        hits.append(m)
        self.matches += len(hits)
        return hits

    def reset(self) -> None:
        for rule in self.rules:
            rule.reset()
        self.packets_inspected = 0
        self.matches = 0

    @property
    def rule_count(self) -> int:
        return len(self.rules)


# ----------------------------------------------------------------------
# The shipped rule set (what a 2002 commercial signature IDS "knows").
# ----------------------------------------------------------------------

#: Destination ports regarded as ordinary services on the protected nets.
_KNOWN_SERVICE_PORTS = frozenset({21, 22, 23, 25, 53, 80, 110, 143, 443,
                                  7000, 7001, 8000})

_SYN_BITS = int(TcpFlags.SYN)
_SYN_ACK_BITS = int(TcpFlags.SYN | TcpFlags.ACK)


def default_ruleset(payload_inspection: bool = True) -> List[SignatureRule]:
    """The stock rule set shipped with the simulated signature products.

    ``payload_inspection=False`` yields a header-only variant (the class of
    IDS lesson 1 says random-data floods *can* load-test).
    """
    from ..attacks.exploits import CGI_PROBE_PATHS, OVERFLOW_MARKER

    # bare-SYN test on the int mirror of the flag field: these lambdas run
    # per packet, where IntFlag operations are measurably slow
    syn_ack = int(TcpFlags.SYN | TcpFlags.ACK)
    syn = int(TcpFlags.SYN)

    rules: List[SignatureRule] = [
        # --- reconnaissance -------------------------------------------
        ThresholdRule(
            "syn-portscan",
            key_fn=lambda p: p.src.value if (
                p.proto is Protocol.TCP
                and p.flag_bits & syn_ack == syn) else None,
            value_fn=lambda p: p.dport,
            threshold=40, window_s=5.0, proto=Protocol.TCP,
            flags=TcpFlags.SYN,
            category="portscan", severity=Severity.MEDIUM),
        ThresholdRule(
            "icmp-sweep",
            key_fn=lambda p: p.src.value if p.proto is Protocol.ICMP else None,
            value_fn=lambda p: p.dst.value,
            threshold=8, window_s=5.0, proto=Protocol.ICMP,
            category="host-sweep", severity=Severity.LOW),
        # --- flooding --------------------------------------------------
        ThresholdRule(
            "syn-flood",
            key_fn=lambda p: p.dst.value if (
                p.proto is Protocol.TCP
                and p.flag_bits & syn_ack == syn) else None,
            value_fn=lambda p: ThresholdRule.COUNT,
            threshold=600, window_s=2.0, proto=Protocol.TCP,
            flags=TcpFlags.SYN,
            category="syn-flood", severity=Severity.HIGH),
        ThresholdRule(
            "udp-flood",
            key_fn=lambda p: p.dst.value if p.proto is Protocol.UDP
            and p.dport not in (7000,) else None,
            value_fn=lambda p: ThresholdRule.COUNT,
            threshold=1500, window_s=2.0, proto=Protocol.UDP,
            category="udp-flood", severity=Severity.HIGH),
        # --- brute force -----------------------------------------------
        ThresholdRule(
            "telnet-bruteforce",
            key_fn=lambda p: (p.src.value, p.dst.value) if (
                p.proto is Protocol.TCP and p.dport == 23) else None,
            value_fn=lambda p: ThresholdRule.COUNT,
            threshold=60, window_s=10.0, proto=Protocol.TCP, dports=(23,),
            category="brute-force", severity=Severity.HIGH),
    ]
    if payload_inspection:
        rules += [
            # stream-aware: a marker split across TCP segments still matches
            StreamPatternRule(
                "shellcode-marker", [OVERFLOW_MARKER, b"\x90\x90\x90\x90\x90\x90"],
                category="overflow-exploit", severity=Severity.CRITICAL),
            StreamPatternRule(
                "cgi-probes",
                [p.split("?")[0].encode("ascii") for p in CGI_PROBE_PATHS],
                ports=[80],
                category="cgi-exploit", severity=Severity.HIGH),
            PayloadPatternRule(
                "login-failure-storm", [b"Login incorrect"],
                ports=[23],
                category="brute-force", severity=Severity.MEDIUM,
                base_score=0.6),
            # --- low-specificity "noisy" rules (high sensitivity only) --
            _LongUriRule(),
        ]
        rules.append(_OddPortRule())
    else:
        rules.append(_OddPortRule())
    return rules


class _LongUriRule(SignatureRule):
    """Noisy rule: flag HTTP requests with unusually long URIs.

    The URI-length cutoff shrinks as sensitivity rises, so aggressive
    tunings flag a tail of perfectly benign requests -- a realistic
    false-positive source.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("long-uri", category="suspicious-http",
                         severity=Severity.LOW, min_sensitivity=0.55,
                         base_score=0.35)

    def dispatch_constraints(self):
        return (Protocol.TCP, frozenset((80,)), None, None)

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        if pkt.payload is None or pkt.proto is not Protocol.TCP or pkt.dport != 80:
            return None
        if not pkt.payload.startswith((b"GET ", b"POST ", b"HEAD ")):
            return None
        try:
            uri = pkt.payload.split(b" ", 2)[1]
        except IndexError:
            return None
        cutoff = int(120 - 90 * sensitivity)  # 120 chars at s=0 .. 30 at s=1
        if len(uri) > cutoff:
            return self._hit(detail=f"uri_len={len(uri)}")
        return None


class _OddPortRule(SignatureRule):
    """Noisy rule: TCP SYN to a non-standard service port.

    Catches the novel exploit's port 31337 -- but at high sensitivity also
    fires on benign ephemeral-port traffic.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("odd-port-service", category="suspicious-connection",
                         severity=Severity.LOW, min_sensitivity=0.7,
                         base_score=0.3)

    def dispatch_constraints(self):
        return (Protocol.TCP, None, None, TcpFlags.SYN)

    def match(self, pkt: Packet, now: float, sensitivity: float) -> Optional[RuleMatch]:
        if pkt.proto is not Protocol.TCP:
            return None
        if pkt.flag_bits & _SYN_ACK_BITS != _SYN_BITS:  # bare SYN only
            return None
        if pkt.dport in _KNOWN_SERVICE_PORTS:
            return None
        # At the highest sensitivities even high ephemeral ports are flagged;
        # lower sensitivities only mind privileged/odd low ports.
        cutoff = 1024 if sensitivity < 0.85 else 65536
        if pkt.dport < cutoff or pkt.dport in (31337, 12345, 27374):
            return self._hit(detail=f"dport={pkt.dport}")
        return None

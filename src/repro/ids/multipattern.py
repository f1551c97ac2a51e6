"""Multi-pattern matching kernel for the signature engine's hot path.

A signature rule set carries dozens of byte patterns (shellcode markers,
CGI probe paths, protocol banners).  Evaluated naively, every packet
payload is scanned once *per pattern* -- O(rules x patterns x bytes).  The
classic fix, used by every production signature IDS since Snort 2, is a
single multi-pattern pass: compile all patterns into one Aho-Corasick
automaton and scan each payload exactly once, then map the hits back to
the rules that own the patterns.

Two layers live here:

* :class:`AhoCorasick` -- a textbook pure-python automaton (goto trie +
  failure links, outputs merged through the failure chain at build time)
  that enumerates every distinct pattern occurring in a haystack in one
  left-to-right pass.
* :class:`MultiPatternMatcher` -- the engine-facing wrapper.  It dedups
  patterns, assigns stable integer ids, and *gates* the python automaton
  behind a single compiled alternation regex: one C-speed ``re.search``
  answers "does any pattern occur at all?", and only payloads that gate in
  (attack traffic, by construction a small minority) pay for the python
  enumeration pass.  Benign payloads -- the overwhelming hot path -- cost
  one scan total instead of one scan per pattern.

The result set is exact, not approximate: :meth:`MultiPatternMatcher.scan`
returns precisely the ids of patterns with at least one occurrence, so the
indexed :class:`~repro.ids.signature.SignatureEngine` reproduces a linear
rule scan's matches byte-for-byte.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from ..errors import ConfigurationError

__all__ = ["AhoCorasick", "MultiPatternMatcher"]

#: Shared empty result for the no-pattern / no-hit fast paths.
_EMPTY: FrozenSet[int] = frozenset()


class AhoCorasick:
    """Aho-Corasick automaton over a fixed list of byte patterns.

    Pattern ids are positions in the input sequence.  Duplicate patterns
    are legal: every id whose pattern occurs is reported.

    >>> ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
    >>> sorted(ac.search_ids(b"ushers"))
    [0, 1, 3]
    """

    __slots__ = ("patterns", "_goto", "_fail", "_out")

    def __init__(self, patterns: Sequence[bytes]) -> None:
        self.patterns: List[bytes] = [bytes(p) for p in patterns]
        if any(not p for p in self.patterns):
            raise ConfigurationError("patterns must be non-empty byte strings")
        # goto trie: node -> {byte: node}; out: node -> pattern ids ending here
        goto: List[Dict[int, int]] = [{}]
        out: List[Tuple[int, ...]] = [()]
        for pid, pattern in enumerate(self.patterns):
            node = 0
            for byte in pattern:
                nxt = goto[node].get(byte)
                if nxt is None:
                    nxt = len(goto)
                    goto[node][byte] = nxt
                    goto.append({})
                    out.append(())
                node = nxt
            out[node] += (pid,)
        # breadth-first failure links; merge each node's output with its
        # failure target's so one lookup per visited node yields every
        # pattern ending there (including proper-suffix patterns)
        fail = [0] * len(goto)
        queue: deque = deque(goto[0].values())
        while queue:
            node = queue.popleft()
            for byte, nxt in goto[node].items():
                queue.append(nxt)
                f = fail[node]
                while f and byte not in goto[f]:
                    f = fail[f]
                target = goto[f].get(byte, 0)
                if target == nxt:  # a depth-1 node falls back to the root
                    target = 0
                fail[nxt] = target
                out[nxt] += out[target]
        self._goto = goto
        self._fail = fail
        self._out = out

    def __len__(self) -> int:
        return len(self.patterns)

    def iter_matches(self, haystack: bytes) -> Iterator[Tuple[int, int]]:
        """Yield ``(pattern_id, end_offset)`` for every occurrence."""
        goto, fail, out = self._goto, self._fail, self._out
        node = 0
        for pos, byte in enumerate(haystack):
            while node and byte not in goto[node]:
                node = fail[node]
            node = goto[node].get(byte, 0)
            for pid in out[node]:
                yield pid, pos + 1

    def search_ids(self, haystack: bytes) -> Set[int]:
        """The set of pattern ids with at least one occurrence."""
        goto, fail, out = self._goto, self._fail, self._out
        node = 0
        found: Set[int] = set()
        for byte in haystack:
            while node and byte not in goto[node]:
                node = fail[node]
            node = goto[node].get(byte, 0)
            o = out[node]
            if o:
                found.update(o)
        return found


class MultiPatternMatcher:
    """Deduped pattern registry + gated one-pass payload scanner.

    Built once per indexed :class:`~repro.ids.signature.SignatureEngine`
    over the union of every payload/stream rule's patterns.  Rules hold
    ``(pattern, id)`` tuples and test membership of the id in the scan
    result, preserving their own pattern-priority order.
    """

    __slots__ = ("patterns", "_ids", "_automaton", "_gate")

    def __init__(self, patterns: Iterable[bytes]) -> None:
        # dict.fromkeys dedups while preserving first-seen order, so ids
        # are stable for a given rule set
        self.patterns: List[bytes] = list(dict.fromkeys(
            bytes(p) for p in patterns))
        if any(not p for p in self.patterns):
            raise ConfigurationError("patterns must be non-empty byte strings")
        self._ids: Dict[bytes, int] = {
            p: i for i, p in enumerate(self.patterns)}
        self._automaton = AhoCorasick(self.patterns) if self.patterns else None
        self._gate = (re.compile(b"|".join(re.escape(p)
                                           for p in self.patterns))
                      if self.patterns else None)

    def __len__(self) -> int:
        return len(self.patterns)

    def pattern_id(self, pattern: bytes) -> int:
        """Stable id of a registered pattern (KeyError if unknown)."""
        return self._ids[bytes(pattern)]

    def scan(self, payload: bytes) -> FrozenSet[int]:
        """Ids of every pattern occurring anywhere in ``payload``.

        The common benign case returns after one C-speed regex pass; the
        exact python enumeration runs only when some pattern is present.
        """
        if self._gate is None or self._gate.search(payload) is None:
            return _EMPTY
        return frozenset(self._automaton.search_ids(payload))

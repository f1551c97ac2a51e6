"""Shared trace corpus for the evaluation battery.

Every work unit of the battery starts by *generating* traffic: the benign
warmup trace, the labeled accuracy scenario, and one load trace per probe
rate.  Generation is deterministic given its parameters, and the traces do
not depend on the product under test, so this module memoizes them -- the
paper's "canned data with known attack content", literally canned -- keyed
by a content hash of the generation parameters (plus the package and
attack-catalog versions, like the result cache).

Every :class:`TraceCorpus` has two tiers:

* an **in-memory tier**, always on: an LRU of the objects built or decoded
  in this process, bounded by the packets it retains
  (:data:`MEMORY_PACKETS`, enough for one full E1 battery), so a run that
  touches the same scenario four times -- once per product -- generates it
  once, and a long sweep cannot grow memory without limit;
* a **disk tier**, only for a corpus with a ``root``: ``.rtrc`` files under
  ``<cache_dir>/traces/``, which pool workers and later runs map read-only
  via the batched ``Trace.load`` path.

The corpus is *ambient*: :func:`use_corpus` activates a disk-backed corpus
for a ``with`` block, and the generation call sites
(:meth:`repro.eval.testbed.EvalTestbed`, ``cluster_scenario``/
``ecommerce_scenario``, ``probe_rate``) route through
:func:`corpus_trace`/:func:`corpus_scenario`, which serve from a root-less,
memory-only corpus whenever no cache dir is active.  Results are
bit-identical either way: the trace format round-trips every field exactly
(times are f64), packet ``pid``s are diagnostic-only by contract, packet
memo slots are pure functions of the payload, and every RNG stream is
derived independently per name, so skipping a generation never shifts
another stream.

Treat corpus-returned traces as read-only; they are shared across products
within a process.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from .. import __version__
from ..attacks.catalog import CATALOG_VERSION
from ..net.trace import Trace
from ..traffic.mixer import Scenario

__all__ = [
    "CORPUS_SUBDIR",
    "CorpusStats",
    "MEMORY_PACKETS",
    "TraceCorpus",
    "use_corpus",
    "active_corpus",
    "corpus_trace",
    "corpus_scenario",
    "corpus_root",
    "corpus_stats",
    "clear_corpus",
]

#: Corpus directory under the harness cache dir (``.repro-cache/traces/``).
CORPUS_SUBDIR = "traces"

_CORPUS_FORMAT = 1  # bump to invalidate every corpus entry

#: Packets the memory tier of one corpus retains at most.  One full E1
#: battery -- scenario 18,771 + warmup 3,708 + the 8-rate load ladder
#: 127,500, about 150k packets -- fits with room to spare, so every product
#: after the first replays from memory.
MEMORY_PACKETS = 250_000


@dataclass
class CorpusStats:
    """Hit/miss/store counters (in-memory hits count as hits)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.hits, self.misses, self.stores)


def _codec_exact(trace: Trace) -> bool:
    """True when the trace round-trips the ``.rtrc`` codec bit-exactly.

    The one lossy corner of the format is a materialized *empty* payload
    (``b""`` decodes as ``None``); no generator produces one today, but a
    trace containing one must bypass the corpus rather than change shape
    between the cold and warm runs.
    """
    for _, pkt in trace:
        if pkt.payload is not None and len(pkt.payload) == 0:
            return False
    return True


class TraceCorpus:
    """Content-hash-keyed trace store: an in-memory tier, plus a disk tier
    under ``root`` when one is given.

    The memory tier is an LRU bounded by retained packets
    (:data:`MEMORY_PACKETS`); a trace larger than the bound is returned but
    not retained.  Disk layout: ``<key>.rtrc`` holds the trace; scenarios
    add a ``<key>.meta.pkl`` sidecar with the picklable ground-truth
    metadata (name, duration, seed, :class:`~repro.attacks.base.AttackRecord`
    list).  Writes are atomic (temp file + rename); unreadable entries are
    misses to be regenerated, never a crash -- the same contract as the
    result cache.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root
        self.stats = CorpusStats()
        #: key -> (trace or scenario, packets), least recently used first
        self._memory: OrderedDict[str, Tuple[object, int]] = OrderedDict()

    # ------------------------------------------------------------------
    def _key(self, kind: str, token: tuple) -> str:
        payload = repr(("repro-corpus", _CORPUS_FORMAT, __version__,
                        CATALOG_VERSION, kind, token))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str, suffix: str) -> Optional[str]:
        if self.root is None:
            return None
        return os.path.join(self.root, key + suffix)

    def _store_file(self, path: str, data: bytes) -> None:
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    # memory tier
    # ------------------------------------------------------------------
    @property
    def retained_packets(self) -> int:
        """Packets held by the memory tier."""
        return sum(packets for _, packets in self._memory.values())

    def clear_memory(self) -> None:
        """Drop the memory tier (the disk tier is untouched)."""
        self._memory.clear()

    def _recall(self, key: str):
        entry = self._memory.get(key)
        if entry is None:
            return None
        self._memory.move_to_end(key)
        self.stats.hits += 1
        return entry[0]

    def _retain(self, key: str, value: object, packets: int) -> None:
        if packets > MEMORY_PACKETS:
            return
        retained = self.retained_packets
        while retained + packets > MEMORY_PACKETS:
            _, (_, evicted) = self._memory.popitem(last=False)
            retained -= evicted
        self._memory[key] = (value, packets)

    # ------------------------------------------------------------------
    def trace(self, kind: str, token: tuple,
              build: Callable[[], Trace]) -> Trace:
        """Return the memoized trace for ``(kind, token)``, building (and,
        with a disk tier, storing) it on a miss."""
        key = self._key(kind, token)
        trace = self._recall(key)
        if trace is not None:
            return trace
        path = self._path(key, ".rtrc")
        if path is not None:
            try:
                trace = Trace.load(path)
            except Exception:
                trace = None
        if trace is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            trace = build()
            if path is not None and _codec_exact(trace):
                self._store_file(path, trace.to_bytes())
                self.stats.stores += 1
        self._retain(key, trace, len(trace))
        return trace

    def scenario(self, kind: str, token: tuple,
                 build: Callable[[], Scenario]) -> Scenario:
        """Like :meth:`trace`, for a full ground-truth-labeled scenario."""
        key = self._key(kind, token)
        scenario = self._recall(key)
        if scenario is not None:
            return scenario
        tpath = self._path(key, ".rtrc")
        mpath = self._path(key, ".meta.pkl")
        if tpath is not None:
            try:
                with open(mpath, "rb") as fh:
                    meta = pickle.load(fh)
                scenario = Scenario(
                    name=meta["name"],
                    trace=Trace.load(tpath, name=meta["trace_name"]),
                    attacks=meta["attacks"], duration_s=meta["duration_s"],
                    seed=meta["seed"])
            except Exception:
                scenario = None
        if scenario is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            scenario = build()
            if tpath is not None and _codec_exact(scenario.trace):
                meta_blob = pickle.dumps(
                    {"name": scenario.name,
                     "trace_name": scenario.trace.name,
                     "attacks": scenario.attacks,
                     "duration_s": scenario.duration_s,
                     "seed": scenario.seed},
                    protocol=pickle.HIGHEST_PROTOCOL)
                self._store_file(tpath, scenario.trace.to_bytes())
                self._store_file(mpath, meta_blob)
                self.stats.stores += 1
        self._retain(key, scenario, len(scenario.trace))
        return scenario


# ----------------------------------------------------------------------
# ambient activation
# ----------------------------------------------------------------------
#: One corpus instance per root, so the memory tier survives across
#: successive work units within a process (pool workers included).
_CORPORA: Dict[str, TraceCorpus] = {}

#: The memory-only corpus that serves whenever no cache dir is active.
_MEMORY = TraceCorpus()

_ACTIVE: Optional[TraceCorpus] = None


def _corpus_for(root: str) -> TraceCorpus:
    corpus = _CORPORA.get(root)
    if corpus is None:
        corpus = _CORPORA[root] = TraceCorpus(root)
    return corpus


@contextmanager
def use_corpus(root: Optional[str]) -> Iterator[None]:
    """Activate the disk-backed corpus at ``root`` for the block (``None``
    deactivates it, leaving the memory-only corpus to serve)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _corpus_for(root) if root is not None else None
    try:
        yield
    finally:
        _ACTIVE = previous


def active_corpus() -> Optional[TraceCorpus]:
    return _ACTIVE


def _serving() -> TraceCorpus:
    return _ACTIVE if _ACTIVE is not None else _MEMORY


def corpus_trace(kind: str, token: tuple,
                 build: Callable[[], Trace]) -> Trace:
    """Memoized trace generation: through the active corpus, or the
    memory-only corpus when none is active."""
    return _serving().trace(kind, token, build)


def corpus_scenario(kind: str, token: tuple,
                    build: Callable[[], Scenario]) -> Scenario:
    """Memoized scenario generation: through the active corpus, or the
    memory-only corpus when none is active."""
    return _serving().scenario(kind, token, build)


def corpus_root(cache_dir: Optional[str]) -> Optional[str]:
    """The corpus directory for a harness cache dir (None passes through)."""
    if cache_dir is None:
        return None
    return os.path.join(cache_dir, CORPUS_SUBDIR)


def corpus_stats() -> CorpusStats:
    """Aggregate counters across every corpus touched by this process,
    the memory-only one included."""
    total = CorpusStats()
    for corpus in (_MEMORY, *_CORPORA.values()):
        total.hits += corpus.stats.hits
        total.misses += corpus.stats.misses
        total.stores += corpus.stats.stores
    return total


def clear_corpus(cache_dir: str) -> int:
    """Delete every stored corpus entry; returns how many traces were
    removed (sidecars don't count)."""
    root = corpus_root(cache_dir)
    if root is None or not os.path.isdir(root):
        return 0
    removed = 0
    for name in os.listdir(root):
        if name.endswith((".rtrc", ".meta.pkl", ".tmp")):
            os.unlink(os.path.join(root, name))
            if name.endswith(".rtrc"):
                removed += 1
    return removed

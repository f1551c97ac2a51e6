"""The in-memory tier of the trace corpus: sharing safety and its bound.

With no cache dir active, every trace and scenario the battery generates
is memoized in process memory and shared by every product that replays it.
Sharing is safe only if replay leaves a trace exactly as it was built and
a unit's results do not depend on whether its traces were shared; the
tier must also stay within :data:`~repro.eval.corpus.MEMORY_PACKETS`
retained packets while still holding one full E1 battery.
"""

import os
import pickle

import pytest

from repro.eval import corpus
from repro.eval.corpus import (
    MEMORY_PACKETS,
    CorpusStats,
    TraceCorpus,
    active_corpus,
    corpus_trace,
    use_corpus,
)
from repro.eval.parallel import last_corpus_stats
from repro.eval.runner import (
    EvaluationOptions,
    evaluate_product,
    measure_rate,
    measure_scenario,
)
from repro.eval.testbed import cluster_scenario
from repro.net.address import IPv4Address
from repro.net.packet import Packet
from repro.net.trace import Trace
from repro.products import (
    AafidProduct,
    ManhuntProduct,
    NidProduct,
    RealSecureProduct,
)
from repro.traffic.mixer import Scenario

A = IPv4Address("10.9.0.1")
B = IPv4Address("10.9.0.2")

#: the options ``python -m repro evaluate --quick`` builds
QUICK = dict(seed=0, n_hosts=4, scenario_duration_s=40.0,
             train_duration_s=15.0, throughput_rates_pps=(500, 4000, 32000),
             throughput_probe_s=0.4)

#: the E1 configuration (``benchmarks/conftest.py``)
E1 = EvaluationOptions(
    seed=0, n_hosts=6, scenario_duration_s=70.0, train_duration_s=30.0,
    include_dos=True, flood_rate_pps=1500.0,
    throughput_rates_pps=(500, 1000, 2000, 4000, 8000, 16000, 32000, 64000),
    throughput_probe_s=1.0)


def trace_of(n: int, tag: bytes = b"x") -> Trace:
    trace = Trace("memo")
    for i in range(n):
        trace.append(float(i), Packet(src=A, dst=B, sport=1, dport=80,
                                      payload=tag))
    return trace


# ----------------------------------------------------------------------
# sharing safety
# ----------------------------------------------------------------------
def battery_units():
    """Every unit of ``evaluate --quick``, then a scenario unit whose
    dependability ladder replays the shared scenario again."""
    quick = EvaluationOptions(**QUICK)
    units = []
    for factory in (NidProduct, RealSecureProduct, ManhuntProduct,
                    AafidProduct):
        units.append((factory, quick, None))
        units.extend((factory, quick, float(rate))
                     for rate in sorted(quick.throughput_rates_pps))
    units.append((NidProduct,
                  EvaluationOptions(**QUICK, faults="crash-recover"), None))
    return units


def run_unit(factory, options, rate):
    if rate is None:
        return measure_scenario(factory, options)
    return measure_rate(factory, rate, options)


def test_shared_traces_equal_fresh_ones(monkeypatch):
    built = {}  # memo key -> (trace, its bytes when first retained)
    retain = TraceCorpus._retain

    def snapshot_then_retain(self, key, value, packets):
        trace = value.trace if isinstance(value, Scenario) else value
        built.setdefault(key, (trace, trace.to_bytes()))
        retain(self, key, value, packets)

    monkeypatch.setattr(TraceCorpus, "_retain", snapshot_then_retain)
    units = battery_units()
    shared = [pickle.dumps(run_unit(*unit)) for unit in units]
    monkeypatch.undo()
    # scenario + warmup + three load traces, built once and shared
    assert len(built) == 5
    assert corpus._MEMORY.stats.hits >= 3 * 5 + 2

    # replay by all four products left every shared trace as built
    for trace, blob in built.values():
        assert trace.to_bytes() == blob

    # and every unit measures the same with its traces built fresh
    for unit, blob in zip(units, shared):
        corpus._MEMORY.clear_memory()
        assert pickle.dumps(run_unit(*unit)) == blob, unit


# ----------------------------------------------------------------------
# the memory bound
# ----------------------------------------------------------------------
def test_retained_packets_never_exceed_the_bound(monkeypatch):
    monkeypatch.setattr(corpus, "MEMORY_PACKETS", 10)
    memo = TraceCorpus()
    for step, n in enumerate((4, 4, 3, 6, 1, 10, 2, 9, 5, 5, 7)):
        memo.trace("t", (step,), lambda n=n: trace_of(n))
        assert memo.retained_packets <= 10
    assert memo.retained_packets > 0


def test_least_recently_used_entry_goes_first(monkeypatch):
    monkeypatch.setattr(corpus, "MEMORY_PACKETS", 10)
    memo = TraceCorpus()
    a = memo.trace("t", ("a",), lambda: trace_of(4))
    memo.trace("t", ("b",), lambda: trace_of(4))
    assert memo.trace("t", ("a",), lambda: trace_of(4)) is a  # a is recent
    memo.trace("t", ("c",), lambda: trace_of(4))               # evicts b
    assert memo.retained_packets == 8
    assert memo.trace("t", ("a",), lambda: trace_of(4)) is a
    assert memo.stats == CorpusStats(hits=2, misses=3, stores=0)
    memo.trace("t", ("b",), lambda: trace_of(4))
    assert memo.stats.misses == 4


def test_trace_larger_than_the_bound_is_returned_not_retained(monkeypatch):
    monkeypatch.setattr(corpus, "MEMORY_PACKETS", 10)
    memo = TraceCorpus()
    built = []

    def build():
        built.append(1)
        return trace_of(11)

    assert len(memo.trace("t", ("big",), build)) == 11
    assert memo.retained_packets == 0
    memo.trace("t", ("big",), build)
    assert built == [1, 1]


def test_e1_battery_fits_in_memory():
    # the first product generates the E1 scenario, warmup and ladder ...
    evaluate_product(NidProduct, E1)
    assert last_corpus_stats() == CorpusStats(hits=0, misses=10, stores=0)
    # ... and the second replays all ten from memory
    evaluate_product(AafidProduct, E1)
    assert last_corpus_stats() == CorpusStats(hits=10, misses=0, stores=0)
    assert corpus._MEMORY.retained_packets <= MEMORY_PACKETS


def test_memory_only_entries_still_reach_a_cache_dir(tmp_path, monkeypatch):
    nodes = [IPv4Address(f"10.9.1.{i}") for i in range(1, 4)]
    corpus_trace("t", ("k",), lambda: trace_of(3))
    cluster_scenario(nodes, duration_s=5.0, seed=1)     # memory only
    root = str(tmp_path / "traces")
    with use_corpus(root):
        corpus_trace("t", ("k",), lambda: trace_of(3))
        cluster_scenario(nodes, duration_s=5.0, seed=1)
    assert sum(name.endswith(".rtrc") for name in os.listdir(root)) == 2

    # a later run on the cache dir (a new corpus object, as in a fresh
    # process) reads both from disk and never misses
    monkeypatch.delitem(corpus._CORPORA, root)
    with use_corpus(root):
        corpus_trace("t", ("k",), lambda: pytest.fail("rebuilt"))
        cluster_scenario(nodes, duration_s=5.0, seed=1)
        assert active_corpus().stats == CorpusStats(hits=2, misses=0,
                                                    stores=0)

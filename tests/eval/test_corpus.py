"""The shared trace corpus: hit/miss semantics, result equivalence, and
the ``clear-cache`` extension.

The corpus is a pure execution optimization: a battery run with a warm
corpus must produce results equal to a cold run, which must equal a run
with no corpus at all.  Entries are content-keyed, corrupt entries are
regenerated, and with no corpus active each trace is still generated once
per process, in memory only.
"""

import os
import pickle

import pytest

from repro.eval.corpus import (
    CorpusStats,
    TraceCorpus,
    active_corpus,
    clear_corpus,
    corpus_root,
    corpus_scenario,
    corpus_stats,
    corpus_trace,
    use_corpus,
)
from repro.eval.parallel import clear_cache, last_corpus_stats
from repro.eval.runner import EvaluationOptions, evaluate_product
from repro.eval.testbed import cluster_scenario
from repro.net.address import IPv4Address
from repro.net.packet import Packet
from repro.net.trace import Trace
from repro.products import ManhuntProduct

A = IPv4Address("10.9.0.1")
B = IPv4Address("10.9.0.2")

TINY = dict(seed=0, n_hosts=3, scenario_duration_s=10.0,
            train_duration_s=4.0, throughput_rates_pps=(500, 1200),
            throughput_probe_s=0.2)


def small_trace(tag: bytes) -> Trace:
    trace = Trace("small")
    trace.append(0.0, Packet(src=A, dst=B, sport=1, dport=80, payload=tag))
    return trace


class TestTraceCorpus:
    def test_miss_store_hit(self, tmp_path):
        corpus = TraceCorpus(str(tmp_path))
        built = []

        def build():
            built.append(1)
            return small_trace(b"x")

        first = corpus.trace("t", ("k",), build)
        assert built == [1]
        assert corpus.stats == CorpusStats(hits=0, misses=1, stores=1)
        again = corpus.trace("t", ("k",), build)
        assert built == [1]                 # in-memory hit, no rebuild
        assert again is first
        corpus._memory.clear()
        from_disk = corpus.trace("t", ("k",), build)
        assert built == [1]                 # disk hit, no rebuild
        assert [p.payload for _, p in from_disk] == [b"x"]
        assert corpus.stats.hits == 2

    def test_distinct_tokens_distinct_entries(self, tmp_path):
        corpus = TraceCorpus(str(tmp_path))
        t1 = corpus.trace("t", (1,), lambda: small_trace(b"one"))
        t2 = corpus.trace("t", (2,), lambda: small_trace(b"two"))
        assert [p.payload for _, p in t1] != [p.payload for _, p in t2]
        assert corpus.stats.misses == 2

    def test_corrupt_entry_is_regenerated(self, tmp_path):
        corpus = TraceCorpus(str(tmp_path))
        corpus.trace("t", ("k",), lambda: small_trace(b"good"))
        (entry,) = [n for n in os.listdir(tmp_path) if n.endswith(".rtrc")]
        with open(os.path.join(str(tmp_path), entry), "wb") as fh:
            fh.write(b"RTRCgarbage")
        corpus._memory.clear()
        rebuilt = corpus.trace("t", ("k",), lambda: small_trace(b"good"))
        assert [p.payload for _, p in rebuilt] == [b"good"]
        assert corpus.stats == CorpusStats(hits=0, misses=2, stores=2)

    def test_scenario_round_trip(self, tmp_path):
        corpus = TraceCorpus(str(tmp_path))
        nodes = [IPv4Address(f"10.9.1.{i}") for i in range(1, 5)]

        def build():
            with use_corpus(None):    # build without the disk tier
                return cluster_scenario(nodes, duration_s=8.0, seed=3)

        cold = corpus.scenario("s", ("k",), build)
        corpus._memory.clear()
        warm = corpus.scenario("s", ("k",), build)
        assert warm.name == cold.name
        assert warm.duration_s == cold.duration_s
        assert warm.seed == cold.seed
        assert pickle.dumps(warm.attacks) == pickle.dumps(cold.attacks)
        assert len(warm.trace) == len(cold.trace)
        assert [(t, p.src.value, p.payload, p.attack_id)
                for t, p in warm.trace] == \
            [(t, p.src.value, p.payload, p.attack_id)
             for t, p in cold.trace]


class TestAmbientActivation:
    def test_use_corpus_activates_and_restores(self, tmp_path):
        assert active_corpus() is None
        with use_corpus(str(tmp_path)):
            assert active_corpus() is not None
            with use_corpus(None):       # explicit disable nests
                assert active_corpus() is None
            assert active_corpus() is not None
        assert active_corpus() is None

    def test_helpers_memoize_in_memory_when_inactive(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)      # a relative write would land here
        built = []

        def build():
            built.append(1)
            return small_trace(b"x")

        first = corpus_trace("t", ("k",), build)
        again = corpus_trace("t", ("k",), build)
        assert built == [1]              # no corpus: built once, in memory
        assert again is first
        assert active_corpus() is None
        assert not os.listdir(tmp_path)  # and no file written anywhere

    def test_same_root_shares_one_instance(self, tmp_path):
        with use_corpus(str(tmp_path)):
            first = active_corpus()
        with use_corpus(str(tmp_path)):
            assert active_corpus() is first

    def test_corpus_stats_aggregates(self, tmp_path):
        base = corpus_stats()
        with use_corpus(str(tmp_path / "agg")):
            corpus_trace("t", ("k",), lambda: small_trace(b"x"))
        after = corpus_stats()
        assert after.misses == base.misses + 1
        assert after.stores == base.stores + 1


class TestBatteryIntegration:
    def test_corpus_root_layout(self):
        assert corpus_root(None) is None
        assert corpus_root(".repro-cache") == os.path.join(".repro-cache",
                                                           "traces")

    def test_warm_corpus_equals_cold_equals_uncached(self, tmp_path):
        cache = str(tmp_path / "cache")
        uncached = evaluate_product(ManhuntProduct,
                                    EvaluationOptions(**TINY))
        cold = evaluate_product(ManhuntProduct,
                                EvaluationOptions(**TINY, cache_dir=cache))
        assert last_corpus_stats().misses > 0
        assert last_corpus_stats().stores > 0
        # drop the result cache but keep the corpus: everything re-runs
        # against stored traces
        for name in os.listdir(cache):
            if name.endswith(".pkl"):
                os.unlink(os.path.join(cache, name))
        warm = evaluate_product(ManhuntProduct,
                                EvaluationOptions(**TINY, cache_dir=cache))
        assert last_corpus_stats().misses == 0
        assert last_corpus_stats().hits > 0
        assert cold == uncached
        assert warm == uncached

    def test_clear_cache_clears_corpus_too(self, tmp_path):
        cache = str(tmp_path / "cache")
        evaluate_product(ManhuntProduct,
                         EvaluationOptions(**TINY, cache_dir=cache))
        traces_dir = os.path.join(cache, "traces")
        assert any(n.endswith(".rtrc") for n in os.listdir(traces_dir))
        removed = clear_cache(cache)
        assert removed > 0
        assert not os.listdir(traces_dir)
        assert not [n for n in os.listdir(cache) if n.endswith(".pkl")]

    def test_clear_corpus_missing_dir(self, tmp_path):
        assert clear_corpus(str(tmp_path / "nothing")) == 0

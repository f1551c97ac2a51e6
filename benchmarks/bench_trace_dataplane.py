"""K2 -- the evaluation data plane: corpus + batched trace I/O + fast anomaly.

Times one "battery" of product passes over an anomaly-heavy traffic mix
two ways and reports end-to-end packets/second for each:

* **reference** -- what every pass cost before this data plane existed:
  regenerate the mix from the traffic generators, round-trip it through
  the v1 per-record codec loops, replay it through eager per-record
  scheduling, and score every packet with the reference anomaly scorer
  (all from :mod:`tests.oracles`).
* **fast** -- the shipped path: the mix is generated once into a
  :class:`repro.eval.corpus.TraceCorpus` (cold pass), every later pass
  loads the stored ``.rtrc`` through the batched mmap decoder (the
  corpus's in-memory share is cleared between passes so each warm pass
  models a fresh pool worker hitting the disk corpus), replays it through
  the single engine cursor, and scores with ``AnomalyEngine.inspect``.

The run *gates on transcript equality first*: both pipelines must produce
identical pid-free transcripts -- ``(packet index, feature, score)`` per
anomaly hit, in order, at several sensitivities -- before any timing is
reported.  The gate also replays the fast pipeline twice (cold corpus,
then warm) so a corpus hit that decoded differently from the generator
output fails loudly instead of "winning".

Traffic diet: the canonical cluster accuracy scenario (service variety,
ICMP heartbeats, the labeled attack campaign -- what actually exercises
the anomaly features) plus benign HTTP load in the battery's ~2:1
load:scenario proportion.

Timing methodology: the two pipelines are interleaved A/B within each
repetition (alternating which goes first) and the best-of-N time per
pipeline is kept.  Each timed side runs ``--passes`` full passes (default
4, one per product in the battery); the fast side pays its cold
generate+store inside the timed region.

Run directly for the speedup measurement and JSON baseline::

    python benchmarks/bench_trace_dataplane.py --json BENCH_trace_dataplane.json

CI runs a reduced smoke configuration::

    python benchmarks/bench_trace_dataplane.py --packets 9000 --reps 2 --min-speedup 1.2
"""

import argparse
import io
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.eval import corpus as corpus_module
from repro.eval.corpus import TraceCorpus
from repro.eval.testbed import cluster_scenario
from repro.eval.throughput import make_load_trace
from repro.ids.anomaly import AnomalyEngine
from repro.net.address import IPv4Address
from repro.net.trace import Trace
from repro.sim.engine import Engine

try:
    from tests.oracles.anomaly import ReferenceAnomalyScorer
    from tests.oracles.trace import read_v1, scheduled_replay, write_v1
except ImportError:
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from tests.oracles.anomaly import ReferenceAnomalyScorer
    from tests.oracles.trace import read_v1, scheduled_replay, write_v1

#: Sensitivities the equality gate replays the traffic at.  0.5 is the
#: battery default; the others move the detection threshold across several
#: of the anomaly features' score plateaus in both directions.
GATE_SENSITIVITIES = (0.3, 0.5, 0.85)

#: Fraction of the mix used to train the anomaly baseline in each pass.
TRAIN_FRACTION = 0.25


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
def build_mix(packets: int, seed: int) -> Trace:
    """Anomaly-heavy mix: cluster scenario + benign HTTP load, as a Trace.

    Two thirds of the budget comes from the cluster scenario (background
    services, ICMP heartbeats, the attack campaign), the rest from the
    throughput generator's HTTP load, offset past the scenario so time
    stays monotone like in a real battery run.
    """
    nodes = [IPv4Address(f"10.0.0.{i}") for i in range(1, 9)]
    # generate for real: drop the scenario the process-wide in-memory
    # corpus kept from the previous pass
    corpus_module._MEMORY.clear_memory()
    scenario = cluster_scenario(nodes, duration_s=60.0, seed=seed)
    scen = list(scenario.trace)[:max(2 * packets // 3, 1)]

    n_load = max(packets - len(scen), 1)
    rng = np.random.default_rng(seed + 1000)
    load = make_load_trace(rng, rate_pps=1000.0, duration_s=n_load / 1000.0,
                           dst=nodes[4])
    t0 = scen[-1][0] + 1.0
    mix = Trace("bench-mix")
    for t, p in scen:
        mix.append(t, p)
    for t, p in load:
        mix.append(t0 + t, p)
    return mix


# ----------------------------------------------------------------------
# one pass: train, freeze, replay, score
# ----------------------------------------------------------------------
def score_trace(trace: Trace, sensitivity: float, reference: bool):
    """Pid-free transcript of one product pass over ``trace``.

    Trains the anomaly baseline on the leading ``TRAIN_FRACTION`` of the
    mix, freezes, then replays the whole trace through the simulation
    engine and inspects every delivered packet -- with ``Trace.replay``
    and ``AnomalyEngine.inspect``, or with the reference scheduler and
    scorer when ``reference`` is set.
    """
    anomaly = AnomalyEngine(sensitivity=sensitivity)
    records = list(trace)
    for t, pkt in records[:max(int(len(records) * TRAIN_FRACTION), 1)]:
        anomaly.train(pkt, t)
    anomaly.freeze()
    scorer = ReferenceAnomalyScorer(anomaly) if reference else anomaly

    sim = Engine()
    transcript = []
    index = 0

    def sink(pkt) -> None:
        nonlocal index
        for feature, score in scorer.inspect(pkt, sim.now):
            transcript.append((index, feature, score))
        index += 1

    if reference:
        scheduled_replay(trace, sim, sink)
    else:
        trace.replay(sim, sink)
    sim.run()
    return transcript


def reference_pass(packets: int, seed: int, sensitivity: float = 0.5):
    """Regenerate + v1 loop codec + scheduled replay + reference anomaly."""
    mix = build_mix(packets, seed)
    buf = io.BytesIO()
    write_v1(mix, buf)
    buf.seek(0)
    mix = read_v1(buf, "bench-mix")
    return score_trace(mix, sensitivity, reference=True)


def fast_pass(corpus: TraceCorpus, packets: int, seed: int,
              sensitivity: float = 0.5):
    """Corpus fetch (batched mmap decode when warm) + batched replay +
    production anomaly scoring.  The in-memory share is cleared first so every warm
    pass models a fresh pool worker reading the disk corpus."""
    corpus._memory.clear()
    mix = corpus.trace("bench-mix", (packets, seed),
                       lambda: build_mix(packets, seed))
    return score_trace(mix, sensitivity, reference=False)


# ----------------------------------------------------------------------
# equality gate
# ----------------------------------------------------------------------
def check_equality(corpus: TraceCorpus, packets: int, seed: int) -> int:
    """Assert both pipelines agree at every gate sensitivity.

    The fast pipeline runs twice per sensitivity -- once against a cold
    corpus (generator output) and once warm (``.rtrc`` round trip) -- so
    codec lossiness would also trip the gate.  Returns the number of
    transcript entries replayed.
    """
    total = 0
    for s in GATE_SENSITIVITIES:
        expected = reference_pass(packets, seed, sensitivity=s)
        shutil.rmtree(corpus.root, ignore_errors=True)
        cold = fast_pass(corpus, packets, seed, sensitivity=s)
        warm = fast_pass(corpus, packets, seed, sensitivity=s)
        for name, got in (("cold", cold), ("warm", warm)):
            assert got == expected, (
                f"data-plane divergence at sensitivity {s} ({name} corpus): "
                f"reference produced {len(expected)} transcript entries, "
                f"fast produced {len(got)}")
        total += len(expected)
    return total


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def time_pipelines(corpus: TraceCorpus, packets: int, seed: int,
                   passes: int, reps: int):
    """Interleaved A/B best-of-N seconds per pipeline: {name: seconds}.

    One timed side = ``passes`` full end-to-end passes (the battery runs
    one per product).  The fast side starts from an empty corpus each rep,
    so its cold generate+store is inside the timed region.
    """
    best = {"reference": float("inf"), "fast": float("inf")}

    def run_reference() -> float:
        t0 = time.perf_counter()
        for _ in range(passes):
            reference_pass(packets, seed)
        return time.perf_counter() - t0

    def run_fast() -> float:
        shutil.rmtree(corpus.root, ignore_errors=True)
        t0 = time.perf_counter()
        for _ in range(passes):
            fast_pass(corpus, packets, seed)
        return time.perf_counter() - t0

    sides = {"reference": run_reference, "fast": run_fast}
    for rep in range(reps):
        order = (("reference", "fast") if rep % 2 == 0
                 else ("fast", "reference"))
        for name in order:
            best[name] = min(best[name], sides[name]())
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="evaluation data-plane speedup: trace corpus + batched "
                    "codec/replay + fast anomaly vs regenerate + loop codec "
                    "+ scheduled replay + reference anomaly, gated on "
                    "identical scoring transcripts")
    parser.add_argument("--packets", type=int, default=30000,
                        help="mixed-trace size per pass")
    parser.add_argument("--passes", type=int, default=4,
                        help="passes per timed side (the battery runs one "
                             "per product)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3,
                        help="interleaved A/B repetitions (best-of-N)")
    parser.add_argument("--json", default=None,
                        help="write the result record to this path")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit non-zero unless fast/reference >= this")
    parser.add_argument("--skip-equality", action="store_true",
                        help="timing only (the gate costs several replays)")
    args = parser.parse_args(argv)

    root = tempfile.mkdtemp(prefix="bench-corpus-")
    corpus = TraceCorpus(os.path.join(root, "traces"))
    try:
        if not args.skip_equality:
            entries = check_equality(corpus, args.packets, args.seed)
            print(f"equality gate: both pipelines identical at sensitivities "
                  f"{GATE_SENSITIVITIES} ({entries} transcript entries "
                  f"replayed, corpus cold+warm)")

        best = time_pipelines(corpus, args.packets, args.seed, args.passes,
                              args.reps)
        total = args.passes * args.packets
        ref_pps = total / best["reference"]
        fast_pps = total / best["fast"]
        speedup = best["reference"] / best["fast"]
        print(f"reference: {ref_pps:10.0f} packets/s "
              f"(regenerate + loop codec + scheduled + reference)")
        print(f"fast     : {fast_pps:10.0f} packets/s "
              f"(corpus + batched codec/replay + fast anomaly)")
        print(f"speedup  : {speedup:.2f}x end-to-end over {args.passes} "
              f"passes (best of {args.reps} interleaved reps)")
        print(f"corpus   : {corpus.stats.hits} hit(s), "
              f"{corpus.stats.misses} miss(es), "
              f"{corpus.stats.stores} store(s)")

        if args.json:
            record = {
                "benchmark": "trace_dataplane",
                "packets": args.packets,
                "passes": args.passes,
                "seed": args.seed,
                "reps": args.reps,
                "gate_sensitivities": list(GATE_SENSITIVITIES),
                "reference_pps": round(ref_pps),
                "fast_pps": round(fast_pps),
                "speedup": round(speedup, 2),
                "corpus_hits": corpus.stats.hits,
                "corpus_misses": corpus.stats.misses,
                "corpus_stores": corpus.stats.stores,
            }
            with open(args.json, "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[saved to {args.json}]")

        if speedup < args.min_speedup:
            print(f"FAIL: speedup {speedup:.2f}x below required "
                  f"{args.min_speedup:.2f}x")
            return 1
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# pytest smoke lane (the CI standalone run does the full measurement)
# ----------------------------------------------------------------------
def test_dataplane_equality_and_speed_smoke(benchmark, tmp_path):
    corpus = TraceCorpus(str(tmp_path / "traces"))
    assert check_equality(corpus, 5000, seed=0) > 0

    def one_warm_pass():
        fast_pass(corpus, 5000, seed=0)

    benchmark.pedantic(one_warm_pass, rounds=1, iterations=1)


if __name__ == "__main__":
    sys.exit(main())

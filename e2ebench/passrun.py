"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass, so module-global state (the
in-memory trace-corpus share in ``repro.eval.corpus``) never carries over
between passes and ``ru_maxrss`` is the peak of this pass alone.  The
result is one JSON object on the last line of stdout.

    python3 e2ebench/passrun.py --workload accuracy-e1 --seed 0 [--trace]
    python3 e2ebench/passrun.py --fill --corpus DIR --seed 0

``--seed`` is the program seed (already reduced by ``run.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads
from tracing import Tracer


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="wrap the layer entry points and report "
                             "per-layer self time")
    parser.add_argument("--spans", help="write the spans to this .npz")
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--corpus", help="trace-corpus root (required by "
                                         "throughput-e1-warm and --fill)")
    parser.add_argument("--fill", action="store_true",
                        help="only store the E1 load traces in --corpus")
    args = parser.parse_args(argv)
    if not args.fill and args.workload is None:
        parser.error("--workload is required unless --fill is given")
    if (args.fill or args.workload == "throughput-e1-warm") \
            and not args.corpus:
        parser.error("--corpus is required for this workload")
    return args


def _corpus_stats():
    from repro.eval.corpus import corpus_stats
    return corpus_stats().as_tuple()


def _fill(args) -> dict:
    from repro.eval.corpus import use_corpus

    with use_corpus(args.corpus):
        workloads.fill_corpus(args.seed)
    hits, misses, stores = _corpus_stats()
    return {"corpus": {"hits": hits, "misses": misses, "stores": stores}}


def _pass(args) -> dict:
    rec = workloads.Recorder()
    rec.install()
    tracer = None
    if args.trace:
        tracer = Tracer(args.pass_id)
        tracer.install()
    run = {"evaluate-quick": workloads.evaluate_quick,
           "accuracy-e1": workloads.accuracy_e1,
           "throughput-e1-warm": workloads.throughput_e1}[args.workload]

    t0 = time.perf_counter()
    if args.workload == "throughput-e1-warm":
        from repro.eval.corpus import use_corpus
        with use_corpus(args.corpus):
            run(rec, args.seed)
    else:
        run(rec, args.seed)
    wall = time.perf_counter() - t0

    hits, misses, stores = _corpus_stats()
    result = {
        "wall_s": wall,
        "first_unit_at": rec.first_unit_at,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "packets_offered": rec.packets_offered,
        "units": [{"name": u.name, "seconds": u.seconds, "digest": u.digest,
                   "error": u.error} for u in rec.units],
        "corpus": {"hits": hits, "misses": misses, "stores": stores},
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, rec, result["corpus"])
        if args.spans:
            tracer.save(args.spans)
    return result


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rec, corpus) -> dict:
    """The per-layer metrics of one traced pass (name -> value)."""
    own = tracer.self_times()
    engine_s = own["sim.engine"][0]
    return {
        "sim.engine.self_s": engine_s,
        "sim.engine.events": tracer.engine_events,
        "sim.engine.events_per_s": _ratio(tracer.engine_events, engine_s),
        "eval.throughput.load_gen_s": own["eval.throughput.load_gen"][0],
        "eval.throughput.load_gen_packets": tracer.load_gen_packets,
        "traffic.generate_s": (own["traffic.generate"][0]
                               + own["traffic.build"][0]),
        "traffic.packets": tracer.traffic_packets,
        "ids.loadbalancer.self_s": own["ids.loadbalancer"][0],
        "ids.loadbalancer.calls": own["ids.loadbalancer"][1],
        "ids.loadbalancer.forward_ratio": _ratio(rec.lb_forwarded,
                                                 rec.lb_received),
        "ids.sensor.self_s": own["ids.sensor"][0],
        "ids.sensor.calls": own["ids.sensor"][1],
        "ids.sensor.processed_ratio": _ratio(rec.sensor_processed,
                                             rec.sensor_received),
        "ids.signature.s": own["ids.signature"][0],
        "ids.signature.calls": own["ids.signature"][1],
        "ids.anomaly.s": own["ids.anomaly"][0],
        "ids.anomaly.calls": own["ids.anomaly"][1],
        "ids.analyzer.s": own["ids.analyzer"][0],
        "ids.monitor.s": own["ids.monitor"][0],
        "products.deploy_train_s": own["products.deploy_train"][0],
        "net.trace.decode_s": own["net.trace.decode"][0],
        "eval.corpus.hits": corpus["hits"],
        "eval.corpus.misses": corpus["misses"],
        "eval.corpus.stores": corpus["stores"],
        "eval.ground_truth.score_s": own["eval.ground_truth.score"][0],
        "core.scoring_s": own["core.scoring"][0],
        "report.render_s": own["report.render"][0],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    result = _fill(args) if args.fill else _pass(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

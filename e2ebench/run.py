"""End-to-end benchmark of the IDS evaluation harness.

    python3 e2ebench/run.py --workload evaluate-quick --seed 0 \
        --seconds 35 --trace 0

Runs passes of one workload (see ``workloads.py`` and ``NOTES.md``), each
in a fresh interpreter, for about ``--seconds`` seconds (at least
:data:`MIN_PASSES` passes).  Every unit of every pass is checked against
the reference digests in ``reference.json``; a unit that raised or whose
digest differs is a failed unit and its pass is left out of the timings.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus ``trace.overhead_ratio``.  Every pass,
with its unit times and digests, is written to
``.e2ebench-out/<workload>-seed<n>-trace<0|1>.json``.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 when every unit matched, 1 when some failed,
2 when the benchmark itself could not run (no JSON line then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed
from workloads import WORKLOADS, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".e2ebench-out"
REFERENCE = HERE / "reference.json"

#: Passes measured per run at the least, whatever ``--seconds`` says.
MIN_PASSES = 2
#: Host-speed probes taken before every pass and after the last one.
PROBES_PER_GAP = 2
#: Every process of one run ends within this many seconds.
RUN_LIMIT_S = 170.0
#: ``RealSecure``'s flow-hash balancer hashes a ``str`` enum value, so its
#: unit statistics depend on the interpreter's hash salt.  Pass processes
#: run with this fixed salt; see NOTES.md.
HASH_SEED = "0"

END_TO_END = (
    ("wall_s", "s"),
    ("packets_per_s", "pkt/s"),
    ("slowest_unit_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sim.engine.self_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.events_per_s", "1/s"),
    ("eval.throughput.load_gen_s", "s"),
    ("eval.throughput.load_gen_packets", "count"),
    ("traffic.generate_s", "s"),
    ("traffic.packets", "count"),
    ("ids.loadbalancer.self_s", "s"),
    ("ids.loadbalancer.calls", "count"),
    ("ids.loadbalancer.forward_ratio", "ratio"),
    ("ids.sensor.self_s", "s"),
    ("ids.sensor.calls", "count"),
    ("ids.sensor.processed_ratio", "ratio"),
    ("ids.signature.s", "s"),
    ("ids.signature.calls", "count"),
    ("ids.anomaly.s", "s"),
    ("ids.anomaly.calls", "count"),
    ("ids.analyzer.s", "s"),
    ("ids.monitor.s", "s"),
    ("products.deploy_train_s", "s"),
    ("net.trace.decode_s", "s"),
    ("eval.corpus.hits", "count"),
    ("eval.corpus.misses", "count"),
    ("eval.corpus.stores", "count"),
    ("eval.ground_truth.score_s", "s"),
    ("core.scoring_s", "s"),
    ("report.render_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run (not a failed unit)."""


# ----------------------------------------------------------------------
# pass processes
# ----------------------------------------------------------------------
def child(argv: List[str], deadline: float) -> Tuple[float, float, dict]:
    """Run ``passrun.py`` with ``argv``; returns (spawn time on the
    monotonic clock, process wall seconds, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=HASH_SEED)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before a pass could start")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass process {argv} timed out") from exc
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        raise BenchError(f"pass process {argv} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"pass process {argv} printed no result")
    return spawned, wall, json.loads(lines[-1])


def fill_corpus(corpus: Path, seed: int, deadline: float) -> float:
    """Store the E1 load traces in ``corpus`` from a separate process;
    returns its wall seconds."""
    shutil.rmtree(corpus, ignore_errors=True)
    _, wall, result = child(["--fill", "--corpus", str(corpus),
                             "--seed", str(seed)], deadline)
    if result["corpus"]["stores"] == 0:
        raise BenchError("corpus fill stored no traces")
    return wall


def probe(deadline: float) -> List[float]:
    """:data:`PROBES_PER_GAP` host-speed probes, back to back."""
    try:
        return [hostspeed.probe(max(deadline - time.monotonic(), 1.0))
                for _ in range(PROBES_PER_GAP)]
    except (OSError, subprocess.SubprocessError) as exc:
        raise BenchError(f"host-speed probe failed: {exc}") from exc


def run_pass(workload: str, seed: int, traced: bool, pass_id: int,
             corpus: Optional[Path], deadline: float) -> dict:
    argv = ["--workload", workload, "--seed", str(seed),
            "--pass-id", str(pass_id)]
    if corpus is not None:
        argv += ["--corpus", str(corpus)]
    if traced:
        spans = OUT / "spans" / f"{workload}-seed{seed}-pass{pass_id}.npz"
        argv += ["--trace", "--spans", str(spans)]
    spawned, _, result = child(argv, deadline)
    if result["first_unit_at"] is None:
        raise BenchError(f"{workload} pass ran no unit")
    result["setup_s"] = result["first_unit_at"] - spawned
    result["traced"] = traced
    result["pass_id"] = pass_id
    if corpus is not None and result["corpus"]["misses"]:
        raise BenchError(f"{workload} pass missed the trace corpus "
                         f"{result['corpus']['misses']} time(s)")
    return result


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> Tuple[List[dict], float, List[float]]:
    """Passes of one run, the corpus fill seconds (0 without one) and the
    host-speed probes (taken before every pass and after the last)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    corpus = None
    fill_s = 0.0
    OUT.mkdir(parents=True, exist_ok=True)
    if trace:
        shutil.rmtree(OUT / "spans", ignore_errors=True)
        (OUT / "spans").mkdir(parents=True)
    try:
        if workload == "throughput-e1-warm":
            corpus = OUT / "corpus"
            fill_s = fill_corpus(corpus, seed, deadline)
        start = time.monotonic()
        passes: List[dict] = []
        probes: List[float] = []
        while True:
            plain = sum(1 for p in passes if not p["traced"])
            traced = len(passes) - plain
            if passes:
                elapsed = time.monotonic() - start
                mean = elapsed / len(passes)
                if trace:
                    done = plain >= 1 and traced >= 1
                else:
                    done = plain >= MIN_PASSES
                if done and elapsed + mean > seconds:
                    break
            probes += probe(deadline)
            passes.append(run_pass(workload, seed, trace and traced < plain,
                                   len(passes), corpus, deadline))
        probes += probe(deadline)
    finally:
        if corpus is not None:
            shutil.rmtree(corpus, ignore_errors=True)
    return passes, fill_s, probes


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def load_reference(workload: str, seed: int) -> Dict[str, str]:
    try:
        with open(REFERENCE) as fh:
            table = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCE}: {exc}") from exc
    try:
        return table["digests"][workload][str(seed)]
    except KeyError as exc:
        raise BenchError(f"no reference for {workload} seed {seed}") from exc


def gate(passes: List[dict], reference: Dict[str, str]) -> int:
    """Mark every unit ``ok`` or not against the reference; returns the
    number of failed units (a reference unit a pass never ran counts as
    failed).  A pass with a failed unit gets ``clean = False``."""
    failed = 0
    for p in passes:
        seen = set()
        for unit in p["units"]:
            seen.add(unit["name"])
            unit["ok"] = (unit["error"] is None
                          and unit["digest"] == reference.get(unit["name"]))
        missing = set(reference) - seen
        bad = sum(1 for u in p["units"] if not u["ok"]) + len(missing)
        p["attempted"] = len(p["units"]) + len(missing)
        p["clean"] = bad == 0
        failed += bad
    return failed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
# Every time below is divided by the run's host slowdown (hostspeed.py):
# it reads as seconds on the host at reference speed.
def end_to_end(passes: List[dict], fill_s: float,
               slowdown: float) -> Dict[str, float]:
    """Medians over the untraced passes (clean ones, when any is)."""
    plain = [p for p in passes if not p["traced"]]
    timed = [p for p in plain if p["clean"]] or plain
    med = statistics.median
    wall = med(p["wall_s"] for p in timed) / slowdown
    return {
        "wall_s": wall,
        "packets_per_s": med(p["packets_offered"] / p["wall_s"]
                             for p in timed) * slowdown,
        "slowest_unit_s": wall * slowest_unit_share(timed),
        "setup_s": (med(p["setup_s"] for p in timed) + fill_s) / slowdown,
        "peak_rss_mb": med(p["peak_rss_mb"] for p in timed),
    }


def slowest_unit_share(timed: List[dict]) -> float:
    """The largest per-unit median share of its pass's wall time; failed
    units do not count.  A share is taken within one pass, so host-speed
    drift between passes cancels out of it."""
    shares: Dict[str, List[float]] = {}
    for p in timed:
        for u in p["units"]:
            if u["ok"]:
                shares.setdefault(u["name"], []).append(u["seconds"]
                                                        / p["wall_s"])
    return max((statistics.median(v) for v in shares.values()), default=0.0)


def per_layer(passes: List[dict], slowdown: float) -> Dict[str, float]:
    """Medians over the traced passes, plus the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    timed = [p for p in traced if p["clean"]] or traced
    scale = {"s": 1 / slowdown, "1/s": slowdown}
    metrics = {name: statistics.median(p["layers"][name] for p in timed)
               * scale.get(unit, 1)
               for name, unit in PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain))
    return metrics


def report(workload: str, seed: int, passes: List[dict], failed: int,
           slowdown: float, metrics: Dict[str, float],
           units: Dict[str, str]) -> dict:
    """Print the readable summary and return the result object."""
    attempted = sum(p["attempted"] for p in passes)
    plain = sum(1 for p in passes if not p["traced"])
    print(f"{workload}: program seed {seed}, {plain} untraced and "
          f"{len(passes) - plain} traced pass(es), {attempted} unit(s) "
          f"attempted, {failed} failed")
    raw = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    print(f"  host slowdown {slowdown:.4f}; untraced pass wall as measured "
          f"{raw:.4f} s; the times below are at reference host speed")
    for p in passes:
        for unit in p["units"]:
            if not unit["ok"]:
                print(f"  FAILED unit {unit['name']} (pass {p['pass_id']})")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'failed_unit_share':34s} {failed / max(attempted, 1):14.6g} "
          f"share")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _parse(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the IDS evaluation harness")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    seed = program_seed(args.seed)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        reference = load_reference(args.workload, seed)
        passes, fill_s, probes = run_passes(args.workload, seed,
                                            args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    failed = gate(passes, reference)
    slowdown = hostspeed.slowdown(probes)
    with open(OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"fill_s": fill_s, "probes": probes, "passes": passes},
                  fh)
    if args.trace:
        metrics, units = per_layer(passes, slowdown), dict(PER_LAYER)
    else:
        metrics = end_to_end(passes, fill_s, slowdown)
        units = dict(END_TO_END)
    result = report(args.workload, seed, passes, failed, slowdown, metrics,
                    units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-tests of the end-to-end benchmark.

    python -m pytest e2ebench/tests

They run two real ``accuracy-e1`` passes (one untraced, one traced) at
program seed 0 in fresh interpreters, about ten seconds in all.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOAD = "accuracy-e1"
SEED = 0


@pytest.fixture(scope="module")
def passes():
    deadline = time.monotonic() + run.RUN_LIMIT_S
    run.OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    return [run.run_pass(WORKLOAD, SEED, traced, i, None, deadline)
            for i, traced in enumerate((False, True))]


@pytest.fixture(scope="module")
def reference():
    return run.load_reference(WORKLOAD, SEED)


def _benchmark_spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_passes_match_reference(passes, reference):
    checked = copy.deepcopy(passes)
    assert run.gate(checked, reference) == 0
    assert all(p["clean"] for p in checked)


def test_perturbed_reference_digest_is_reported_as_failed_units(
        passes, reference):
    perturbed = dict(reference)
    victim = sorted(perturbed)[1]
    perturbed[victim] = "0" * 64
    checked = copy.deepcopy(passes)
    failed = run.gate(checked, perturbed)
    assert failed == len(passes)
    for p in checked:
        assert not p["clean"]
        bad = [u["name"] for u in p["units"] if not u["ok"]]
        assert bad == [victim]
    result = run.report(WORKLOAD, SEED, checked, failed, 1.0,
                        run.end_to_end(checked, 0.0, 1.0),
                        dict(run.END_TO_END))
    assert result["correct"] is False
    assert result["failed"] == failed


def test_timing_skips_failed_units_and_unclean_passes(passes, reference):
    perturbed = dict(reference)
    victim = max(passes[0]["units"], key=lambda u: u["seconds"])["name"]
    perturbed[victim] = "0" * 64
    checked = copy.deepcopy(passes) + copy.deepcopy(passes[:1])
    checked[-1]["units"] = [dict(u, digest=perturbed[u["name"]])
                            for u in checked[-1]["units"]]
    checked[-1]["wall_s"] = 12345.0
    run.gate(checked, perturbed)
    metrics = run.end_to_end(checked, 0.0, 2.0)
    # only the last (clean) untraced pass is timed, at reference speed
    assert metrics["wall_s"] == 12345.0 / 2.0
    # the slowest unit of an unclean pass is never the failed one
    slowest = run.end_to_end(checked[:1], 0.0, 1.0)["slowest_unit_s"]
    assert slowest < max(u["seconds"] for u in passes[0]["units"])


def test_missing_unit_counts_as_failed(passes, reference):
    checked = copy.deepcopy(passes[:1])
    checked[0]["units"] = checked[0]["units"][1:]
    assert run.gate(checked, reference) == 1
    assert checked[0]["attempted"] == len(reference)


def test_traced_and_untraced_digests_are_identical(passes):
    untraced, traced = passes
    assert ([(u["name"], u["digest"]) for u in untraced["units"]]
            == [(u["name"], u["digest"]) for u in traced["units"]])
    spans = run.OUT / "spans" / f"{WORKLOAD}-seed{SEED}-pass1.npz"
    assert spans.is_file()


def test_every_metric_prints_by_name_with_its_unit(passes, reference,
                                                   capsys):
    spec = _benchmark_spec()
    checked = copy.deepcopy(passes)
    run.gate(checked, reference)
    for kind, metrics, units in (
            ("end_to_end", run.end_to_end(checked, 0.0, 1.0),
             dict(run.END_TO_END)),
            ("per_layer", run.per_layer(checked, 1.0),
             dict(run.PER_LAYER))):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        assert units == declared
        result = run.report(WORKLOAD, SEED, checked, 0, 1.0, metrics,
                            units)
        out = capsys.readouterr().out
        assert set(result["metrics"]) == set(declared)
        for name, unit in declared.items():
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float))
            line = next(ln for ln in out.splitlines()
                        if ln.split()[:1] == [name])
            assert line.split()[-1] == unit
        assert "failed_unit_share" in out
    assert result["correct"] is True


def test_layer_metrics_of_accuracy_workload(passes):
    layers = passes[1]["layers"]
    assert layers["eval.throughput.load_gen_s"] == 0.0
    assert layers["eval.throughput.load_gen_packets"] == 0
    assert layers["traffic.generate_s"] > 0.0
    assert layers["sim.engine.events"] > 0
    assert layers["ids.loadbalancer.calls"] > 0


@pytest.mark.xfail(strict=True, reason=(
    "program defect: HashBalancer (RealSecure) hashes the str value of "
    "Protocol, so its statistics depend on the interpreter hash salt"))
def test_digests_do_not_depend_on_hash_salt(passes):
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"),
               PYTHONHASHSEED="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), "--workload", WORKLOAD,
         "--seed", str(SEED)],
        cwd=run.ROOT, env=env, stdout=subprocess.PIPE, text=True,
        check=True, timeout=run.RUN_LIMIT_S)
    salted = json.loads(proc.stdout.strip().splitlines()[-1])
    assert ([u["digest"] for u in salted["units"]]
            == [u["digest"] for u in passes[0]["units"]])

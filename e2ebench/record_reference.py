"""Record ``reference.json``: the unit digests of every workload for every
program seed ``0 .. REFERENCE_SEEDS-1``.

    python3 e2ebench/record_reference.py

Each digest comes from one untraced pass run exactly as ``run.py`` runs
it.  For ``evaluate-quick`` the ``finish`` digest must also equal the
SHA-256 of ``python -m repro evaluate --quick --seed <seed>`` stdout, or
recording stops.  Re-record only when a change is meant to alter the
simulated statistics, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import run
from workloads import REFERENCE_SEEDS, WORKLOADS


def cli_digest(seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"),
               PYTHONHASHSEED=run.HASH_SEED)
    out = subprocess.run(
        [sys.executable, "-m", "repro", "evaluate", "--quick",
         "--seed", str(seed)],
        cwd=run.ROOT, env=env, stdout=subprocess.PIPE, check=True).stdout
    return hashlib.sha256(out).hexdigest()


def record_seed(workload: str, seed: int) -> dict:
    deadline = time.monotonic() + run.RUN_LIMIT_S
    corpus = None
    if workload == "throughput-e1-warm":
        corpus = run.OUT / "corpus"
        run.fill_corpus(corpus, seed, deadline)
    try:
        result = run.run_pass(workload, seed, False, 0, corpus, deadline)
    finally:
        if corpus is not None:
            shutil.rmtree(corpus, ignore_errors=True)
    failed = [u["name"] for u in result["units"] if u["error"] is not None]
    if failed:
        raise SystemExit(f"{workload} seed {seed}: units raised: {failed}")
    digests = {u["name"]: u["digest"] for u in result["units"]}
    if workload == "evaluate-quick" and digests["finish"] != cli_digest(seed):
        raise SystemExit(f"seed {seed}: rendered output differs from "
                         f"`python -m repro evaluate --quick` stdout")
    return digests


def main() -> int:
    table = {"hash_seed": run.HASH_SEED, "digests": {}}
    for workload in WORKLOADS:
        table["digests"][workload] = {}
        for seed in range(REFERENCE_SEEDS):
            t0 = time.monotonic()
            table["digests"][workload][str(seed)] = record_seed(workload,
                                                                seed)
            print(f"{workload} seed {seed}: "
                  f"{time.monotonic() - t0:.1f} s", flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Host-speed probe.

The measurement host, a 2-core VM, shares its cores with other machines'
work, and its speed drifts by up to 1.8x over minutes: one 30 s run of
``accuracy-e1`` took 2.2 s per pass, a run two minutes later 4.0 s, on
identical inputs.
Interpreter start-up time drifted in proportion (its ratio to the pass
time stayed within 5%), while a tight in-process loop did not follow.
So the probe is a fixed start-up: a fresh interpreter importing a fixed
set of third-party and standard-library modules that no change to this
repository can alter.  ``run.py`` probes before every pass and after the
last one; the median probe time over :data:`REFERENCE_S` is the run's
*slowdown*, and reported times are divided by it.  They read as seconds
on the host at reference speed.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: Probe time on the reference host state (the 2-core VM the benchmark was tuned on).
REFERENCE_S = 0.55

_IMPORTS = ("numpy, networkx, asyncio, email.mime.multipart, http.server, "
            "json, xml.dom.minidom, unittest, argparse, decimal, "
            "logging.handlers, urllib.request, csv, multiprocessing, "
            "concurrent.futures, dataclasses, statistics, heapq")


def probe(timeout: float) -> float:
    """Wall seconds of one fresh interpreter importing the fixed set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", f"import {_IMPORTS}"], env=env,
                   check=True, timeout=timeout)
    return time.monotonic() - t0


def slowdown(probes) -> float:
    """Median probe time over the reference probe time."""
    return statistics.median(probes) / REFERENCE_S

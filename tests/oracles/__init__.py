"""Reference implementations the production data paths are checked against.

Each module here is the plain, obviously-correct version of one layer's
single production path: the differential test suites and the kernel
benchmarks (``benchmarks/bench_signature_kernel.py``,
``benchmarks/bench_trace_dataplane.py``) compare the production output
with these, item for item.  Nothing under ``src/`` imports them.

* :mod:`tests.oracles.signature` -- linear rule scan (every enabled rule's
  ``match`` on every packet);
* :mod:`tests.oracles.anomaly` -- anomaly scoring that recomputes every
  feature per packet from a frozen engine's trained state;
* :mod:`tests.oracles.trace` -- the v1 per-record trace codec and eager
  per-record replay scheduling;
* :mod:`tests.oracles.load` -- load-probe traces and UDP floods built one
  packet, and one scalar draw, at a time;
* :mod:`tests.oracles.tcp` -- a passive RFC-793 connection tracker and a
  bounded session table, which check that generated sessions are valid TCP.
* :mod:`tests.oracles.audit` -- host audit-event derivation that makes
  every check, and builds the event subject, on every delivered packet.
"""

"""Arrival-process generators and batched bounded draws.

Session and packet arrival times for the background-traffic profiles.
Each generator is a thin, seeded wrapper that produces arrival time arrays;
profiles turn arrivals into concrete packets.  :func:`bounded_draws` lets a
per-packet loop of small integer choices be drawn in one batch without
changing a single value of the stream.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = ["poisson_arrivals", "constant_rate_arrivals", "onoff_arrivals",
           "bounded_draws"]


def poisson_arrivals(
    rng: np.random.Generator,
    rate_per_s: float,
    duration_s: float,
    start: float = 0.0,
) -> np.ndarray:
    """Poisson-process arrival times on ``[start, start + duration)``.

    Classic model for independent session starts (e.g. web clients).
    """
    if rate_per_s < 0:
        raise ConfigurationError("rate_per_s must be non-negative")
    if duration_s <= 0:
        raise ConfigurationError("duration_s must be positive")
    if rate_per_s == 0:
        return np.empty(0)
    n = rng.poisson(rate_per_s * duration_s)
    times = np.sort(rng.uniform(start, start + duration_s, size=n))
    return times


def constant_rate_arrivals(
    rate_per_s: float,
    duration_s: float,
    start: float = 0.0,
    jitter_rng: np.random.Generator | None = None,
    jitter_frac: float = 0.0,
) -> np.ndarray:
    """Deterministic constant-rate arrivals with optional bounded jitter.

    The natural model for the periodic telemetry of a real-time cluster:
    messages are clocked, with tiny scheduling jitter.
    """
    if rate_per_s <= 0:
        raise ConfigurationError("rate_per_s must be positive")
    if duration_s <= 0:
        raise ConfigurationError("duration_s must be positive")
    if not 0.0 <= jitter_frac < 1.0:
        raise ConfigurationError("jitter_frac must be in [0, 1)")
    period = 1.0 / rate_per_s
    n = int(duration_s * rate_per_s)
    times = start + np.arange(n) * period
    if jitter_frac > 0.0 and jitter_rng is not None and n > 0:
        jitter = jitter_rng.uniform(0, jitter_frac * period, size=n)
        times = times + jitter
    return times


def onoff_arrivals(
    rng: np.random.Generator,
    on_rate_per_s: float,
    duration_s: float,
    mean_on_s: float = 1.0,
    mean_off_s: float = 4.0,
    start: float = 0.0,
) -> np.ndarray:
    """Bursty on-off arrivals: exponential ON/OFF periods, Poisson inside ON.

    Models interactive/bulk mixtures (file transfers, bursts of RPC calls).
    """
    if on_rate_per_s < 0:
        raise ConfigurationError("on_rate_per_s must be non-negative")
    if duration_s <= 0 or mean_on_s <= 0 or mean_off_s <= 0:
        raise ConfigurationError("durations must be positive")
    out: List[np.ndarray] = []
    t = start
    end = start + duration_s
    on = bool(rng.random() < mean_on_s / (mean_on_s + mean_off_s))
    while t < end:
        span = float(rng.exponential(mean_on_s if on else mean_off_s))
        span = min(span, end - t)
        if on and span > 0:
            out.append(poisson_arrivals(rng, on_rate_per_s, span, start=t))
        t += span
        on = not on
    if not out:
        return np.empty(0)
    return np.concatenate(out)


_WORD = 1 << 32
#: draw slots per batch, bounding the scratch arrays of wide column patterns
_BLOCK_SLOTS = 1 << 14


def bounded_draws(
    rng: np.random.Generator,
    sizes: Sequence[int],
    n: int,
) -> np.ndarray:
    """``n`` rows of ``[int(rng.integers(0, s)) for s in sizes]`` in one batch.

    Returns an ``(n, len(sizes))`` uint32 array (every value is below
    2**32).  Row ``i``, column ``j`` holds exactly what the ``j``-th
    scalar call of the ``i``-th pass of that loop would return, and ``rng``
    ends in the same state, because this replays numpy's bounded draw for ranges of at
    most 2**32: take one word ``w`` of the generator's buffered 32-bit
    stream, return ``(w * s) >> 32`` (Lemire's multiply-shift) unless the
    low half of ``w * s`` falls below ``(2**32 - s) % s``, in which case
    take the next word for the same column.  ``s == 1`` consumes nothing
    (always 0) and ``s == 2**32`` returns the raw word.  The words come
    from ``rng.integers(0, 2**32, dtype=np.uint32)`` -- the same stream --
    and only as many as slots remain unfilled, so a rejection costs one
    extra word drawn at the end, never one the loop would not take.

    >>> a = bounded_draws(np.random.default_rng(7), (10, 3, 64), 4)
    >>> r = np.random.default_rng(7)
    >>> a.tolist() == [[int(r.integers(0, s)) for s in (10, 3, 64)]
    ...                for _ in range(4)]
    True
    """
    sizes = [int(s) for s in sizes]
    if any(not 1 <= s <= _WORD for s in sizes):
        raise ConfigurationError(f"sizes must lie in [1, 2**32]: {sizes}")
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    out = np.zeros((n, len(sizes)), dtype=np.uint32)
    live = [j for j, s in enumerate(sizes) if s > 1]
    if not live:
        return out
    row_sizes = np.array([sizes[j] for j in live], dtype=np.uint64)
    rows_per_block = max(1, _BLOCK_SLOTS // len(live))
    for start in range(0, n, rows_per_block):
        rows = min(rows_per_block, n - start)
        out[start:start + rows, live] = _lemire_rows(
            rng, row_sizes, rows).reshape(rows, len(live))
    return out


def _lemire_rows(rng: np.random.Generator, row_sizes: np.ndarray,
                 rows: int) -> np.ndarray:
    """Flat ``rows * len(row_sizes)`` bounded draws; every size is > 1."""
    slot_sizes = np.tile(row_sizes, rows)
    thresholds = (_WORD - slot_sizes) % slot_sizes
    values = np.empty(len(slot_sizes), dtype=np.uint64)
    done = 0
    words = np.empty(0, dtype=np.uint64)
    # words examined per step: a rejection ends a step, so the window
    # tracks the gap between rejections instead of rescanning every word
    window = len(values)
    while done < len(values):
        if not len(words):
            words = rng.integers(0, _WORD, size=len(values) - done,
                                 dtype=np.uint32).astype(np.uint64)
        end = done + min(window, len(words))
        m = words[:end - done] * slot_sizes[done:end]
        rejected = np.flatnonzero((m & 0xFFFFFFFF) < thresholds[done:end])
        if len(rejected):
            accepted = int(rejected[0])
            spent = accepted + 1  # the rejected word is used up
            window = 2 * accepted + 64
        else:
            accepted = spent = end - done
            window *= 2
        values[done:done + accepted] = m[:accepted] >> 32
        done += accepted
        words = words[spent:]
    return values

"""Online statistics accumulators used throughout the testbed.

All accumulators are single-pass; :class:`RateMeter` keeps a bounded
history of fixed-width bins.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

__all__ = [
    "Welford",
    "TimeWeighted",
    "RateMeter",
]


class Welford:
    """Streaming mean/variance via Welford's algorithm."""

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        x = float(x)
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else float("nan")

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        if self.n < 2:
            return float("nan")
        return self._m2 / (self.n - 1)

    @property
    def stdev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else float("nan")

    def merge(self, other: "Welford") -> "Welford":
        """Return a new accumulator equivalent to seeing both inputs."""
        out = Welford()
        if self.n == 0:
            out.n, out._mean, out._m2 = other.n, other._mean, other._m2
            out.min, out.max = other.min, other.max
            return out
        if other.n == 0:
            out.n, out._mean, out._m2 = self.n, self._mean, self._m2
            out.min, out.max = self.min, self.max
            return out
        n = self.n + other.n
        delta = other._mean - self._mean
        out.n = n
        out._mean = self._mean + delta * other.n / n
        out._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / n
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Welford(n={self.n}, mean={self.mean:.6g}, stdev={self.stdev:.6g})"


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal.

    Feed ``update(t, value)`` whenever the signal changes; the average over
    ``[t0, t_last]`` weights each value by how long it was held.
    """

    __slots__ = ("_t0", "_t_last", "_value", "_area", "_max")

    def __init__(self, t0: float = 0.0, value: float = 0.0) -> None:
        self._t0 = float(t0)
        self._t_last = float(t0)
        self._value = float(value)
        self._area = 0.0
        self._max = float(value)

    def update(self, t: float, value: float) -> None:
        if t < self._t_last:
            raise ValueError(f"time went backwards: {t} < {self._t_last}")
        self._area += self._value * (t - self._t_last)
        self._t_last = float(t)
        self._value = float(value)
        if value > self._max:
            self._max = float(value)

    @property
    def current(self) -> float:
        return self._value

    @property
    def maximum(self) -> float:
        return self._max

    def average(self, until: Optional[float] = None) -> float:
        """Average over ``[t0, until]`` (defaults to the last update time)."""
        t_end = self._t_last if until is None else float(until)
        if t_end < self._t_last:
            raise ValueError("until precedes last update")
        area = self._area + self._value * (t_end - self._t_last)
        span = t_end - self._t0
        return area / span if span > 0 else self._value


class RateMeter:
    """Event rate estimation over a sliding history of fixed-width bins."""

    def __init__(self, bin_width: float = 1.0, history: int = 64) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(bin_width)
        self.history = int(history)
        self._bins: List[Tuple[int, int]] = []  # (bin index, count)

    def add(self, t: float, count: int = 1) -> None:
        idx = int(t // self.bin_width)
        if self._bins and self._bins[-1][0] == idx:
            self._bins[-1] = (idx, self._bins[-1][1] + count)
        else:
            if self._bins and idx < self._bins[-1][0]:
                raise ValueError("events must arrive in time order")
            self._bins.append((idx, count))
            if len(self._bins) > self.history:
                del self._bins[0]

    def rate(self, t: float, window: float) -> float:
        """Events per second over ``[t - window, t]``."""
        if window <= 0:
            raise ValueError("window must be positive")
        lo = (t - window) / self.bin_width
        total = sum(c for i, c in self._bins if i >= lo - 1e-12)
        return total / window

    @property
    def peak_bin_rate(self) -> float:
        if not self._bins:
            return 0.0
        return max(c for _, c in self._bins) / self.bin_width

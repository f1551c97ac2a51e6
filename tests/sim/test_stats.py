"""Tests for the online statistics accumulators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import RateMeter, TimeWeighted, Welford

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)


class TestWelford:
    def test_empty_is_nan(self):
        w = Welford()
        assert math.isnan(w.mean)
        assert math.isnan(w.variance)

    def test_single_value(self):
        w = Welford()
        w.add(5.0)
        assert w.mean == 5.0
        assert math.isnan(w.variance)
        assert w.min == w.max == 5.0

    def test_matches_numpy(self):
        xs = [1.0, 2.5, -3.0, 7.25, 0.125]
        w = Welford()
        w.extend(xs)
        assert w.mean == pytest.approx(np.mean(xs))
        assert w.variance == pytest.approx(np.var(xs, ddof=1))
        assert w.stdev == pytest.approx(np.std(xs, ddof=1))

    @given(st.lists(finite, min_size=2, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_numpy(self, xs):
        w = Welford()
        w.extend(xs)
        assert w.n == len(xs)
        assert w.mean == pytest.approx(float(np.mean(xs)), rel=1e-9, abs=1e-6)
        assert w.variance == pytest.approx(float(np.var(xs, ddof=1)), rel=1e-6, abs=1e-4)
        assert w.min == min(xs)
        assert w.max == max(xs)

    @given(st.lists(finite, min_size=1, max_size=50),
           st.lists(finite, min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_concatenation(self, a, b):
        wa, wb, wc = Welford(), Welford(), Welford()
        wa.extend(a)
        wb.extend(b)
        wc.extend(a + b)
        merged = wa.merge(wb)
        assert merged.n == wc.n
        assert merged.mean == pytest.approx(wc.mean, rel=1e-9, abs=1e-6)
        if merged.n >= 2:
            assert merged.variance == pytest.approx(wc.variance, rel=1e-6, abs=1e-4)

    def test_merge_with_empty(self):
        w = Welford()
        w.extend([1.0, 2.0])
        assert w.merge(Welford()).mean == pytest.approx(1.5)
        assert Welford().merge(w).mean == pytest.approx(1.5)


class TestTimeWeighted:
    def test_constant_signal(self):
        tw = TimeWeighted(t0=0.0, value=2.0)
        assert tw.average(until=10.0) == pytest.approx(2.0)

    def test_step_signal(self):
        tw = TimeWeighted(t0=0.0, value=0.0)
        tw.update(5.0, 1.0)   # 0 for 5s, then 1
        assert tw.average(until=10.0) == pytest.approx(0.5)
        assert tw.maximum == 1.0
        assert tw.current == 1.0

    def test_time_backwards_rejected(self):
        tw = TimeWeighted()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 2.0)

    def test_until_before_last_update_rejected(self):
        tw = TimeWeighted()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.average(until=4.0)

    @given(st.lists(st.tuples(st.floats(min_value=0.001, max_value=10, allow_nan=False),
                              st.floats(min_value=-100, max_value=100, allow_nan=False)),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_average_within_value_bounds(self, steps):
        tw = TimeWeighted(t0=0.0, value=steps[0][1])
        t = 0.0
        values = [steps[0][1]]
        for dt, v in steps:
            t += dt
            tw.update(t, v)
            values.append(v)
        avg = tw.average(until=t + 1.0)
        assert min(values) - 1e-9 <= avg <= max(values) + 1e-9


class TestRateMeter:
    def test_constant_rate(self):
        m = RateMeter(bin_width=1.0)
        for i in range(10):
            m.add(float(i), 5)
        assert m.rate(t=10.0, window=10.0) == pytest.approx(5.0)

    def test_peak_bin_rate(self):
        m = RateMeter(bin_width=0.5)
        m.add(0.1, 1)
        m.add(1.1, 10)
        assert m.peak_bin_rate == 20.0

    def test_out_of_order_rejected(self):
        m = RateMeter(bin_width=1.0)
        m.add(5.0)
        with pytest.raises(ValueError):
            m.add(2.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            RateMeter(bin_width=0)
        m = RateMeter()
        with pytest.raises(ValueError):
            m.rate(1.0, window=0)

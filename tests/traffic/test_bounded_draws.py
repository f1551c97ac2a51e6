"""Differential tests: ``bounded_draws`` must equal scalar ``integers`` calls.

:func:`~repro.traffic.generators.bounded_draws` replays numpy's Lemire
bounded draw on batches of 32-bit words.  For any size pattern and row
count it must return what a row-by-row loop of ``int(rng.integers(0, s))``
returns, value for value, and leave the generator in the same state --
rejections included.  ``2**31 + 1`` rejects about half of all words, so it
drives the redraw path hard; ``1`` consumes nothing and ``2**32`` takes the
raw word.  The starting state is varied too: a prior ``uniform`` draw and
an odd number of 32-bit draws leave half a 64-bit output buffered.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.traffic.generators import bounded_draws

EDGE_SIZES = (1, 2, 3, 10, 64, 64511, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32)

size_patterns = st.lists(st.sampled_from(EDGE_SIZES)
                         | st.integers(1, 2**32), max_size=6)


def scalar_draws(rng, sizes, n):
    return [[int(rng.integers(0, s)) for s in sizes] for _ in range(n)]


def prime(rng, uniforms, odd_words):
    """Put ``rng`` mid-stream: float draws, then 32-bit draws."""
    rng.uniform(size=uniforms)
    for _ in range(odd_words):
        rng.integers(0, 7)


def assert_matches_scalar(seed, sizes, n, uniforms=0, odd_words=0):
    batch_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    prime(batch_rng, uniforms, odd_words)
    prime(loop_rng, uniforms, odd_words)
    got = bounded_draws(batch_rng, sizes, n)
    assert got.shape == (n, len(sizes))
    assert got.tolist() == scalar_draws(loop_rng, sizes, n)
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


class TestFixedPatterns:
    @pytest.mark.parametrize("seed", range(6))
    def test_half_rejecting_pattern(self, seed):
        assert_matches_scalar(seed, (3, 2**31 + 1, 64), 300, odd_words=seed)

    @pytest.mark.parametrize("sizes", [(1,), (2**32,), (1, 2**32, 1),
                                       (1, 5, 2**32)])
    def test_edge_sizes(self, sizes):
        assert_matches_scalar(3, sizes, 50, uniforms=1, odd_words=1)

    def test_size_one_consumes_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert bounded_draws(rng, (1, 1), 100).tolist() == [[0, 0]] * 100
        assert rng.bit_generator.state == before

    def test_no_rows_or_columns_consume_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert bounded_draws(rng, (3, 64), 0).shape == (0, 2)
        assert bounded_draws(rng, (), 5).shape == (5, 0)
        assert rng.bit_generator.state == before

    def test_rows_span_several_blocks(self):
        # wide enough that the rows are drawn in more than one batch
        assert_matches_scalar(11, (3, 2**31 + 1) * 300, 120)

    def test_load_trace_pattern(self):
        assert_matches_scalar(32013, (10, 3, 64, 64511), 12800,
                              uniforms=12800)

    @pytest.mark.parametrize("bad", [(0,), (3, -1), (2**32 + 1,)])
    def test_sizes_outside_range_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            bounded_draws(np.random.default_rng(0), bad, 1)

    def test_negative_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            bounded_draws(np.random.default_rng(0), (3,), -1)


class TestProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), sizes=size_patterns,
           n=st.integers(0, 40), uniforms=st.integers(0, 2),
           odd_words=st.integers(0, 3))
    @example(seed=0, sizes=[3, 2**31 + 1, 64], n=40, uniforms=0, odd_words=0)
    @example(seed=1, sizes=[1, 2**32], n=5, uniforms=1, odd_words=1)
    def test_matches_scalar_loop(self, seed, sizes, n, uniforms, odd_words):
        assert_matches_scalar(seed, sizes, n, uniforms, odd_words)


@pytest.mark.slow
class TestPropertiesDeep:
    """The long lane: more examples, more rows (CI's -m slow lane)."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), sizes=size_patterns,
           n=st.integers(0, 400), uniforms=st.integers(0, 2),
           odd_words=st.integers(0, 3))
    def test_matches_scalar_loop(self, seed, sizes, n, uniforms, odd_words):
        assert_matches_scalar(seed, sizes, n, uniforms, odd_words)

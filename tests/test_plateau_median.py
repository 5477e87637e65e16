"""The plateau level's sort-based median against ``np.median``, bit for bit.

``detect_plateau_onset`` takes the median of a profile's tail by sorting it, because
``np.median``'s first call imports ``numpy.ma``.  Ties, signed zeros and both tail parities
are where a hand-written median can round or sign differently.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mrsi_cs.evaluate import _median, detect_plateau_onset

# a few values that recur, so most tails hold ties, among arbitrary finite ones
ENTRIES = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


def tails(smallest):
    """Lists of ``smallest``, ``smallest`` + 2, ... entries: odd or even lengths only."""
    return st.integers(0, 20).map(lambda k: 2 * k + smallest).flatmap(
        lambda n: st.lists(ENTRIES, min_size=n, max_size=n)
    )


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("smallest", [1, 2], ids=["odd", "even"])
def test_median_matches_numpy_bit_for_bit(smallest):
    @settings(max_examples=300)
    @given(tails(smallest))
    def check(tail):
        tail = np.array(tail)
        assert same_bits(_median(tail), np.median(tail))

    check()


@pytest.mark.parametrize("tail", [[1.0, math.nan, 2.0], [math.nan, 0.5, 0.5, 3.0]])
def test_a_nan_in_the_tail_gives_nan_as_numpy_does(tail):
    assert math.isnan(_median(np.array(tail))) and math.isnan(np.median(tail))


def test_an_empty_profile_has_no_onset():
    # np.median of an empty tail is NaN, and NaN is not a positive level
    assert detect_plateau_onset(np.array([])) is None


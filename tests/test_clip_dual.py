"""The x-update's inner dual in clip form against the shrink-then-ascend step it replaced.

With alpha = S_t(x + beta), the soft-threshold, the scaled dual beta + (x - alpha) equals
clip(x + beta, -t, t) in exact arithmetic (Boyd et al. 2011, section 6.4).  ``update_x_frame``
takes beta = clip(x + beta, -t, t) and alpha = (x + beta) - beta; the old step formed alpha by
shrinking x + beta and then added x - alpha to beta.  Both give alpha as the same rounded
(x + beta) - clip(x + beta), so alpha agrees bit for bit and beta within a few ulp of |x| + |beta|.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mrsi_cs.model import NormalFactor
from mrsi_cs.solver import SolverConfig, _shrink, update_x_frame

FRAMES, N = 2, 3  # iterates (frame, row, N*J) with N*J = 3

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
values = st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]))


@st.composite
def inner_steps(draw):
    """x, beta and thresholds t, some of them 0 and some equal to |x + beta| exactly, one per row and column."""
    rows = draw(st.integers(1, 3))
    shape = (FRAMES, rows, N)
    x = np.array(draw(st.lists(values, min_size=FRAMES * rows * N, max_size=FRAMES * rows * N))).reshape(shape)
    beta = np.array(draw(st.lists(values, min_size=x.size, max_size=x.size))).reshape(shape)
    x[x == 0.0] = 0.0  # the x-update's arithmetic gives +0, never -0
    kinds = np.array(draw(st.lists(st.sampled_from("zero exact free".split()), min_size=rows * N, max_size=rows * N)))
    free = np.array(draw(st.lists(st.floats(0.0, 1e6), min_size=rows * N, max_size=rows * N)))
    t = np.where(kinds == "zero", 0.0, free).reshape(rows, N)
    exact = (kinds == "exact").reshape(rows, N)
    t[exact] = np.abs(x[0] + beta[0])[exact]  # |x + beta| = t exactly on the first frame
    return x, beta, t


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(inner_steps())
def test_clip_form_matches_shrink_then_ascend(step):
    x, beta0, t = step
    # mu = 1 makes t = lambda_x / mu exact; with a factor without columns, alpha = beta and z = u the
    # round's x is the scaled Re(A^H y) it is given, bit for bit
    config = SolverConfig(rho1=1.0, mu=1.0, inner_iters=1)
    factor = NormalFactor(np.zeros((0, N)), np.zeros((0, 0)), config.rho1 + config.mu)
    alpha, beta = beta0.copy(), beta0.copy()
    out, work, fixed = (np.empty_like(x) for _ in range(3))
    z = np.zeros_like(x)
    got = update_x_frame(x, factor, z, z, alpha, beta, config, t, out=out, work=work, fixed=fixed)
    np.testing.assert_array_equal(got, x)

    expected_alpha = _shrink(x + beta0, t, np.empty_like(x))
    expected_beta = beta0 + (x - expected_alpha)
    np.testing.assert_array_equal(alpha, expected_alpha)
    ulp = np.spacing(np.abs(x) + np.abs(beta0))
    assert np.all(np.abs(beta - expected_beta) <= 4 * ulp)
    assert np.all(np.abs(beta) <= t)  # the clip form keeps the scaled dual inside [-t, t]

"""The x-update's inner dual in clip form against the shrink-then-ascend step it replaced.

With alpha = S_t(x + beta), the soft-threshold, the scaled dual beta + (x - alpha) equals
clip(x + beta, -t, t) in exact arithmetic (Boyd et al. 2011, section 6.4).  ``update_x_frame``
keeps the one state v = x + beta, so that beta = clip(v, -t, t) and alpha = v - beta; the old step
formed alpha by shrinking x + beta and then added x - alpha to beta.  Both give alpha as the same
rounded (x + beta) - clip(x + beta), so alpha agrees bit for bit and beta within a few ulp of
|x| + |beta|.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mrsi_cs.model import NormalFactor
from mrsi_cs.solver import SolverConfig, _shrink, update_x_frame

FRAMES, N = 2, 3  # iterates (frame, row, N*J) with N*J = 3
C_MU = 0.5  # mu / (rho1 + mu) at rho1 = mu = 1

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
values = st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]))


def clip(a, t):
    return np.maximum(np.minimum(a, t), -t)


def round_x(v, aty, t):
    """The round's x from the state v, by the (alpha, beta) form: c_mu (alpha - beta) + fixed, with z = u = 0."""
    beta = clip(v, t)
    alpha = v - beta
    fixed = np.zeros_like(v) * 0.5 + aty
    return (alpha - beta) * C_MU + fixed


@st.composite
def inner_steps(draw):
    """v, Re(A^H y) and thresholds t, some of them 0 and some equal to |x + beta| exactly, one per row and column."""
    rows = draw(st.integers(1, 3))
    shape = (FRAMES, rows, N)
    v = np.array(draw(st.lists(values, min_size=FRAMES * rows * N, max_size=FRAMES * rows * N))).reshape(shape)
    aty = np.array(draw(st.lists(values, min_size=v.size, max_size=v.size))).reshape(shape)
    kinds = np.array(draw(st.lists(st.sampled_from("zero exact free".split()), min_size=rows * N, max_size=rows * N)))
    free = np.array(draw(st.lists(st.floats(0.0, 1e6), min_size=rows * N, max_size=rows * N)))
    t = np.where(kinds == "zero", 0.0, free).reshape(rows, N)
    exact = (kinds == "exact").reshape(rows, N)
    # on the first frame, Re(A^H y) = v makes the round's x about v / 2 while |v| <= t, so beta = v and
    # t = |x + beta| (about 1.5 |v|) puts x + beta on the clip's edge exactly
    aty[0][exact] = v[0][exact]
    t[exact] = np.abs(round_x(v[0], aty[0], np.inf) + v[0])[exact]
    assert np.array_equal(clip(v[0], t)[exact], v[0][exact])
    return v, aty, t


@settings(max_examples=400)
@given(inner_steps())
def test_clip_form_matches_shrink_then_ascend(step):
    v0, aty, t = step
    # mu = 1 makes t = lambda_x / mu exact; with a factor without columns and z = u = 0 the round's x is
    # c_mu (alpha - beta) + Re(A^H y), bit for bit
    config = SolverConfig(rho1=1.0, mu=1.0, inner_iters=1)
    factor = NormalFactor(np.zeros((0, N)), np.zeros((0, 0)), config.rho1 + config.mu)
    v = v0.copy()
    out, work, fixed = (np.empty_like(v) for _ in range(3))
    z = np.zeros_like(v)
    got = update_x_frame(aty, factor, z, z, v, config, t, out=out, work=work, fixed=fixed)
    x = round_x(v0, aty, t)
    np.testing.assert_array_equal(got, x)

    beta0 = clip(v0, t)
    np.testing.assert_array_equal(v, x + beta0)
    expected_alpha = _shrink(x + beta0, t, np.empty_like(x))
    expected_beta = beta0 + (x - expected_alpha)
    beta = clip(v, t)
    np.testing.assert_array_equal(v - beta, expected_alpha)
    ulp = np.spacing(np.abs(x) + np.abs(beta0))
    assert np.all(np.abs(beta - expected_beta) <= 4 * ulp)
    assert np.all(np.abs(beta) <= t)  # the clip form keeps the scaled dual inside [-t, t]

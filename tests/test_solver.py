import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mrsi_cs import (
    AcquisitionGeometry,
    BaseSpectraSet,
    DivergenceError,
    ParameterError,
    SamplePoint,
    SamplingSchedule,
    ShapeError,
    SignalSet,
    SubstanceDistribution,
    acquire,
    apply_adjoint,
    apply_forward,
    band_cholesky,
    objective_value,
    project_constraint,
    soft_threshold,
    solve,
    update_h,
)
from mrsi_cs import solver as solver_module, split_readouts
from mrsi_cs.model import FactorizationCache, NormalFactor
from mrsi_cs.solver import _ROW_STATE_ARRAYS, SolverConfig, prepare, update_x_frame
from conftest import random_points, random_schedule


def x_update(aty, factor, z, u, alpha, beta, config, lambda_x, x=None):
    """``update_x_frame`` with fresh buffers, given Re(A^H y), which the loop passes divided by shift.

    ``x`` is the iterate held on entry, which a stacked factor's data-free frames start from.
    """
    out = np.empty(np.shape(z)) if x is None else np.array(x, dtype=np.float64)
    work, fixed = np.empty_like(out), np.empty_like(out)
    return update_x_frame(
        np.divide(aty, factor.shift), factor, z, u, alpha, beta, config, lambda_x, out=out, work=work, fixed=fixed
    )


def scalar_problem():
    """One voxel, one substance, identity operator: A x = x."""
    geometry = AcquisitionGeometry(
        spatial_dims=(1,), spectral_evolution_points=1, readout_points=1
    )
    base = BaseSpectraSet.from_spectra(np.ones((1, 1, 1), dtype=complex))
    point = SamplePoint(1, (1,))
    return geometry, base, point


def full_sampling_schedule(geometry, n_frames):
    points = tuple(
        SamplePoint(d, tuple(int(c) + 1 for c in np.unravel_index(k, geometry.spatial_dims)))
        for d in range(1, geometry.spectral_evolution_points + 1)
        for k in range(geometry.n_voxels)
    )
    return SamplingSchedule(frames=tuple(points for _ in range(n_frames)))


class TestSolverConfig:
    @pytest.mark.parametrize(
        "field", ["lambda_x", "lambda_w1", "lambda_w2", "rho1", "rho2", "mu", "stop_tol"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ParameterError):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            *((f, v) for f in ("outer_iters", "inner_iters")
              for v in (2.5, 1.0, float("inf"), True, 0, -3, "2", None)),
            ("stop_tol", 0.0),
            ("stop_tol", -1e-3),
        ],
    )
    def test_rejects_non_integer_counts_and_non_positive_tolerance(self, field, value):
        with pytest.raises(ParameterError):
            SolverConfig(**{field: value})
        assert SolverConfig(outer_iters=np.int64(3), inner_iters=1, stop_tol=1e-9).outer_iters == 3


class TestSoftThreshold:
    def test_positive(self):
        assert soft_threshold(0.5, 0.2) == pytest.approx(0.3)

    def test_negative(self):
        assert soft_threshold(-0.5, 0.2) == pytest.approx(-0.3)

    def test_dead_zone(self):
        assert soft_threshold(0.1, 0.2) == 0.0

    def test_vectorized(self):
        out = soft_threshold(np.array([0.5, -0.5, 0.1]), 0.2)
        np.testing.assert_allclose(out, [0.3, -0.3, 0.0])

    def test_rejects_negative_threshold(self):
        with pytest.raises(ParameterError):
            soft_threshold(1.0, -0.1)

    @pytest.mark.parametrize("iota", [float("nan"), np.array([[0.1], [float("nan")]])])
    def test_rejects_nan_threshold(self, iota):
        with pytest.raises(ParameterError):
            soft_threshold(np.ones((4, 2, 3)), iota)

    def test_per_row_thresholds_broadcast(self, rng):
        xi = rng.standard_normal((5, 3, 4))
        iota = np.array([[0.0], [0.3], [2.0]])
        out = soft_threshold(xi, iota)
        for c in range(3):
            np.testing.assert_array_equal(out[:, c], soft_threshold(xi[:, c], float(iota[c, 0])))
        with pytest.raises(ParameterError):
            soft_threshold(xi, np.array([[0.1], [-0.1], [0.2]]))


class TestBandCholesky:
    def test_worked_three_frame_factor(self):
        chol = band_cholesky(3, 1.0)
        np.testing.assert_allclose(chol.diag, [1.41421, 1.58114, 1.26491], atol=1e-5)
        np.testing.assert_allclose(chol.subdiag, [-0.70711, -0.63246], atol=1e-5)

    def test_tiny_gamma_is_identity(self):
        chol = band_cholesky(5, 1e-15)
        np.testing.assert_allclose(chol.diag, 1.0, atol=1e-12)
        np.testing.assert_allclose(chol.subdiag, 0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5, 17, 64])
    def test_reassembles_tridiagonal(self, m, rng):
        gamma = float(rng.uniform(0.05, 5.0))
        chol = band_cholesky(m, gamma)
        lower = np.diag(chol.diag) + np.diag(chol.subdiag, -1)
        w = np.zeros((m - 1, m))
        for i in range(m - 1):
            w[i, i], w[i, i + 1] = -1.0, 1.0
        expected = np.eye(m) + gamma * (w.T @ w)
        np.testing.assert_allclose(lower @ lower.T, expected, atol=1e-12)

    def test_one_frame_is_the_identity(self):
        chol = band_cholesky(1, 2.5)
        np.testing.assert_array_equal(chol.diag, [1.0])
        assert chol.subdiag.shape == (0,)
        np.testing.assert_array_equal(chol.block_inv, [[[1.0]]])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            band_cholesky(0, 1.0)
        with pytest.raises(ParameterError):
            band_cholesky(4, 0.0)

    @pytest.mark.parametrize("gamma", [float("inf"), float("nan")])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ParameterError):
            band_cholesky(5, gamma)

    @pytest.mark.parametrize(
        "m, width, block",
        [
            (256, None, 16),  # without a width, isqrt(M)
            (32, 16, 32),  # a cv-coarse fold: one dense block
            (256, 64, 32),  # exp1
            (256, 384, 16),  # exp3 keeps isqrt(M)
            (1024, 3072, 32),  # exp3's phantom on 32x32 voxels keeps isqrt(M)
            (100, 64, 32),  # three full blocks and a short one of 4 frames
        ],
    )
    def test_block_size_follows_the_row_width(self, m, width, block):
        chol = band_cholesky(m, 2.5, width)
        assert chol.block_inv.shape == (-(-m // block), block, block)

    def test_width_only_raises_the_block_size(self):
        for m in (*range(1, 66), 256, 1024):
            for width in (1, 2, 16, 64, 384, 3072, 2**16, 2**20):
                block = band_cholesky(m, 2.5, width).block_inv.shape[1]
                assert math.isqrt(m) <= block <= m

    @pytest.mark.parametrize("width", [True, False, 0, -3, 16.0, float("nan")])
    def test_rejects_a_width_that_is_not_a_positive_integer(self, width):
        with pytest.raises(ParameterError):
            band_cholesky(32, 2.5, width)

    def test_a_cv_fold_and_the_full_data_pick_the_same_block_size(self, rng, small_base, small_geometry):
        schedule, signals = gapped_instance(rng, small_base, small_geometry, n_frames=60)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1)
        full = prepare(signals, schedule, small_base, small_geometry, config)[2]
        assert math.isqrt(60) < full.block_inv.shape[1] < 60  # N*J = 32 raises B to isqrt(2048) = 45
        for fold in split_readouts(schedule, signals):
            chol = prepare(fold.signals, fold.schedule, small_base, small_geometry, config)[2]
            assert chol.block_inv.shape == full.block_inv.shape


def blocked_solve_forming_couplings(chol, z, g):
    """The blocked substitution with each coupling coefficient formed from the bands where it is applied."""
    e, inv = chol.subdiag, chol.block_inv
    m = chol.n
    n_blocks, b = inv.shape[:2]
    head = (n_blocks - 1) * b
    full, last = inv[:-1, None], inv[-1:, None, : m - head, : m - head]

    def blocks(a):
        full_blocks = a[:head].reshape(n_blocks - 1, b, *a.shape[1:])
        return full_blocks.swapaxes(1, 2), a[None, head:].swapaxes(1, 2)

    (z_full, z_last), (g_full, g_last) = blocks(z), blocks(g)
    np.matmul(full, z_full, out=g_full)
    np.matmul(last, z_last, out=g_last)
    for k in range(1, n_blocks):
        end = min((k + 1) * b, m)
        g[k * b : end] -= (e[k * b - 1] * inv[k, : end - k * b, :1])[..., None] * g[k * b - 1]
    np.matmul(full.swapaxes(2, 3), g_full, out=z_full)
    np.matmul(last.swapaxes(2, 3), g_last, out=z_last)
    for k in range(n_blocks - 2, -1, -1):
        nxt = (k + 1) * b
        z[k * b : nxt] -= (e[nxt - 1] * inv[k, -1, :, None])[..., None] * z[nxt]


class TestProjectConstraint:
    def test_feasible_point_is_fixed(self):
        chol = band_cholesky(2, 1.0)
        z, s = project_constraint(np.ones((2, 1)), np.zeros((1, 1)), chol, 1.0)
        np.testing.assert_allclose(z, 1.0, atol=1e-14)
        np.testing.assert_allclose(s, 0.0, atol=1e-14)

    def test_constraint_holds_exactly(self, rng):
        chol = band_cholesky(9, 0.7)
        omega = rng.standard_normal((9, 6))
        q = rng.standard_normal((8, 6))
        z, s = project_constraint(omega, q, chol, 0.7)
        np.testing.assert_array_equal(s, z[1:] - z[:-1])

    def test_matches_dense_solve(self, rng):
        m, gamma = 8, 0.37
        chol = band_cholesky(m, gamma)
        omega = rng.standard_normal((m, 5))
        q = rng.standard_normal((m - 1, 5))
        z, _ = project_constraint(omega, q, chol, gamma)
        w = np.zeros((m - 1, m))
        for i in range(m - 1):
            w[i, i], w[i, i + 1] = -1.0, 1.0
        expected = np.linalg.solve(np.eye(m) + gamma * w.T @ w, omega + gamma * w.T @ q)
        np.testing.assert_allclose(z, expected, atol=1e-10)

    def test_one_frame_returns_omega(self, rng):
        omega = rng.standard_normal((1, 7))
        z, s = project_constraint(omega, np.zeros((0, 7)), band_cholesky(1, 0.7), 0.7)
        assert np.array_equal(z, omega)
        assert s.shape == (0, 7)

    def test_shape_mismatch(self):
        chol = band_cholesky(4, 1.0)
        with pytest.raises(ShapeError):
            project_constraint(np.zeros((4, 2)), np.zeros((2, 2)), chol, 1.0)

    @pytest.mark.parametrize("m", [2, 3, 17, 33, 256])
    def test_blocked_substitution_matches_dense_solve(self, m, rng):
        # 17 and 33 end in a short block of isqrt(M)-frame blocks; 256 splits into whole blocks
        gamma = 2.5
        chol = band_cholesky(m, gamma)
        omega = rng.standard_normal((m, 3, 5))
        q = rng.standard_normal((m - 1, 3, 5))
        w = np.zeros((m - 1, m))
        for i in range(m - 1):
            w[i, i], w[i, i + 1] = -1.0, 1.0
        rhs = (omega + gamma * np.tensordot(w.T, q, axes=1)).reshape(m, -1)
        expected = np.linalg.solve(np.eye(m) + gamma * w.T @ w, rhs).reshape(omega.shape)
        z, s = project_constraint(omega, q, chol, gamma)
        np.testing.assert_allclose(z, expected, rtol=0, atol=1e-14 * np.abs(expected).max())
        np.testing.assert_array_equal(s, z[1:] - z[:-1])
        # written in place over its inputs, with caller scratch: the same bits
        work = np.empty_like(omega)
        z2, s2 = project_constraint(omega, q, chol, gamma, out=(omega, q), work=work)
        assert z2 is omega and s2 is q
        np.testing.assert_array_equal(z2, z)
        np.testing.assert_array_equal(s2, s)

    @pytest.mark.parametrize(
        "width, block_size",
        [
            # M = 1..130 ends, for every block size B = isqrt(M) up to 10, in a short block of each length 1..B-1
            (None, math.isqrt),
            (1, lambda m: m),  # one dense block
            (64, lambda m: min(m, 32)),  # raised to 32 frames, M = 33..130 ending in short blocks
        ],
        ids=["isqrt", "one-block", "width-raised"],
    )
    def test_every_last_block_length_matches_dense_solve(self, width, block_size, rng):
        gamma = 2.5
        for m in range(1, 131):
            chol = band_cholesky(m, gamma, width)
            b = block_size(m)
            assert chol.block_inv.shape == (-(-m // b), b, b)
            omega = rng.standard_normal((m, 2, 3))
            q = rng.standard_normal((m - 1, 2, 3))
            w = np.diff(np.eye(m), axis=0)
            rhs = (omega + gamma * np.tensordot(w.T, q, axes=1)).reshape(m, -1)
            expected = np.linalg.solve(np.eye(m) + gamma * w.T @ w, rhs).reshape(omega.shape)
            z, s = project_constraint(omega, q, chol, gamma)
            np.testing.assert_allclose(z, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
            np.testing.assert_array_equal(s, z[1:] - z[:-1])

    @pytest.mark.parametrize("m, width", [(100, 64), (32, 16)], ids=["short-last-block", "one-block"])
    def test_rows_do_not_mix_at_a_width_raised_block_size(self, m, width, rng):
        gamma = 2.5
        chol = band_cholesky(m, gamma, width)
        assert chol.block_inv.shape[1] > math.isqrt(m)
        omega = rng.standard_normal((m, 32, width))
        q = rng.standard_normal((m - 1, 32, width))
        z, s = project_constraint(omega, q, chol, gamma)
        for start, rows in ((0, 1), (19, 1), (0, 7), (11, 7)):
            part = slice(start, start + rows)
            z_part, s_part = project_constraint(
                np.ascontiguousarray(omega[:, part]), np.ascontiguousarray(q[:, part]), chol, gamma
            )
            np.testing.assert_array_equal(z_part, z[:, part])
            np.testing.assert_array_equal(s_part, s[:, part])

    @pytest.mark.parametrize("m", [1, 2, 3, 16, 17, 32, 256])
    def test_kept_couplings_give_the_bits_of_couplings_formed_per_step(self, m, rng, monkeypatch):
        # 3, 17 and 32 end in a short block; 1 has no coupling at all
        gamma = 2.5
        chol = band_cholesky(m, gamma)
        assert chol.forward.shape == chol.backward.shape == (len(chol.block_inv) - 1, math.isqrt(m), 1, 1)
        omega = rng.standard_normal((m, 4, 6))
        q = rng.standard_normal((m - 1, 4, 6))
        z, s = project_constraint(omega, q, chol, gamma)
        monkeypatch.setattr(solver_module, "_blocked_solve", blocked_solve_forming_couplings)
        expected_z, expected_s = project_constraint(omega, q, chol, gamma)
        np.testing.assert_array_equal(z, expected_z)
        np.testing.assert_array_equal(s, expected_s)


def per_round_layout_x_update(aty, factor, z, u, alpha, beta, config, lambda_x, *, out, work, fixed):
    """The x-update as it ran with the frame layout read in every inner round.

    Each round gathers the frames with data's part of ``fixed`` again, advances every frame's
    weighted average and scatters the solve into ``out``; the dual is an inline clip.
    """
    x, data = out, factor.index
    c_mu, c_rho = config.mu / factor.shift, config.rho1 / factor.shift
    threshold = np.divide(lambda_x, config.mu)
    np.subtract(z, u, out=fixed)
    fixed *= c_rho
    fixed += aty
    for _ in range(config.inner_iters):
        alpha -= beta
        alpha *= c_mu
        if isinstance(data, slice):
            alpha += fixed
            x_data = factor.solve(alpha, x)
        else:
            alpha += np.take(fixed, data, axis=0, out=work[: len(data)])
            x_data = factor.solve(alpha, work[: len(data)])
            x *= c_mu
            x += fixed
            x[data] = x_data
        np.add(x_data, beta, out=alpha)
        np.minimum(alpha, threshold, out=beta)
        np.maximum(beta, np.negative(threshold), out=beta)
        alpha -= beta
    return x


class TestUpdateXFrame:
    def test_scalar_first_inner_round(self):
        geometry, base, point = scalar_problem()
        factor = NormalFactor(*FactorizationCache(base, geometry).get([point]), 2.0)
        aty = np.array([2.0])  # Re(A^H y) with y = 2
        config = SolverConfig(rho1=1.0, mu=1.0, inner_iters=1)
        x = x_update(
            aty, factor, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), config, config.lambda_x
        )
        assert x[0] == pytest.approx(2.0 / 3.0)

    def test_gap_frame_weighted_average_fixed_point(self, rng):
        c = rng.standard_normal(6)
        config = SolverConfig(rho1=0.4, mu=0.7, inner_iters=3)
        alpha = c.copy()
        beta = np.zeros(6)
        # a data-free frame: zero Re(A^H y), a factor without columns and no shrinkage
        empty = NormalFactor(np.zeros((0, 6)), np.zeros((0, 0)), config.rho1 + config.mu)
        x = x_update(np.zeros(6), empty, c.copy(), np.zeros(6), alpha, beta, config, 0.0)
        np.testing.assert_allclose(x, c, atol=1e-14)
        np.testing.assert_allclose(beta, 0.0, atol=1e-14)

    def test_inner_fixed_point_satisfies_subproblem_optimality(self, rng):
        # converged inner loop minimizes 0.5|y-Ax|^2 + lam|x|_1 + rho/2|x-(z-u)|^2
        geometry = AcquisitionGeometry(
            spatial_dims=(2, 2), spectral_evolution_points=2, readout_points=4
        )
        spectra = rng.standard_normal((1, 2, 4)) + 1j * rng.standard_normal((1, 2, 4))
        base = BaseSpectraSet.from_spectra(spectra)
        points = [SamplePoint(1, (2, 1))]
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lam, rho = 0.05, 0.5
        config = SolverConfig(lambda_x=lam, rho1=rho, mu=0.5, inner_iters=4000)
        factor = NormalFactor(*FactorizationCache(base, geometry).get(points), config.rho1 + config.mu)
        aty = apply_adjoint(y, points, base, geometry)
        z = rng.standard_normal(4)
        x = x_update(
            aty, factor, z, np.zeros(4), np.zeros(4), np.zeros(4), config, config.lambda_x
        )
        a_dense = np.stack(
            [apply_forward(np.eye(4)[i], points, base, geometry) for i in range(4)], axis=1
        )
        grad = (a_dense.conj().T @ (a_dense @ x - y)).real + rho * (x - z)
        for i in range(4):
            if abs(x[i]) > 1e-10:
                assert abs(grad[i] + lam * np.sign(x[i])) < 1e-6
            else:
                assert abs(grad[i]) <= lam + 1e-6

    def test_batched_frames_match_per_frame_loop(self, rng, small_base, small_geometry):
        config = SolverConfig(lambda_x=0.05, rho1=0.3, mu=0.2, inner_iters=3)
        shift = config.rho1 + config.mu
        counts = (1, None, 3, 2, None, 1)  # points per frame; None marks a data-free frame
        n = 32
        x, z, u, alpha, beta = (rng.standard_normal((len(counts), n)) for _ in range(5))
        frames = [None if c is None else tuple(random_points(rng, small_geometry, c)) for c in counts]
        aty = np.array([np.zeros(n) if f is None else rng.standard_normal(n) for f in frames])
        data, free = [0, 2, 3, 5], [1, 4]
        cache = FactorizationCache(small_base, small_geometry)

        # one frame at a time; a data-free frame runs the full inner splitting on a factor without
        # columns and a zero threshold, from alpha = x and beta = 0
        empty = NormalFactor(np.zeros((0, n)), np.zeros((0, 0)), shift)
        expected_alpha, expected_beta = alpha.copy(), beta.copy()
        expected_alpha[free], expected_beta[free] = x[free], 0.0
        expected = np.stack([
            x_update(aty[m], empty, z[m], u[m], expected_alpha[m], expected_beta[m], config, 0.0)
            if points is None
            else x_update(
                aty[m], NormalFactor(*cache.get(points), shift), z[m], u[m], expected_alpha[m], expected_beta[m],
                config, config.lambda_x,
            )
            for m, points in enumerate(frames)
        ])

        # one batch over every frame, as solve runs it: alpha and beta over the frames with data only
        alpha, beta = alpha[data, None], beta[data, None]
        got = x_update(
            aty[:, None], cache.stack(frames, shift), z[:, None], u[:, None], alpha, beta, config, config.lambda_x,
            x=x[:, None],
        )[:, 0]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(alpha[:, 0], expected_alpha[data], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(beta[:, 0], expected_beta[data], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_data_free_frames_take_the_weighted_average_in_each_round(self, rounds, rng, small_base, small_geometry):
        # a fold's data-free frames keep no inner copy or dual: each round is x = (mu/shift) x + (rho1/shift)(z - u)
        config = SolverConfig(lambda_x=0.05, rho1=0.3, mu=0.2, inner_iters=rounds)
        frames = [None if m % 2 or m == 4 else tuple(random_points(rng, small_geometry, 1)) for m in range(9)]
        factor = FactorizationCache(small_base, small_geometry).stack(frames, config.rho1 + config.mu)
        free = [m for m, points in enumerate(frames) if points is None]
        x, z, u = (rng.standard_normal((9, 3, 32)) for _ in range(3))
        aty = rng.standard_normal((9, 1, 32))
        aty[free] = 0.0
        alpha, beta = (rng.standard_normal((len(factor.index), 3, 32)) for _ in range(2))
        got = x_update(aty, factor, z, u, alpha, beta, config, config.lambda_x, x=x)
        expected = x[free]
        c_mu, c_rho = config.mu / factor.shift, config.rho1 / factor.shift
        for _ in range(rounds):
            expected = c_mu * expected + c_rho * (z[free] - u[free])
        np.testing.assert_array_equal(got[free], expected)

    @pytest.mark.parametrize("gapped", [True, False])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, 7])
    def test_one_path_matches_the_per_round_layout_bit_for_bit(
        self, gapped, rounds, n_rows, rng, small_base, small_geometry
    ):
        config = SolverConfig(rho1=0.3, mu=0.2, inner_iters=rounds)
        counts = (1, None, 3, 2, None, None, 1, 2) if gapped else (1, 2, 3, 2, 1, 1, 1, 2)
        frames = [None if c is None else tuple(random_points(rng, small_geometry, c)) for c in counts]
        factor = FactorizationCache(small_base, small_geometry).stack(frames, config.rho1 + config.mu)
        assert isinstance(factor.index, slice) != gapped
        m, n = len(frames), 32
        aty = rng.standard_normal((m, 1, n)) / factor.shift
        aty[[k for k, points in enumerate(frames) if points is None]] = 0.0
        weights = rng.uniform(0.0, 0.1, (n_rows, 1))  # thresholds of 0 to 0.5: some entries clip, some not
        lambda_x = weights if n_rows == 1 else np.repeat(weights, n, axis=1)  # as the loop lays them out
        x = np.repeat(aty * factor.shift, n_rows, axis=1)
        states = [[x.copy(), *(np.zeros((len(factor.phi), n_rows, n)) for _ in range(2))] for _ in range(2)]
        for _ in range(4):  # consecutive calls, as the outer loop makes them
            z, u = rng.standard_normal((2, m, n_rows, n))
            for update, (x, alpha, beta) in zip((update_x_frame, per_round_layout_x_update), states):
                update(aty, factor, z, u, alpha, beta, config, lambda_x, out=x, work=np.empty_like(x),
                       fixed=np.empty_like(x))
            for got, expected in zip(*states):
                np.testing.assert_array_equal(got, expected)

    def test_inner_state_holds_the_frames_with_data_only(self, rng, small_base, small_geometry, monkeypatch):
        schedule, signals = gapped_instance(rng, small_base, small_geometry)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=3)
        prepared = prepare(signals, schedule, small_base, small_geometry, config)
        data = prepared[1].index
        assert len(data) < schedule.n_frames
        shapes = []

        def recording(aty, factor, z, u, alpha, beta, *args, **kwargs):
            shapes.append((alpha.shape, beta.shape))
            return update_x_frame(aty, factor, z, u, alpha, beta, *args, **kwargs)

        monkeypatch.setattr(solver_module, "update_x_frame", recording)
        solve(signals, schedule, small_base, small_geometry, config, weights=WEIGHT_STACK, prepared=prepared)
        assert shapes == [((len(data), len(WEIGHT_STACK), 32),) * 2] * config.outer_iters


def shrink_then_ascend_x_update(aty):
    """The x-update as a loop over every frame: the same steps in the order the solver once took them.

    alpha and beta span every frame, a data-free frame gets a zero l1 threshold, the solve divides
    by shift after the products, and the dual shrinks alpha, then adds x - alpha to beta.  It keeps
    its own alpha and beta across the calls of one solve, starting from zero, and takes the
    unscaled Re(A^H y) ``aty``; the loop's ``alpha``, ``beta`` and scaled Re(A^H y) are ignored.
    """
    state = {}

    def update(aty_scaled, factor, z, u, alpha, beta, config, lambda_x, *, out, work, fixed):
        if not state:
            state["alpha"], state["beta"] = np.zeros_like(out), np.zeros_like(out)
            state["threshold"] = np.zeros((len(out), out.shape[1], 1))
            state["threshold"][factor.index] = np.broadcast_to(lambda_x, out.shape[1:])[:, :1] / config.mu
        a, b, t = state["alpha"], state["beta"], state["threshold"]
        np.subtract(z, u, out=fixed)
        fixed *= config.rho1
        fixed += aty[:, None]
        for _ in range(config.inner_iters):
            np.subtract(a, b, out=work)
            work *= config.mu
            work += fixed
            r = work[factor.index].reshape(-1, out.shape[1], factor.phi.shape[-1], out.shape[-1] // factor.phi.shape[-1])
            g = factor.phi @ r
            h = factor.s @ g.reshape(*g.shape[:-2], -1, 1)
            out.fill(0.0)
            out[factor.index] = (factor.phi.swapaxes(-1, -2) @ h.reshape(g.shape)).reshape(-1, *out.shape[1:])
            np.subtract(work, out, out=out)
            out /= factor.shift
            np.add(out, b, out=a)
            a -= np.maximum(np.minimum(a, t), -t)
            b += out - a
        return out

    return update


class TestUpdateH:
    def test_worked_example(self):
        config = SolverConfig(lambda_w1=1.0, lambda_w2=1.0, rho2=1.0)
        out = update_h(np.array([[2.0, 0.5]]), np.zeros((1, 2)), config)
        np.testing.assert_allclose(out, [[0.5, 0.0]])

    def test_zero_weights_identity(self, rng):
        config = SolverConfig(lambda_w1=0.0, lambda_w2=0.0, rho2=0.3)
        s = rng.standard_normal((3, 4))
        nu = rng.standard_normal((3, 4))
        np.testing.assert_allclose(update_h(s, nu, config), s - nu, atol=1e-14)

    def test_huge_l1_weight_kills_everything(self, rng):
        config = SolverConfig(lambda_w1=1e12, lambda_w2=1.0, rho2=1.0)
        out = update_h(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), config)
        np.testing.assert_array_equal(out, 0.0)

    def test_per_row_weights_match_configs(self, rng):
        config = SolverConfig(rho2=0.7)
        w1 = np.array([[0.0], [0.2], [1.5]])
        w2 = np.array([[0.4], [0.0], [3.0]])
        s, nu = rng.standard_normal((4, 3, 5)), rng.standard_normal((4, 3, 5))
        out = update_h(s, nu, config, w1, w2)
        for c in range(3):
            row_config = replace(config, lambda_w1=float(w1[c, 0]), lambda_w2=float(w2[c, 0]))
            np.testing.assert_array_equal(out[:, c], update_h(s[:, c], nu[:, c], row_config))


class TestSolve:
    def test_starts_from_the_adjoint(self, rng, small_base, small_geometry, monkeypatch):
        # the set-up keeps Re(A^H y) divided by shift; the first x-update still sees x = z = Re(A^H y)
        schedule, signals = gapped_instance(rng, small_base, small_geometry)
        seen = []

        def recording(aty, factor, z, u, alpha, beta, config, lambda_x, *, out, work, fixed):
            seen.append((out.copy(), z.copy(), aty * factor.shift))
            return update_x_frame(aty, factor, z, u, alpha, beta, config, lambda_x, out=out, work=work, fixed=fixed)

        monkeypatch.setattr(solver_module, "update_x_frame", recording)
        solve(signals, schedule, small_base, small_geometry, SolverConfig(rho1=0.1, mu=0.2, outer_iters=1))
        expected = np.zeros((schedule.n_frames, 32))
        for m in schedule.acquired_index_set:
            expected[m] = apply_adjoint(signals.per_frame[m], schedule.frames[m], small_base, small_geometry)
        for got in seen[0]:
            np.testing.assert_allclose(got[:, 0], expected, rtol=1e-15, atol=0)

    def test_zero_data_gives_zero(self, rng, small_base, small_geometry):
        schedule = random_schedule(rng, small_geometry, 6, acquire_prob=0.8)
        signals = SignalSet(
            per_frame={
                m: np.zeros(8, dtype=complex) for m in schedule.acquired_index_set
            }
        )
        config = SolverConfig(lambda_x=0.1, lambda_w1=0.1, lambda_w2=0.1, outer_iters=50)
        estimate, _ = solve(signals, schedule, small_base, small_geometry, config)
        assert np.abs(estimate.values).max() < 1e-12
        assert objective_value(
            estimate, signals, schedule, small_base, small_geometry, config
        ) == pytest.approx(0.0, abs=1e-20)

    def test_noiseless_full_sampling_recovery(self, rng, small_geometry):
        spectra = rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))
        base = BaseSpectraSet.from_spectra(spectra)
        m_total = 32
        schedule = full_sampling_schedule(small_geometry, m_total)
        values = np.zeros((m_total, 16, 2))
        values[:, 5, 0] = np.linspace(0.0, 1.0, m_total)
        values[:, 11, 1] = 0.6
        truth = SubstanceDistribution(values=values, geometry=small_geometry)
        signals = acquire(truth, base, schedule, 0.0, rng_seed=0)
        config = SolverConfig(
            lambda_x=1e-9,
            lambda_w1=1e-9,
            lambda_w2=1e-9,
            rho1=0.5,
            rho2=1.0,
            mu=0.5,
            outer_iters=200,
        )
        estimate, _ = solve(signals, schedule, base, small_geometry, config)
        err = np.linalg.norm(estimate.values - values) / np.linalg.norm(values)
        assert err <= 1e-2

    def test_deterministic(self, rng, small_base, small_geometry):
        schedule = random_schedule(rng, small_geometry, 8)
        values = rng.standard_normal((8, 16, 2)) * 0.1
        truth = SubstanceDistribution(values=values, geometry=small_geometry)
        signals = acquire(truth, small_base, schedule, 0.05, rng_seed=2)
        config = SolverConfig(lambda_x=0.01, lambda_w1=0.02, lambda_w2=0.01, outer_iters=40)
        a, log_a = solve(signals, schedule, small_base, small_geometry, config)
        b, log_b = solve(signals, schedule, small_base, small_geometry, config)
        np.testing.assert_array_equal(a.values, b.values)
        assert log_a.rms_x_minus_z == log_b.rms_x_minus_z

    def test_gap_frames_adopt_plateau(self):
        geometry = AcquisitionGeometry(
            spatial_dims=(2, 2), spectral_evolution_points=2, readout_points=4
        )
        base = BaseSpectraSet.from_spectra(
            np.exp(1j * np.arange(16).reshape(1, 2, 8)[:, :, :4])
        )
        rng = np.random.default_rng(3)
        m_total, gap = 16, {6, 7, 8, 9}
        frames = tuple(
            None
            if m in gap
            else (
                SamplePoint(
                    int(rng.integers(1, 3)),
                    (int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                ),
            )
            for m in range(m_total)
        )
        schedule = SamplingSchedule(frames=frames)
        values = np.zeros((m_total, 4, 1))
        values[:, 0, 0] = 0.8
        truth = SubstanceDistribution(values=values, geometry=geometry)
        signals = acquire(truth, base, schedule, 0.0, rng_seed=0)
        config = SolverConfig(
            lambda_x=1e-4,
            lambda_w1=1.0,
            lambda_w2=0.0,
            rho1=0.1,
            rho2=0.5,
            mu=0.1,
            outer_iters=2500,
        )
        estimate, _ = solve(signals, schedule, base, geometry, config)
        x = estimate.frame_matrix()
        for m in sorted(gap):
            np.testing.assert_allclose(x[m], x[5], atol=1e-6)
            assert np.abs(x[m]).max() > 0.1

    @pytest.mark.parametrize("n_frames", [1, 2])
    def test_short_solves_meet_the_optimality_conditions(self, n_frames, small_base, small_geometry):
        # one frame runs the h-step and the projection on no difference; two frames run them on one
        from mrsi_cs.oracle import kkt_residual

        rng = np.random.default_rng(5)
        frames = tuple(tuple(random_points(rng, small_geometry, 3)) for _ in range(n_frames))
        schedule = SamplingSchedule(frames=frames)
        values = np.zeros((n_frames, 16, 2))
        values[:, 3, 0], values[:, 7, 1] = 0.5, 0.3
        truth = SubstanceDistribution(values=values, geometry=small_geometry)
        signals = acquire(truth, small_base, schedule, 0.01, rng_seed=2)
        lambdas = (1e-3, 1e-2, 1e-1)
        config = SolverConfig(*lambdas, rho1=0.1, rho2=0.5, mu=0.1, outer_iters=2000)
        estimate, _ = solve(signals, schedule, small_base, small_geometry, config)
        assert np.count_nonzero(estimate.values) > 16  # the l1 terms do not settle it at zero
        # measured 4e-14 (one frame) and 1e-10 (two frames); the gradients' scale is about 1
        kkt = kkt_residual(estimate, signals, schedule, small_base, small_geometry, lambdas, zero_tol=1e-6)
        assert kkt < 1e-8

    def test_one_frame_runs_every_step(self, monkeypatch):
        # one frame takes the same loop as many: an h-step and a projection per outer iteration
        import mrsi_cs.solver as solver_module

        calls = {"update_h": 0, "project_constraint": 0}
        for name in calls:
            def counted(*args, _step=getattr(solver_module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _step(*args, **kwargs)

            monkeypatch.setattr(solver_module, name, counted)
        geometry, base, point = scalar_problem()
        schedule = SamplingSchedule(frames=((point,),))
        signals = SignalSet(per_frame={0: np.array([2.0 + 0j])})
        config = SolverConfig(lambda_x=0.1, outer_iters=7)
        _, log = solve(signals, schedule, base, geometry, config)
        assert len(log) == 7
        assert calls == {"update_h": 7, "project_constraint": 7}

    def test_divergence_detection(self, small_geometry):
        # a finite base spectrum whose normal matrix overflows poisons the first iteration
        spectra = np.full((1, 4, 8), 1e200, dtype=complex)
        base = BaseSpectraSet.from_spectra(spectra)
        schedule = SamplingSchedule(frames=((SamplePoint(1, (1, 1)),), None))
        signals = SignalSet(per_frame={0: np.ones(8, dtype=complex)})
        with pytest.raises(DivergenceError) as err:
            solve(signals, schedule, base, small_geometry, SolverConfig(outer_iters=5))
        assert err.value.iteration == 1

    def test_singular_normal_factor_raises_divergence(self, rng, small_geometry):
        # finite base spectra, huge enough that a point sampled twice rounds K to a singular matrix
        spectra = (rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))) * 1e120
        base = BaseSpectraSet.from_spectra(spectra)
        point = SamplePoint(2, (1, 3))
        schedule = SamplingSchedule(frames=((point, point), None))
        signals = SignalSet(per_frame={0: np.ones(16, dtype=complex)})
        with pytest.raises(DivergenceError, match="singular") as err:
            solve(signals, schedule, base, small_geometry, SolverConfig(outer_iters=5))
        assert err.value.iteration == 0

    def test_factor_hooks_build_and_request_each_point_set_once(
        self, rng, small_base, small_geometry, built_point_sets, requested_point_sets
    ):
        # the benchmark's model.factor_builds and factor_requests count these two calls
        points = [(p,) for p in random_points(rng, small_geometry, 3)]
        frames = (points[0], None, points[1], points[0], points[2], None, points[1], points[0])
        schedule = SamplingSchedule(frames=frames)
        truth = SubstanceDistribution(values=np.full((8, 16, 2), 0.1), geometry=small_geometry)
        signals = acquire(truth, small_base, schedule, 0.05, rng_seed=3)
        solve(signals, schedule, small_base, small_geometry, SolverConfig(outer_iters=2))
        distinct = list(dict.fromkeys(points))  # first-seen order: the frames sample them in order
        assert requested_point_sets == built_point_sets == distinct

    def test_residual_log_lengths(self, rng, small_base, small_geometry):
        schedule = random_schedule(rng, small_geometry, 5)
        truth = SubstanceDistribution(
            values=np.zeros((5, 16, 2)), geometry=small_geometry
        )
        signals = acquire(truth, small_base, schedule, 0.1, rng_seed=1)
        config = SolverConfig(outer_iters=17)
        _, log = solve(signals, schedule, small_base, small_geometry, config)
        assert len(log) == 17

    def test_early_stop(self, rng, small_base, small_geometry):
        schedule = random_schedule(rng, small_geometry, 5)
        truth = SubstanceDistribution(
            values=np.zeros((5, 16, 2)), geometry=small_geometry
        )
        signals = acquire(truth, small_base, schedule, 0.1, rng_seed=1)
        config = SolverConfig(outer_iters=5000, stop_tol=1e-6)
        _, log = solve(signals, schedule, small_base, small_geometry, config)
        assert len(log) < 5000


def gapped_instance(rng, small_base, small_geometry, n_frames=10, acquire_prob=0.6):
    schedule = random_schedule(rng, small_geometry, n_frames, acquire_prob=acquire_prob)
    values = np.zeros((n_frames, 16, 2))
    values[:, 3, 0] = np.linspace(0.2, 0.9, n_frames)
    values[:, 9, 1] = 0.5
    truth = SubstanceDistribution(values=values, geometry=small_geometry)
    return schedule, acquire(truth, small_base, schedule, 0.05, rng_seed=5)


WEIGHT_STACK = np.array(
    [[1e-3, 1e-2, 1e-1], [0.05, 0.0, 1.0], [0.0, 0.5, 0.0], [2.0, 1e-3, 10.0], [0.01, 0.01, 0.01]]
)


class TestWeightStack:
    def test_stacked_rows_match_solo_solves(self, rng, small_base, small_geometry):
        schedule, signals = gapped_instance(rng, small_base, small_geometry)
        assert None in schedule.frames
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=60)
        values, logs = solve(signals, schedule, small_base, small_geometry, config, weights=WEIGHT_STACK)
        assert values.shape == (len(WEIGHT_STACK), schedule.n_frames, 16, 2)
        assert len(logs) == len(WEIGHT_STACK)
        for i, (lam_x, lam_w1, lam_w2) in enumerate(WEIGHT_STACK):
            solo_config = replace(config, lambda_x=lam_x, lambda_w1=lam_w1, lambda_w2=lam_w2)
            estimate, log = solve(signals, schedule, small_base, small_geometry, solo_config)
            np.testing.assert_allclose(values[i], estimate.values, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(logs[i].rms_x_minus_z, log.rms_x_minus_z, rtol=1e-12)
            np.testing.assert_allclose(logs[i].rms_z_delta, log.rms_z_delta, rtol=1e-12)

    @pytest.mark.parametrize("acquire_prob", [0.6, 1.0], ids=["gaps", "every-frame"])
    def test_rows_stop_at_their_solo_iteration(self, acquire_prob, rng, small_base, small_geometry):
        # with every frame acquired the x-update takes its every-frame path; the l1 thresholds are
        # (C, N*J) rows there too, and a row that stops is compressed out of them with the state
        schedule, signals = gapped_instance(rng, small_base, small_geometry, acquire_prob=acquire_prob)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=3000, stop_tol=1e-4)
        values, logs = solve(signals, schedule, small_base, small_geometry, config, weights=WEIGHT_STACK)
        solo_lengths = []
        for i, (lam_x, lam_w1, lam_w2) in enumerate(WEIGHT_STACK):
            solo_config = replace(config, lambda_x=lam_x, lambda_w1=lam_w1, lambda_w2=lam_w2)
            estimate, log = solve(signals, schedule, small_base, small_geometry, solo_config)
            solo_lengths.append(len(log))
            np.testing.assert_allclose(values[i], estimate.values, rtol=1e-12, atol=1e-14)
        assert [len(log) for log in logs] == solo_lengths
        assert len(set(solo_lengths)) > 1  # the rows really stop at different iterations

    def test_stopping_rows_adds_at_most_one_array_per_row(self, rng):
        # M = 64 frames and N*J = 128 unknowns, so the arrays exceed numpy's ufunc buffer
        geometry = AcquisitionGeometry(spatial_dims=(8, 8), spectral_evolution_points=4, readout_points=8)
        spectra = rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))
        base = BaseSpectraSet.from_spectra(spectra)
        schedule = random_schedule(rng, geometry, 64, acquire_prob=0.75)
        truth = SubstanceDistribution(values=np.full((64, 64, 2), 0.1), geometry=geometry)
        signals = acquire(truth, base, schedule, 0.05, rng_seed=3)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=300)

        def traced_peak(config):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _, logs = solve(signals, schedule, base, geometry, config, weights=WEIGHT_STACK)
                return tracemalloc.get_traced_memory()[1] - before, logs
            finally:
                tracemalloc.stop()

        full_run, _ = traced_peak(config)
        stopping, logs = traced_peak(replace(config, stop_tol=1e-3))
        lengths = {len(log) for log in logs}
        assert min(lengths) < 300 and len(lengths) > 2  # rows leave the stack at several iterations
        array_bytes = 8 * 64 * 128
        assert stopping <= full_run + len(WEIGHT_STACK) * array_bytes

    def test_own_factor_cache_is_not_kept_through_the_loop(self, rng):
        # one point per frame keeps the stacked factor narrow, so the loop's arrays set the peak;
        # a cache kept through the loop would add a second copy of every frame's factor
        geometry = AcquisitionGeometry(spatial_dims=(8, 8), spectral_evolution_points=4, readout_points=8)
        spectra = rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))
        base = BaseSpectraSet.from_spectra(spectra)
        schedule = random_schedule(rng, geometry, 64, acquire_prob=1.0)
        truth = SubstanceDistribution(values=np.full((64, 64, 2), 0.1), geometry=geometry)
        signals = acquire(truth, base, schedule, 0.05, rng_seed=3)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=3)
        stacked = FactorizationCache(base, geometry).stack(schedule.frames, config.rho1 + config.mu)
        stack_bytes = stacked.phi.nbytes + stacked.core.nbytes + stacked.s.nbytes
        del stacked
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solve(signals, schedule, base, geometry, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        array_bytes = 8 * 64 * 128
        # the loop's arrays and per-row temporaries, Re(A^H y), the stacked factor and one array of slack
        assert peak <= (_ROW_STATE_ARRAYS + 2) * array_bytes + stack_bytes

    def test_one_row_solves_sharing_a_set_up_match_one_stack(
        self, rng, small_base, small_geometry, built_point_sets
    ):
        schedule, signals = gapped_instance(rng, small_base, small_geometry)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=30)
        whole, whole_logs = solve(signals, schedule, small_base, small_geometry, config, weights=WEIGHT_STACK)
        del built_point_sets[:]  # count the shared set-up's builds only
        prepared = prepare(signals, schedule, small_base, small_geometry, config)
        for i in range(len(WEIGHT_STACK)):
            values, logs = solve(
                signals, schedule, small_base, small_geometry, config,
                weights=WEIGHT_STACK[i : i + 1], prepared=prepared,
            )
            np.testing.assert_array_equal(values[0], whole[i])
            assert logs[0] == whole_logs[i]
        assert sorted(built_point_sets) == sorted({schedule.frames[m] for m in schedule.acquired_index_set})

    @pytest.mark.parametrize("problem", ["small", "one-unknown"])
    def test_stacked_rows_are_bit_identical_to_solo_rows(self, problem, rng, small_base, small_geometry):
        # at N*J = 1 a row axis placed on a matrix dimension would send solo rows to gemv;
        # three repeats of the point give six factor columns, so the sums there have terms to order
        if problem == "small":
            schedule, signals = gapped_instance(rng, small_base, small_geometry)
            base, geometry = small_base, small_geometry
        else:
            geometry, base, point = scalar_problem()
            frames = tuple(None if m in (3, 4) else (point,) * 3 for m in range(9))
            schedule = SamplingSchedule(frames=frames)
            signals = SignalSet(
                per_frame={m: [0.1 * m + 0.05j, 0.1 * m, 0.05j] for m in schedule.acquired_index_set}
            )
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=25)
        values, logs = solve(signals, schedule, base, geometry, config, weights=WEIGHT_STACK)
        for i, row in enumerate(WEIGHT_STACK):
            solo, solo_logs = solve(signals, schedule, base, geometry, config, weights=row[None])
            np.testing.assert_array_equal(values[i], solo[0])
            assert logs[i] == solo_logs[0]

    def test_rows_on_a_cv_fold_are_bit_identical_in_stacks_of_any_size(self, rng, small_base, small_geometry):
        # a training fold withholds every other acquired frame, so the factor covers only the
        # frames with data and its products run on those; one gap shifts the parity
        frames = list(random_schedule(rng, small_geometry, 14, acquire_prob=1.0).frames)
        frames[5] = None
        schedule = SamplingSchedule(frames=tuple(frames))
        truth = SubstanceDistribution(values=np.full((14, 16, 2), 0.2), geometry=small_geometry)
        fold, _ = split_readouts(schedule, acquire(truth, small_base, schedule, 0.05, rng_seed=5))
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=25)
        prepared = prepare(fold.signals, fold.schedule, small_base, small_geometry, config)
        np.testing.assert_array_equal(prepared[1].index, [0, 2, 4, 7, 9, 11, 13])
        weights = 10.0 ** rng.uniform(-3, 1, size=(17, 3))
        whole, whole_logs = solve(
            fold.signals, fold.schedule, small_base, small_geometry, config, weights=weights, prepared=prepared
        )
        for size in (1, 2, 3):
            for start in range(0, len(weights), size):
                rows = slice(start, start + size)
                values, logs = solve(
                    fold.signals, fold.schedule, small_base, small_geometry, config,
                    weights=weights[rows], prepared=prepared,
                )
                np.testing.assert_array_equal(values, whole[rows])
                assert logs == whole_logs[rows]

    @pytest.mark.parametrize("acquire_prob", [0.6, 1.0], ids=["gapped-fold", "every-frame"])
    def test_clip_form_agrees_with_the_shrink_then_ascend_loop(self, acquire_prob, rng, small_base, small_geometry,
                                                               monkeypatch):
        # 1/shift folded into the coefficients and the dual taken as a clip round differently; over 40 outer
        # iterations the estimates and logs must stay within 1e-12 of the loop they replace
        schedule, signals = gapped_instance(rng, small_base, small_geometry, n_frames=14, acquire_prob=acquire_prob)
        if acquire_prob < 1.0:
            schedule, signals = split_readouts(schedule, signals)[0]
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=40)
        prepared = prepare(signals, schedule, small_base, small_geometry, config)
        assert isinstance(prepared[1].index, slice) == (acquire_prob == 1.0)
        values, logs = solve(signals, schedule, small_base, small_geometry, config, WEIGHT_STACK, prepared)
        start = prepared[0] * prepared[1].shift  # Re(A^H y) as the solve starts from it
        monkeypatch.setattr(solver_module, "update_x_frame", shrink_then_ascend_x_update(start))
        expected, expected_logs = solve(signals, schedule, small_base, small_geometry, config, WEIGHT_STACK, prepared)
        for row, expected_row in zip(values, expected):
            assert np.abs(row - expected_row).max() <= 1e-12 * np.abs(expected_row).max()
        for log, expected_log in zip(logs, expected_logs):
            np.testing.assert_allclose(log.rms_x_minus_z, expected_log.rms_x_minus_z, rtol=1e-12)
            np.testing.assert_allclose(log.rms_z_delta, expected_log.rms_z_delta, rtol=1e-12)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-3])
    def test_rejects_non_finite_or_negative_rows(self, value, rng, small_base, small_geometry):
        schedule, signals = gapped_instance(rng, small_base, small_geometry)
        weights = WEIGHT_STACK.copy()
        weights[2, 1] = value
        with pytest.raises(ParameterError):
            solve(signals, schedule, small_base, small_geometry, SolverConfig(outer_iters=2), weights=weights)

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (2, 2), (1, 2, 3)])
    def test_rejects_malformed_stack(self, shape, rng, small_base, small_geometry):
        schedule, signals = gapped_instance(rng, small_base, small_geometry)
        with pytest.raises(ShapeError):
            solve(signals, schedule, small_base, small_geometry, SolverConfig(outer_iters=2),
                  weights=np.zeros(shape))


class TestObjectiveValue:
    def test_zero_everything(self, rng, small_base, small_geometry):
        schedule = random_schedule(rng, small_geometry, 4)
        signals = SignalSet(
            per_frame={m: np.zeros(8, dtype=complex) for m in schedule.acquired_index_set}
        )
        config = SolverConfig(lambda_x=1.0, lambda_w1=1.0, lambda_w2=1.0)
        x = np.zeros((4, 32))
        assert objective_value(x, signals, schedule, small_base, small_geometry, config) == 0.0

    def test_constant_x_kills_difference_terms(self, rng, small_base, small_geometry):
        schedule = random_schedule(rng, small_geometry, 4, acquire_prob=1.0)
        truth = SubstanceDistribution(values=np.zeros((4, 16, 2)), geometry=small_geometry)
        signals = acquire(truth, small_base, schedule, 0.1, rng_seed=4)
        x = np.tile(rng.standard_normal(32), (4, 1))
        with_diff = SolverConfig(lambda_x=0.0, lambda_w1=5.0, lambda_w2=5.0)
        without = SolverConfig(lambda_x=0.0, lambda_w1=0.0, lambda_w2=0.0)
        a = objective_value(x, signals, schedule, small_base, small_geometry, with_diff)
        b = objective_value(x, signals, schedule, small_base, small_geometry, without)
        assert a == pytest.approx(b)

    def test_single_frame_scalar(self):
        geometry, base, point = scalar_problem()
        schedule = SamplingSchedule(frames=((point,),))
        signals = SignalSet(per_frame={0: np.array([1.0 + 0j])})
        config = SolverConfig(lambda_x=2.0)
        x = np.array([[1.0]])
        assert objective_value(x, signals, schedule, base, geometry, config) == pytest.approx(2.0)

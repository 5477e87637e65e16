import tracemalloc

import numpy as np
import pytest

from mrsi_cs import (
    AcquisitionGeometry,
    BaseSpectraSet,
    ParameterError,
    SamplePoint,
    SamplingSchedule,
    ScheduleError,
    ShapeError,
    SubstanceDistribution,
    apply_adjoint,
    apply_forward,
)
from mrsi_cs.model import FactorizationCache, NormalFactor, normal_matrix
from conftest import random_points


def dense_operator(points, base, geometry):
    """Measurement matrix assembled column by column from unit vectors."""
    n = geometry.n_voxels * base.n_substances
    cols = [apply_forward(np.eye(n)[i], points, base, geometry) for i in range(n)]
    return np.stack(cols, axis=1)


def naive_forward(x_m, points, base, geometry):
    """Full-tensor reference: mix spectra, take the unitary DFT over every axis, sample."""
    j = base.n_substances
    xr = np.asarray(x_m).reshape(*geometry.spatial_dims, j)
    theta = np.zeros(
        (base.n_evolution, base.n_readout, *geometry.spatial_dims), dtype=np.complex128
    )
    for sub in range(j):
        theta += (
            base.spectra[sub][(...,) + (None,) * len(geometry.spatial_dims)]
            * xr[..., sub][(None, None)]
        )
    full = np.fft.fftn(theta) / np.sqrt(theta.size)
    out = [
        full[(p.spectral_index - 1, slice(None)) + tuple(c - 1 for c in p.k_index)]
        for p in points
    ]
    return np.concatenate(out)


# (spatial dims, evolution points, readout points, substances J); "short-readout" has J > N_RO,
# so each point's QR factor has fewer rows than J
FACTOR_CASES = {
    "2-D": ((4, 4), 4, 8, 2),
    "short-readout": ((3, 3), 2, 2, 3),
    "1-D": ((6,), 3, 4, 2),
    "3-D": ((2, 3, 2), 2, 3, 2),
}


def factor_problem(case, rng):
    dims, n_evolution, n_readout, j = FACTOR_CASES[case]
    geometry = AcquisitionGeometry(
        spatial_dims=dims, spectral_evolution_points=n_evolution, readout_points=n_readout
    )
    shape = (j, n_evolution, n_readout)
    base = BaseSpectraSet.from_spectra(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return base, geometry


def operator_point_sets(rng, geometry, count):
    """``count`` random sets of 1-3 points, one set with a repeated point, and one fully sampled frame.

    The full frame samples every k index at one evolution index.
    """
    sets = [random_points(rng, geometry, int(rng.integers(1, 4))) for _ in range(count)]
    sets.append(sets[0] + sets[0][:1])
    d = int(rng.integers(1, geometry.spectral_evolution_points + 1))
    sets.append([SamplePoint(d, tuple(k + 1 for k in index)) for index in np.ndindex(geometry.spatial_dims)])
    return sets


class TestApplyForward:
    def test_uniform_field_dc_point(self):
        geometry = AcquisitionGeometry(
            spatial_dims=(4, 4), spectral_evolution_points=4, readout_points=8
        )
        # spectra built so that the time-domain tensor is an impulse row at d=1
        fid = np.zeros((1, 4, 8), dtype=complex)
        fid[0, 0, 0] = 1.0
        spectra = np.fft.ifft2(fid) * np.sqrt(4 * 8)
        base = BaseSpectraSet.from_spectra(spectra)
        x = np.ones(16)
        out = apply_forward(x, [SamplePoint(1, (1, 1))], base, geometry)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 4.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_input(self, small_base, small_geometry, rng):
        points = random_points(rng, small_geometry, 3)
        out = apply_forward(np.zeros(32), points, small_base, small_geometry)
        assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize("case", list(FACTOR_CASES))
    def test_matches_naive_full_transform(self, case, rng):
        base, geometry = factor_problem(case, rng)
        for points in operator_point_sets(rng, geometry, 25):
            x = rng.standard_normal(geometry.n_voxels * base.n_substances)
            fast = apply_forward(x, points, base, geometry)
            slow = naive_forward(x, points, base, geometry)
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_leading_axes_match_single_vectors(self, rng, small_base, small_geometry):
        x = rng.standard_normal((2, 3, 32))
        points = random_points(rng, small_geometry, 3)
        out = apply_forward(x, points, small_base, small_geometry)
        assert out.shape == (2, 3, 3 * 8)
        for index in np.ndindex(2, 3):
            single = apply_forward(x[index], points, small_base, small_geometry)
            np.testing.assert_allclose(out[index], single, rtol=1e-13, atol=1e-14)
        with pytest.raises(ShapeError):
            apply_forward(np.zeros((2, 31)), points, small_base, small_geometry)

    def test_out_of_range_point(self, small_base, small_geometry):
        with pytest.raises(ScheduleError):
            apply_forward(np.zeros(32), [SamplePoint(5, (1, 1))], small_base, small_geometry)
        with pytest.raises(ScheduleError):
            apply_forward(np.zeros(32), [SamplePoint(1, (0, 1))], small_base, small_geometry)


class TestApplyAdjoint:
    @pytest.mark.parametrize("case", list(FACTOR_CASES))
    def test_adjoint_identity(self, case, rng):
        base, geometry = factor_problem(case, rng)
        for points in operator_point_sets(rng, geometry, 25):
            x = rng.standard_normal(geometry.n_voxels * base.n_substances)
            ax = apply_forward(x, points, base, geometry)
            y = rng.standard_normal(ax.shape) + 1j * rng.standard_normal(ax.shape)
            lhs = np.vdot(y, ax).real
            rhs = float(x @ apply_adjoint(y, points, base, geometry))
            bound = 1e-10 * max(np.linalg.norm(x) * np.linalg.norm(y), 1.0)
            assert abs(lhs - rhs) <= bound

    def test_zero_residual(self, small_base, small_geometry):
        out = apply_adjoint(
            np.zeros(8, dtype=complex), [SamplePoint(1, (1, 1))], small_base, small_geometry
        )
        assert out.shape == (32,)
        assert np.abs(out).max() == 0.0

    def test_matches_dense_matrix(self, rng, small_geometry):
        spectra = rng.standard_normal((1, 4, 8)) + 1j * rng.standard_normal((1, 4, 8))
        base = BaseSpectraSet.from_spectra(spectra)
        points = [SamplePoint(2, (3, 1))]
        dense = dense_operator(points, base, small_geometry)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        expected = (dense.conj().T @ y).real
        out = apply_adjoint(y, points, base, small_geometry)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_length_mismatch(self, small_base, small_geometry):
        with pytest.raises(ShapeError):
            apply_adjoint(np.zeros(7, dtype=complex), [SamplePoint(1, (1, 1))], small_base, small_geometry)


def dense_columns(phi, core):
    """V = (Phi^T kron I_J) T, formed densely from a point set's pieces."""
    j = core.shape[-2] // phi.shape[-2]
    return np.kron(phi.T, np.eye(j)) @ core


def dense_normal(factor):
    """V V^T + shift*I assembled from a factor's separable pieces."""
    v = dense_columns(factor.phi, factor.core)
    return v @ v.T + factor.shift * np.eye(v.shape[0])


def dense_gram(points, base, geometry):
    """Re(A^H A) of a frame's points from the dense operator; zero for a data-free frame."""
    if points is None:
        return np.zeros((geometry.n_voxels * base.n_substances,) * 2)
    dense = dense_operator(points, base, geometry)
    return (dense.conj().T @ dense).real


def assert_relative_close(got, expected, rtol=1e-12):
    assert np.linalg.norm(got - expected) <= rtol * np.linalg.norm(expected)


class TestNormalMatrix:
    def test_scalar_case(self):
        geometry = AcquisitionGeometry(
            spatial_dims=(1,), spectral_evolution_points=1, readout_points=1
        )
        base = BaseSpectraSet.from_spectra(np.ones((1, 1, 1), dtype=complex))
        factor = NormalFactor(*normal_matrix([SamplePoint(1, (1,))], base, geometry), 2.0)
        np.testing.assert_allclose(dense_normal(factor), [[3.0]])
        rhs = np.array([3.0]) / factor.shift  # the right-hand side comes divided by shift
        np.testing.assert_allclose(factor.solve(rhs, np.empty_like(rhs)), [1.0])

    def test_positive_definite_above_shift(self, rng, small_base, small_geometry):
        for _ in range(5):
            points = random_points(rng, small_geometry, 2)
            factor = NormalFactor(*normal_matrix(points, small_base, small_geometry), 0.3)
            eigs = np.linalg.eigvalsh(dense_normal(factor))
            assert eigs.min() >= 0.3 - 1e-10

    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated-point"])
    @pytest.mark.parametrize("case", list(FACTOR_CASES))
    def test_matches_dense_assembly(self, case, repeated, rng):
        base, geometry = factor_problem(case, rng)
        points = random_points(rng, geometry, 2)
        if repeated:
            points.insert(1, points[0])
        phi, core = normal_matrix(points, base, geometry)
        n_points, j = len(points), base.n_substances
        rank = min(base.n_readout, j)
        assert phi.shape == (2 * n_points, geometry.n_voxels)  # real and imaginary DFT row per point
        assert core.shape == (2 * n_points * j, 2 * n_points * rank)
        v = dense_columns(phi, core)
        assert_relative_close(v @ v.T, dense_gram(points, base, geometry))
        shift = 0.2
        b = rng.standard_normal(geometry.n_voxels * j)
        expected = np.linalg.solve(dense_gram(points, base, geometry) + shift * np.eye(len(b)), b)
        assert_relative_close(NormalFactor(phi, core, shift).solve(b / shift, np.empty_like(b)), expected)

    @pytest.mark.parametrize("case", list(FACTOR_CASES))
    def test_core_equals_per_point_blocks(self, case, rng):
        base, geometry = factor_problem(case, rng)
        points = random_points(rng, geometry, 3)
        _, core = normal_matrix(points, base, geometry)
        j, rank = base.n_substances, min(base.n_readout, base.n_substances)
        expected = np.zeros((3, 2, j, 3, 2, rank))
        for p, point in enumerate(points):
            r_t = base.readout_r[point.spectral_index - 1].T  # X + iY
            expected[p, 0, :, p, 0] = expected[p, 1, :, p, 1] = r_t.real
            expected[p, 0, :, p, 1] = -r_t.imag
            expected[p, 1, :, p, 0] = r_t.imag
        np.testing.assert_array_equal(core, expected.reshape(core.shape))

    @pytest.mark.parametrize("case", list(FACTOR_CASES))
    def test_stacked_mixed_point_counts_match_dense_solves(self, case, rng):
        base, geometry = factor_problem(case, rng)
        shift, n = 0.2, geometry.n_voxels * base.n_substances
        frames = [tuple(random_points(rng, geometry, count)) for count in (1, 2, 3, 1)]
        frames.insert(2, None)  # a data-free frame
        frames.append(frames[1][:1] * 2)  # a point sampled twice
        stacked = FactorizationCache(base, geometry).stack(frames, shift)
        # the five frames with data, Phi and T padded to 3 points: 2 rows of Phi, 2J rows and
        # 2*min(N_RO, J) columns of T per point
        np.testing.assert_array_equal(stacked.index, [0, 1, 3, 4, 5])
        assert stacked.phi.shape == (5, 1, 6, geometry.n_voxels)
        assert stacked.core.shape == (5, 1, 6 * base.n_substances, 6 * min(base.n_readout, base.n_substances))
        for k, m in enumerate(stacked.index):
            v = dense_columns(stacked.phi[k, 0], stacked.core[k, 0])
            assert_relative_close(v @ v.T, dense_gram(frames[m], base, geometry))
        rhs = rng.standard_normal((5, 1, n))  # the frames with data
        got = stacked.solve(rhs / shift, np.empty_like(rhs))[:, 0]
        for m, b, x in zip(stacked.index, rhs[:, 0], got):
            assert_relative_close(x, np.linalg.solve(dense_gram(frames[m], base, geometry) + shift * np.eye(n), b))


class TestNormalFactor:
    @pytest.mark.parametrize("shift", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_shift_that_is_not_finite_and_positive(self, shift):
        with pytest.raises(ParameterError):
            NormalFactor(np.ones((2, 3)), np.ones((2, 1)), shift)

    def test_stack_holds_only_the_separable_pieces(self, rng, small_base):
        # 64 frames of 1 or 2 points on 64 voxels, every fourth without data: a dense V would be
        # N*J x 2P*J per frame, and a data-free frame holds nothing
        geometry = AcquisitionGeometry(spatial_dims=(8, 8), spectral_evolution_points=4, readout_points=8)
        frames = [None if m % 4 == 3 else tuple(random_points(rng, geometry, 1 + m % 2)) for m in range(64)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stacked = FactorizationCache(small_base, geometry).stack(frames, 0.2)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(stacked.index, [m for m in range(64) if m % 4 != 3])
        rows, j = 2 * 2, small_base.n_substances  # 2P rows of Phi, padded to 2 points
        bound = 48 * (rows * geometry.n_voxels + 2 * (rows * j) ** 2) * 8
        assert stacked.phi.nbytes + stacked.core.nbytes + stacked.s.nbytes <= bound
        assert kept <= bound + stacked.index.nbytes + 4096  # a few small Python objects beside the arrays

    def test_solve_runs_on_the_frames_with_data(self, rng, small_base, small_geometry):
        # data-free frames interleaved as in a CV fold, plus a gap: the right-hand sides are the
        # frames with data only, already divided by shift, and match the dense solves
        shift, n = 0.3, small_geometry.n_voxels * small_base.n_substances
        frames = [
            None if m % 2 or m == 6 else tuple(random_points(rng, small_geometry, 1 + m % 3)) for m in range(12)
        ]
        stacked = FactorizationCache(small_base, small_geometry).stack(frames, shift)
        data = [m for m, points in enumerate(frames) if points is not None]
        np.testing.assert_array_equal(stacked.index, data)
        rhs = rng.standard_normal((len(data), 3, n))  # (frame with data, weight row, N*J)
        out = stacked.solve(rhs / shift, np.empty_like(rhs))
        for m, b_rows, got_rows in zip(data, rhs, out):
            normal = dense_gram(frames[m], small_base, small_geometry) + shift * np.eye(n)
            for got, b in zip(got_rows, b_rows):
                assert_relative_close(got, np.linalg.solve(normal, b))

    def test_solve_allocates_less_than_one_iterate(self, rng, small_base, small_geometry):
        frames = [tuple(random_points(rng, small_geometry, 2)) for _ in range(32)]
        stacked = FactorizationCache(small_base, small_geometry).stack(frames, 0.2)
        rhs = rng.standard_normal((32, 3, 32))  # (frame, weight row, N*J)
        out = np.empty_like(rhs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            returned = stacked.solve(rhs, out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < rhs.nbytes
        assert returned is out


class TestFactorizationCache:
    @staticmethod
    def frames(rng, geometry):
        """Three point sets of 2, 1 and 3 points over eight frames, with gaps and repeats."""
        a, b, c = (tuple(random_points(rng, geometry, count)) for count in (2, 1, 3))
        return [a, None, b, a, c, None, b, a], [a, b, c]

    def test_stack_builds_each_distinct_point_set_once_in_first_seen_order(
        self, rng, small_base, small_geometry, built_point_sets, requested_point_sets
    ):
        # the benchmark's model.factor_builds and factor_requests count these two calls
        frames, distinct = self.frames(rng, small_geometry)
        FactorizationCache(small_base, small_geometry).stack(frames, 0.2)
        assert requested_point_sets == built_point_sets == distinct

    @pytest.mark.parametrize("case", list(FACTOR_CASES))
    def test_stack_holds_each_frames_padded_pieces(self, case, rng):
        base, geometry = factor_problem(case, rng)
        frames, _ = self.frames(rng, geometry)
        stacked = FactorizationCache(base, geometry).stack(frames, 0.2)
        # only the six frames with data are stacked, in frame order
        np.testing.assert_array_equal(stacked.index, [0, 2, 3, 4, 6, 7])
        assert len(stacked.phi) == len(stacked.core) == len(stacked.s) == 6
        for k, m in enumerate(stacked.index):
            phi, core = np.zeros(stacked.phi.shape[2:]), np.zeros(stacked.core.shape[2:])
            frame_phi, frame_core = normal_matrix(frames[m], base, geometry)
            phi[: len(frame_phi)] = frame_phi
            core[: len(frame_core), : frame_core.shape[1]] = frame_core
            np.testing.assert_array_equal(stacked.phi[k, 0], phi)
            np.testing.assert_array_equal(stacked.core[k, 0], core)

    def test_stack_over_every_frame_takes_all_frames(self, rng, small_base, small_geometry):
        frames, _ = self.frames(rng, small_geometry)
        stacked = FactorizationCache(small_base, small_geometry).stack([f for f in frames if f is not None], 0.2)
        assert stacked.index == slice(None)
        assert len(stacked.phi) == 6

    def test_new_shift_on_a_stack_equals_a_fresh_stack(self, rng, small_base, small_geometry):
        frames, _ = self.frames(rng, small_geometry)
        cache = FactorizationCache(small_base, small_geometry)
        stacked, fresh = cache.stack(frames, 3.0), cache.stack(frames, 0.2)
        # a new shift needs no rebuild: one batched inverse of the stacked K's
        np.testing.assert_array_equal(NormalFactor(stacked.phi, stacked.core, 0.2).s, fresh.s)
        rhs = rng.standard_normal((len(stacked.index), 1, 32))
        for shift, factor in ((3.0, stacked), (0.2, fresh)):
            for m, b, x in zip(stacked.index, rhs[:, 0], factor.solve(rhs / shift, np.empty_like(rhs))[:, 0]):
                expected = np.linalg.solve(dense_gram(frames[m], small_base, small_geometry) + shift * np.eye(32), b)
                assert_relative_close(x, expected)


class TestTypes:
    def test_base_spectra_fid_is_consistent(self, small_base):
        spectra = small_base.spectra
        np.testing.assert_allclose(
            small_base.fid, np.fft.fft2(spectra) / np.sqrt(spectra.shape[-2] * spectra.shape[-1]), atol=1e-14
        )

    @pytest.mark.parametrize("shape", [(4, 8), (1, 1, 4, 8)])
    def test_base_spectra_need_three_axes(self, shape):
        with pytest.raises(ShapeError):
            BaseSpectraSet.from_spectra(np.ones(shape, dtype=complex))

    def test_distribution_rejects_nonfinite(self, small_geometry):
        values = np.zeros((2, 16, 1))
        values[0, 0, 0] = np.nan
        with pytest.raises(ShapeError):
            SubstanceDistribution(values=values, geometry=small_geometry)

    def test_distribution_rejects_wrong_voxels(self, small_geometry):
        with pytest.raises(ShapeError):
            SubstanceDistribution(values=np.zeros((2, 15, 1)), geometry=small_geometry)

    def test_geometry_validation(self):
        with pytest.raises(ParameterError):
            AcquisitionGeometry(spatial_dims=(0,), spectral_evolution_points=1, readout_points=1)
        with pytest.raises(ParameterError):
            SamplingSchedule(frames=(None,), frame_interval_s=0.0)

    @pytest.mark.parametrize("interval", [float("inf"), float("-inf"), float("nan")])
    def test_frame_interval_must_be_finite(self, interval):
        with pytest.raises(ParameterError, match="finite"):
            SamplingSchedule(frames=(None,), frame_interval_s=interval)

    def test_schedule_needs_a_frame(self):
        with pytest.raises(ScheduleError, match="at least one frame"):
            SamplingSchedule(frames=())

import numpy as np
import pytest

from mrsi_cs import (
    AcquisitionGeometry,
    BaseSpectraSet,
    OracleConfig,
    ParameterError,
    SamplePoint,
    SamplingSchedule,
    SignalSet,
    SubstanceDistribution,
    acquire,
    apply_forward,
    kkt_residual,
    oracle_solve,
)
from mrsi_cs.solver import SolverConfig, objective_value, solve
from conftest import random_schedule


def scalar_instance(y=2.0):
    geometry = AcquisitionGeometry(
        spatial_dims=(1,), spectral_evolution_points=1, readout_points=1
    )
    base = BaseSpectraSet.from_spectra(np.ones((1, 1, 1), dtype=complex))
    schedule = SamplingSchedule(frames=((SamplePoint(1, (1,)),),))
    signals = SignalSet(per_frame={0: np.array([y + 0j])})
    return geometry, base, schedule, signals


def small_instance(rng, n_frames=8, noise=0.05):
    geometry = AcquisitionGeometry(
        spatial_dims=(2, 2), spectral_evolution_points=2, readout_points=4
    )
    spectra = rng.standard_normal((1, 2, 4)) + 1j * rng.standard_normal((1, 2, 4))
    base = BaseSpectraSet.from_spectra(spectra)
    schedule = random_schedule(rng, geometry, n_frames, acquire_prob=0.7)
    values = np.zeros((n_frames, 4, 1))
    values[:, 1, 0] = np.linspace(0.2, 0.9, n_frames)
    truth = SubstanceDistribution(values=values, geometry=geometry)
    signals = acquire(truth, base, schedule, noise, rng_seed=int(rng.integers(10**6)))
    return geometry, base, schedule, signals


class TestOracleSolve:
    def test_zero_data_gives_zero(self, rng):
        geometry, base, schedule, _ = small_instance(rng)
        signals = SignalSet(
            per_frame={m: np.zeros(4, dtype=complex) for m in schedule.acquired_index_set}
        )
        out = oracle_solve(signals, schedule, base, geometry, (0.1, 0.1, 0.1))
        assert np.abs(out.values).max() < 1e-9

    def test_scalar_shrinkage_solution(self):
        geometry, base, schedule, signals = scalar_instance(y=2.0)
        out = oracle_solve(signals, schedule, base, geometry, (0.5, 0.0, 0.0))
        assert out.values.ravel()[0] == pytest.approx(1.5, abs=1e-8)

    def test_agrees_with_production_solver(self, rng):
        geometry, base, schedule, signals = small_instance(rng)
        lambdas = (0.02, 0.05, 0.01)
        reference = oracle_solve(signals, schedule, base, geometry, lambdas)
        config = SolverConfig(
            lambda_x=lambdas[0],
            lambda_w1=lambdas[1],
            lambda_w2=lambdas[2],
            rho1=0.1,
            rho2=0.5,
            mu=0.1,
            outer_iters=2500,
        )
        estimate, _ = solve(signals, schedule, base, geometry, config)
        f_ref = objective_value(reference, signals, schedule, base, geometry, config)
        f_est = objective_value(estimate, signals, schedule, base, geometry, config)
        assert abs(f_est - f_ref) <= 1e-3 * abs(f_ref)

    def test_agrees_with_generic_convex_solver(self, rng):
        cp = pytest.importorskip("cvxpy")
        geometry, base, schedule, signals = small_instance(rng, n_frames=6)
        lambdas = (0.02, 0.05, 0.01)
        reference = oracle_solve(signals, schedule, base, geometry, lambdas)
        dense = {
            m: np.stack(
                [
                    apply_forward(np.eye(4)[i], schedule.frames[m], base, geometry)
                    for i in range(4)
                ],
                axis=1,
            )
            for m in schedule.acquired_index_set
        }
        x = cp.Variable((6, 4))
        objective = 0
        for m in schedule.acquired_index_set:
            r = dense[m] @ x[m] - signals.per_frame[m]
            objective += 0.5 * cp.sum_squares(cp.abs(r)) + lambdas[0] * cp.norm1(x[m])
        d = x[1:] - x[:-1]
        objective += lambdas[1] * cp.norm1(d) + 0.5 * lambdas[2] * cp.sum_squares(d)
        cp.Problem(cp.Minimize(objective)).solve()
        config = SolverConfig(
            lambda_x=lambdas[0], lambda_w1=lambdas[1], lambda_w2=lambdas[2]
        )
        f_ref = objective_value(reference, signals, schedule, base, geometry, config)
        f_cvx = objective_value(np.asarray(x.value), signals, schedule, base, geometry, config)
        assert abs(f_ref - f_cvx) <= 1e-5 * max(abs(f_cvx), 1e-12)

    def test_size_cap(self):
        geometry = AcquisitionGeometry(
            spatial_dims=(8, 8), spectral_evolution_points=2, readout_points=2
        )
        base = BaseSpectraSet.from_spectra(np.ones((1, 2, 2), dtype=complex))
        frames = tuple((SamplePoint(1, (1, 1)),) for _ in range(65))
        schedule = SamplingSchedule(frames=frames)
        signals = SignalSet(
            per_frame={m: np.zeros(2, dtype=complex) for m in range(65)}
        )
        with pytest.raises(ParameterError):
            oracle_solve(signals, schedule, base, geometry, (0.1, 0.1, 0.1))

    def test_objective_convexity_spot_check(self, rng):
        geometry, base, schedule, signals = small_instance(rng)
        config = SolverConfig(lambda_x=0.3, lambda_w1=0.2, lambda_w2=0.1)
        for _ in range(10):
            a = rng.standard_normal((8, 4))
            b = rng.standard_normal((8, 4))
            fa = objective_value(a, signals, schedule, base, geometry, config)
            fb = objective_value(b, signals, schedule, base, geometry, config)
            fm = objective_value((a + b) / 2, signals, schedule, base, geometry, config)
            assert fm <= 0.5 * (fa + fb) + 1e-12


class TestOracleConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("tol", float("nan")), ("tol", float("inf")), ("tol", 0.0),
            ("tau", float("nan")), ("tau", float("inf")), ("tau", -1.0),
            ("sigma", float("nan")), ("sigma", float("inf")), ("sigma", 0.0),
            ("max_iters", 2.5), ("max_iters", True), ("max_iters", 0),
            ("window", 1.5), ("window", False), ("window", -1),
        ],
    )
    def test_rejects_non_finite_and_non_integer_values(self, field, value):
        with pytest.raises(ParameterError):
            OracleConfig(**{field: value})
        assert OracleConfig(max_iters=np.int64(10), tau=0.5, sigma=0.5).max_iters == 10


class TestKktResidual:
    def test_zero_at_scalar_solution(self):
        geometry, base, schedule, signals = scalar_instance(y=2.0)
        r = kkt_residual(
            np.array([[1.5]]), signals, schedule, base, geometry, (0.5, 0.0, 0.0)
        )
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_value_at_origin(self):
        geometry, base, schedule, signals = scalar_instance(y=2.0)
        r = kkt_residual(
            np.array([[0.0]]), signals, schedule, base, geometry, (0.5, 0.0, 0.0)
        )
        assert r == pytest.approx(1.5, abs=1e-9)

    def test_small_at_oracle_solution(self, rng):
        geometry, base, schedule, signals = small_instance(rng)
        lambdas = (0.02, 0.05, 0.01)
        out = oracle_solve(signals, schedule, base, geometry, lambdas)
        r = kkt_residual(out, signals, schedule, base, geometry, lambdas, zero_tol=1e-7)
        scale = np.linalg.norm(
            np.concatenate(
                [signals.per_frame[m] for m in schedule.acquired_index_set]
            )
        )
        assert r <= 1e-4 * max(scale, 1.0)

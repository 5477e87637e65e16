import ast
import math
from pathlib import Path

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
    apply_adjoint,
    apply_forward,
    kkt_residual,
    oracle_solve,
)
from mrsi_cs import oracle
from mrsi_cs.solver import SolverConfig, objective_value, solve
from conftest import random_points, random_schedule


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

    def test_a_rising_objective_does_not_stop_the_iteration(self, rng, monkeypatch):
        # the window test stops on a decrease smaller than tol, not on a rise
        geometry, base, schedule, signals = small_instance(rng, n_frames=4)
        calls = []

        def rising(self, r):
            calls.append(None)
            return float(len(calls))

        monkeypatch.setattr(oracle._DenseFrames, "objective", rising)
        config = OracleConfig(max_iters=40, window=5)
        oracle_solve(signals, schedule, base, geometry, (0.02, 0.05, 0.01), config)
        assert len(calls) == config.max_iters

    def test_size_cap(self, monkeypatch):
        geometry = AcquisitionGeometry(
            spatial_dims=(8, 8), spectral_evolution_points=2, readout_points=2
        )
        base = BaseSpectraSet.from_spectra(np.ones((1, 2, 2), dtype=complex))
        frames = tuple((SamplePoint(1, (1, 1)),) for _ in range(65))
        schedule = SamplingSchedule(frames=frames)
        signals = SignalSet(
            per_frame={m: np.zeros(2, dtype=complex) for m in range(65)}
        )
        probes = []
        monkeypatch.setattr(oracle, "apply_forward", lambda *args: probes.append(args))
        with pytest.raises(ParameterError):
            oracle_solve(signals, schedule, base, geometry, (0.1, 0.1, 0.1))
        with pytest.raises(ParameterError):
            kkt_residual(
                np.zeros((65, 64)), signals, schedule, base, geometry, (0.1, 0.1, 0.1)
            )
        assert probes == []  # refused before any probing

    @pytest.mark.parametrize("entry", ["oracle_solve", "kkt_residual"])
    @pytest.mark.parametrize(
        "lambdas",
        [
            (math.nan, 0.0, 0.0), (0.5, math.inf, 0.0), (0.5, 0.0, -1.0),
            (-1.0, 0.0, 0.0), (0.5, math.nan, 0.0), (0.5, 0.0, math.inf),
        ],
    )
    def test_rejects_non_finite_and_negative_weights(self, entry, lambdas):
        geometry, base, schedule, signals = scalar_instance(y=2.0)
        with pytest.raises(ParameterError):
            if entry == "oracle_solve":
                oracle_solve(signals, schedule, base, geometry, lambdas, OracleConfig(max_iters=5))
            else:
                kkt_residual(np.array([[1.5]]), signals, schedule, base, geometry, lambdas)

    def test_schedule_without_data_gives_zero(self):
        geometry, base, _, _ = small_instance(np.random.default_rng(0))
        schedule = SamplingSchedule(frames=(None,) * 3)
        signals = SignalSet(per_frame={})
        out = oracle_solve(signals, schedule, base, geometry, (0.1, 0.1, 0.1))
        assert np.array_equal(out.values, np.zeros((3, 4, 1)))
        assert kkt_residual(out, signals, schedule, base, geometry, (0.1, 0.1, 0.1)) == 0.0

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
            ("max_iters", 2.5), ("max_iters", True), ("max_iters", 0),
            ("window", 1.5), ("window", False), ("window", -1),
        ],
    )
    def test_rejects_non_finite_and_non_integer_values(self, field, value):
        with pytest.raises(ParameterError):
            OracleConfig(**{field: value})
        assert OracleConfig(max_iters=np.int64(10)).max_iters == 10


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


class TestStackedDataTerm:
    def test_matches_per_frame_operator(self, rng):
        geometry = AcquisitionGeometry(
            spatial_dims=(2, 3), spectral_evolution_points=3, readout_points=4
        )
        spectra = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        base = BaseSpectraSet.from_spectra(spectra)
        counts = [1, None, 3, 3, None, None, 1, 3]  # frames of 1 and 3 points, with gaps
        frames = tuple(
            None if c is None else tuple(random_points(rng, geometry, c)) for c in counts
        )
        schedule = SamplingSchedule(frames=frames)
        signals = SignalSet(
            per_frame={
                m: rng.standard_normal(4 * len(f)) + 1j * rng.standard_normal(4 * len(f))
                for m, f in enumerate(frames)
                if f is not None
            }
        )
        x = rng.standard_normal((len(frames), 12))
        ops = oracle._DenseFrames(signals, schedule, base, geometry, (0.1, 0.1, 0.1))
        r = ops.residual(x)
        expect_obj, expect_grad = 0.0, np.zeros_like(x)
        for m, f in enumerate(frames):
            if f is not None:
                r_m = apply_forward(x[m], f, base, geometry) - signals.per_frame[m]
                expect_obj += 0.5 * float(np.vdot(r_m, r_m).real)
                expect_grad[m] = apply_adjoint(r_m, f, base, geometry)
        assert ops.objective(r) == pytest.approx(expect_obj, rel=1e-12)
        grad = ops.gradient(r)
        assert np.abs(grad - expect_grad).max() <= 1e-12 * np.abs(expect_grad).max()
        assert not grad[[1, 4, 5]].any()


def test_oracle_shares_only_the_forward_map():
    """The oracle certifies the production operator, so it may import no more of it."""
    allowed_from_model = {
        "apply_forward", "base_check", "AcquisitionGeometry", "BaseSpectraSet",
        "SamplePoint", "SamplingSchedule", "SignalSet", "SubstanceDistribution",
    }
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = []  # (package module, name) pairs
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [
                (a.name.split(".")[1], None) for a in node.names if a.name.startswith("mrsi_cs.")
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "mrsi_cs":
                    continue
                module = module.removeprefix("mrsi_cs").lstrip(".")
            # `from . import solver` names the module itself
            imported += [(module or a.name, a.name) for a in node.names]
    assert imported, "the import scan found no package imports"
    assert not [i for i in imported if i[0] in ("solver", "selection")], imported
    extra = {name for module, name in imported if module == "model"} - allowed_from_model
    assert not extra, f"oracle imports {sorted(extra)} from the production model"

import numpy as np
import pytest

from mrsi_cs import (
    AcquisitionGeometry,
    BaseSpectraSet,
    CvPlan,
    ParameterError,
    SamplePoint,
    SamplingSchedule,
    ShapeError,
    SignalSet,
    SubstanceDistribution,
    acquire,
    cv_rmse,
    grid_search,
    split_readouts,
)
from mrsi_cs.model import normal_matrix
from mrsi_cs.selection import PAPER_GRID, _directional_rmse
from mrsi_cs.solver import SolverConfig
from test_solver import full_sampling_schedule


def make_instance(rng, n_frames=12, gaps=(), noise=0.03):
    geometry = AcquisitionGeometry(
        spatial_dims=(2, 2), spectral_evolution_points=2, readout_points=4
    )
    spectra = rng.standard_normal((1, 2, 4)) + 1j * rng.standard_normal((1, 2, 4))
    base = BaseSpectraSet.from_spectra(spectra)
    frames = tuple(
        None
        if m in gaps
        else (
            SamplePoint(
                int(rng.integers(1, 3)), (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            ),
        )
        for m in range(n_frames)
    )
    schedule = SamplingSchedule(frames=frames)
    values = np.zeros((n_frames, 4, 1))
    values[:, 2, 0] = np.minimum(0.1 * np.arange(n_frames), 0.8)
    truth = SubstanceDistribution(values=values, geometry=geometry)
    signals = acquire(truth, base, schedule, noise, rng_seed=17)
    return geometry, base, schedule, signals, truth


class TestSplitReadouts:
    def test_parity_partition_with_gaps(self, rng):
        geometry, base, schedule, signals, _ = make_instance(
            rng, n_frames=10, gaps={0, 2, 5}
        )
        fold1, fold2 = split_readouts(schedule, signals)
        acquired = schedule.acquired_index_set  # (1, 3, 4, 6, 7, 8, 9)
        assert fold1.schedule.acquired_index_set == acquired[0::2]
        assert fold2.schedule.acquired_index_set == acquired[1::2]

    def test_union_and_disjointness(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng)
        fold1, fold2 = split_readouts(schedule, signals)
        a = set(fold1.schedule.acquired_index_set)
        b = set(fold2.schedule.acquired_index_set)
        assert a | b == set(schedule.acquired_index_set)
        assert a & b == set()

    def test_two_readouts(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng, n_frames=2)
        fold1, fold2 = split_readouts(schedule, signals)
        assert fold1.schedule.n_acquired == 1
        assert fold2.schedule.n_acquired == 1

    def test_frame_axis_is_preserved(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng)
        fold1, _ = split_readouts(schedule, signals)
        assert fold1.schedule.n_frames == schedule.n_frames

    def test_single_readout_rejected(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng, n_frames=1)
        with pytest.raises(ShapeError):
            split_readouts(schedule, signals)


class TestCvRmse:
    def test_overshrunk_estimate_scores_signal_rms(self, rng):
        # a huge l1 weight forces x = 0, so the error is the withheld signal itself
        geometry, base, schedule, signals, _ = make_instance(rng)
        fold1, fold2 = split_readouts(schedule, signals)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=2000)
        out = _directional_rmse((1e9, 1e9, 0.0), fold1, fold2, base, geometry, config)
        withheld = np.concatenate(
            [fold2.signals.per_frame[m] for m in fold2.schedule.acquired_index_set]
        )
        expected = np.sqrt(
            float(np.vdot(withheld, withheld).real) / (2 * withheld.size)
        )
        assert out == pytest.approx(expected, rel=1e-6)

    def test_interpolation_limit_on_train_fold(self, rng):
        # noiseless, fully sampled frames, vanishing weights: predicting the
        # training fold itself is exact
        geometry = AcquisitionGeometry(
            spatial_dims=(2, 2), spectral_evolution_points=2, readout_points=4
        )
        spectra = rng.standard_normal((1, 2, 4)) + 1j * rng.standard_normal((1, 2, 4))
        base = BaseSpectraSet.from_spectra(spectra)
        schedule = full_sampling_schedule(geometry, 6)
        values = np.zeros((6, 4, 1))
        values[:, 1, 0] = np.linspace(0.3, 0.9, 6)
        truth = SubstanceDistribution(values=values, geometry=geometry)
        signals = acquire(truth, base, schedule, 0.0, rng_seed=0)
        fold1, _ = split_readouts(schedule, signals)
        config = SolverConfig(rho1=0.5, rho2=1.0, mu=0.5, outer_iters=400)
        out = _directional_rmse((1e-10, 1e-10, 1e-10), fold1, fold1, base, geometry, config)
        assert out < 1e-5

    def test_symmetrized_average(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng)
        fold1, fold2 = split_readouts(schedule, signals)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=100)
        lambdas = (0.01, 0.01, 0.01)
        combined = cv_rmse(lambdas, fold1, fold2, base, geometry, config)
        ab = _directional_rmse(lambdas, fold1, fold2, base, geometry, config)
        ba = _directional_rmse(lambdas, fold2, fold1, base, geometry, config)
        assert combined == pytest.approx(0.5 * (ab + ba))


class TestCvPlan:
    @pytest.mark.parametrize("axis", ["grid_x", "grid_w1", "grid_w2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_rejects_non_finite_or_non_positive(self, axis, value):
        with pytest.raises(ParameterError):
            CvPlan(**{axis: (1.0, value)})


class TestLockstepSweep:
    def test_stack_scores_match_single_triples(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng, n_frames=10, gaps={3, 4})
        fold1, fold2 = split_readouts(schedule, signals)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=40)
        combos = CvPlan(grid_x=(1e-3, 1.0), grid_w1=(1e-2, 10.0), grid_w2=(0.1, 5.0)).combinations()
        stacked = cv_rmse(np.array(combos), fold1, fold2, base, geometry, config)
        assert stacked.shape == (len(combos),)
        single = [cv_rmse(lambdas, fold1, fold2, base, geometry, config) for lambdas in combos]
        assert all(type(v) is float for v in single)
        np.testing.assert_allclose(stacked, single, rtol=1e-12)

    def test_scores_do_not_depend_on_chunk_budget(self, rng, monkeypatch):
        geometry, base, schedule, signals, _ = make_instance(rng, n_frames=10, gaps={3, 4})
        plan = CvPlan(
            grid_x=(1e-3, 1.0),
            grid_w1=(1e-2, 10.0),
            grid_w2=(0.1, 5.0),
            base_config=SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=40),
        )
        tables = []
        for budget in (1, 1 << 40):  # one row per block, then the whole grid in one block
            monkeypatch.setattr("mrsi_cs.selection.STACK_BYTES", budget)
            tables.append(grid_search(plan, schedule, signals, base, geometry)[1])
        assert tables[0] == tables[1]

    def test_blocks_build_each_factor_once_per_fold(self, rng, monkeypatch):
        geometry, base, schedule, signals, _ = make_instance(rng, n_frames=10, gaps={3, 4})
        built = []

        def counting_normal_matrix(points, *args, **kwargs):
            built.append(points)
            return normal_matrix(points, *args, **kwargs)

        monkeypatch.setattr("mrsi_cs.model.normal_matrix", counting_normal_matrix)
        monkeypatch.setattr("mrsi_cs.selection.STACK_BYTES", 1)  # one row per block
        plan = CvPlan(
            grid_x=(1e-3, 1.0),
            grid_w1=(1e-2,),
            grid_w2=(0.1, 5.0),
            base_config=SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=5),
        )
        grid_search(plan, schedule, signals, base, geometry)
        per_fold = [
            len({fold.schedule.frames[m] for m in fold.schedule.acquired_index_set})
            for fold in split_readouts(schedule, signals)
        ]
        assert len(built) == sum(per_fold)


class TestGridSearch:
    def test_paper_grid_size(self):
        plan = CvPlan()
        assert len(plan.combinations()) == 12**3
        assert plan.grid_x == PAPER_GRID

    def test_singleton_grid(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng)
        plan = CvPlan(
            grid_x=(0.01,),
            grid_w1=(0.02,),
            grid_w2=(0.03,),
            base_config=SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=50),
        )
        best, table = grid_search(plan, schedule, signals, base, geometry)
        assert best == (0.01, 0.02, 0.03)
        assert len(table) == 1

    def test_tie_breaking_is_lexicographic(self, rng, monkeypatch):
        geometry, base, schedule, signals, _ = make_instance(rng)
        monkeypatch.setattr(
            "mrsi_cs.selection.cv_rmse", lambda lambdas, *a, **k: np.ones(len(lambdas))
        )
        plan = CvPlan(
            grid_x=(2.0, 1.0),
            grid_w1=(3.0, 4.0),
            grid_w2=(5.0,),
            base_config=SolverConfig(outer_iters=1),
        )
        best, table = grid_search(plan, schedule, signals, base, geometry)
        assert best == (1.0, 3.0, 5.0)
        assert len(table) == 4

    def test_table_rows_are_finite(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng)
        plan = CvPlan(
            grid_x=(1e-3, 1e3),
            grid_w1=(1e-3,),
            grid_w2=(1e-3,),
            base_config=SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=50),
        )
        _, table = grid_search(plan, schedule, signals, base, geometry)
        for row in table:
            assert np.isfinite(row.rmse) and row.rmse >= 0

    def test_parallel_matches_serial(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng, n_frames=8)
        plan = CvPlan(
            grid_x=(1e-2, 1e0),
            grid_w1=(1e-2,),
            grid_w2=(1e-2, 1e0),
            base_config=SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=30),
        )
        best_serial, table_serial = grid_search(plan, schedule, signals, base, geometry, threads=1)
        best_par, table_par = grid_search(plan, schedule, signals, base, geometry, threads=2)
        assert best_serial == best_par
        assert table_serial == table_par

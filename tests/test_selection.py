import tracemalloc
from dataclasses import replace

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
from mrsi_cs.selection import _ROW_STATE_ARRAYS, PAPER_GRID, STACK_BYTES, _directional_rmse
from mrsi_cs import selection as selection_module, solver as solver_module
from mrsi_cs.solver import SolverConfig, solve
from conftest import random_schedule
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
        schedule = replace(schedule, frame_interval_s=2.5)  # not the default
        for fold in split_readouts(schedule, signals):
            assert fold.schedule.n_frames == schedule.n_frames
            assert fold.schedule.frame_interval_s == 2.5

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
        out = _directional_rmse(np.array([[1e9, 1e9, 0.0]]), fold1, fold2, base, geometry, config)[0]
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
        out = _directional_rmse(np.array([[1e-10, 1e-10, 1e-10]]), fold1, fold1, base, geometry, config)[0]
        assert out < 1e-5

    def test_symmetrized_average(self, rng):
        geometry, base, schedule, signals, _ = make_instance(rng)
        fold1, fold2 = split_readouts(schedule, signals)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=100)
        lambdas = np.array([[0.01, 0.01, 0.01]])
        combined = cv_rmse(lambdas, fold1, fold2, base, geometry, config)[0]
        ab = _directional_rmse(lambdas, fold1, fold2, base, geometry, config)[0]
        ba = _directional_rmse(lambdas, fold2, fold1, base, geometry, config)[0]
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
        single = [cv_rmse(np.array([lambdas]), fold1, fold2, base, geometry, config) for lambdas in combos]
        assert all(v.shape == (1,) for v in single)
        np.testing.assert_allclose(stacked, [v[0] for v in single], rtol=1e-12)

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

    def test_each_fold_is_prepared_once_for_all_its_blocks(self, rng, monkeypatch, built_point_sets):
        geometry, base, schedule, signals, _ = make_instance(rng, n_frames=10, gaps={3, 4})
        monkeypatch.setattr("mrsi_cs.selection.STACK_BYTES", 1)  # one row per block
        calls = {"apply_adjoint": 0, "band_cholesky": 0, "solve": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(solver_module, "apply_adjoint")
        counted(solver_module, "band_cholesky")
        counted(selection_module, "solve")
        plan = CvPlan(
            grid_x=(1e-3, 1.0),
            grid_w1=(1e-2,),
            grid_w2=(0.1, 5.0),
            base_config=SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=5),
        )
        grid_search(plan, schedule, signals, base, geometry)
        folds = split_readouts(schedule, signals)
        assert calls["apply_adjoint"] == sum(fold.schedule.n_acquired for fold in folds)
        assert calls["band_cholesky"] == len(folds)
        assert calls["solve"] == len(folds) * len(plan.combinations())  # one block per triple
        per_fold = [
            len({fold.schedule.frames[m] for m in fold.schedule.acquired_index_set}) for fold in folds
        ]
        assert len(built_point_sets) == sum(per_fold)

    def test_budget_holds_32_cv_coarse_rows_and_one_exp3_row(self):
        per_unknown = _ROW_STATE_ARRAYS * 8  # bytes per frame and unknown of one row
        assert STACK_BYTES // (per_unknown * 32 * 16) == 32  # cv-coarse: 32 frames, N*J = 16
        assert STACK_BYTES < per_unknown * 256 * 384  # exp3: one row exceeds it, so blocks hold one

    @pytest.mark.parametrize("acquire_prob", [0.75, 1.0], ids=["gapped", "gap-free"])
    def test_block_solve_stays_within_budget(self, acquire_prob, rng):
        # each row a solve runs adds at most _ROW_STATE_ARRAYS (M, N*J) arrays to its traced
        # peak, so a block of STACK_BYTES // row_bytes rows stays within STACK_BYTES plus the
        # set-up a one-row solve holds besides its row (adjoints, factors, numpy's ufunc buffer;
        # these arrays exceed that buffer's getbufsize() elements, so it is full size at 1 row).
        # The x-update takes one path with data-free frames and another without.
        geometry = AcquisitionGeometry(spatial_dims=(8, 8), spectral_evolution_points=4, readout_points=8)
        spectra = rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))
        base = BaseSpectraSet.from_spectra(spectra)
        schedule = random_schedule(rng, geometry, 64, acquire_prob=acquire_prob)
        assert (schedule.n_acquired < 64) == (acquire_prob < 1.0)
        truth = SubstanceDistribution(values=np.full((64, 64, 2), 0.1), geometry=geometry)
        signals = acquire(truth, base, schedule, 0.05, rng_seed=3)
        config = SolverConfig(rho1=0.1, rho2=0.5, mu=0.1, outer_iters=3)
        elements = schedule.n_frames * geometry.n_voxels * base.n_substances
        assert elements >= np.getbufsize()
        row_bytes = _ROW_STATE_ARRAYS * 8 * elements

        def traced_peak(n_rows):
            weights = np.tile([1e-3, 1e-2, 1e-1], (n_rows, 1))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                solve(signals, schedule, base, geometry, config, weights=weights)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        set_up = traced_peak(1) - row_bytes
        assert set_up > 0
        assert traced_peak(3) <= set_up + 3 * row_bytes

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

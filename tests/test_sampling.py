import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, qmc

from mrsi_cs import (
    AcquisitionGeometry,
    ConfigError,
    ParameterError,
    SamplerConfig,
    build_schedule,
    default_psi,
    sobol_sequence,
    spectral_index_transform,
)
from mrsi_cs.configio import schedule_from_json
from mrsi_cs.sampling import (
    SOBOL_MAX_DIM,
    SOBOL_MAX_POINTS,
    _JOE_KUO,
)


class TestSobolSequence:
    def test_deterministic(self):
        a = sobol_sequence(128, 3, skip=5)
        b = sobol_sequence(128, 3, skip=5)
        np.testing.assert_array_equal(a, b)

    def test_range_and_shape(self):
        pts = sobol_sequence(100, 4)
        assert pts.shape == (100, 4)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    def test_dyadic_equidistribution(self):
        pts = sobol_sequence(4096, 1).ravel()
        counts = np.bincount((pts * 16).astype(int), minlength=16)
        assert set(counts.tolist()) == {256}

    def test_lower_discrepancy_than_pseudorandom(self):
        sobol = sobol_sequence(1024, 3)
        pseudo = np.random.default_rng(99).random((1024, 3))
        assert qmc.discrepancy(sobol) < qmc.discrepancy(pseudo)

    def test_skip_advances(self):
        whole = sobol_sequence(16, 2)
        tail = sobol_sequence(8, 2, skip=8)
        np.testing.assert_array_equal(whole[8:], tail)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ParameterError):
            sobol_sequence(4, 0)
        with pytest.raises(ParameterError):
            sobol_sequence(4, 10**6)

    @pytest.mark.parametrize("d", range(1, SOBOL_MAX_DIM + 1))
    def test_matches_scipy_bit_for_bit(self, d):
        for skip in (0, 1, 5, 100, 2**20):
            for n in (1, 7, 1000, 4096):
                engine = qmc.Sobol(d, scramble=False)
                if skip:
                    engine.fast_forward(skip)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # scipy's power-of-2 balance hint
                    expected = engine.random(n)
                got = sobol_sequence(n, d, skip)
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected, err_msg=f"skip={skip} n={n}")

    def test_embedded_table_matches_scipy(self):
        table = np.load(Path(qmc.__file__).parent / "_sobol_direction_numbers.npz")
        assert table["poly"][0] == 1  # dimension 1: van der Corput
        for dim, (poly, m_init) in enumerate(_JOE_KUO, start=1):
            assert poly == table["poly"][dim]
            degree = poly.bit_length() - 1
            assert len(m_init) == degree
            assert tuple(table["vinit"][dim, :degree]) == m_init
            assert not table["vinit"][dim, degree:].any()

    def test_point_limit(self):
        engine = qmc.Sobol(3, scramble=False)
        engine.fast_forward(SOBOL_MAX_POINTS - 5)
        np.testing.assert_array_equal(sobol_sequence(5, 3, skip=SOBOL_MAX_POINTS - 5), engine.random(5))
        with pytest.raises(ParameterError):
            sobol_sequence(6, 3, skip=SOBOL_MAX_POINTS - 5)
        with pytest.raises(ParameterError):
            sobol_sequence(4, 3, skip=-1)
        with pytest.raises(ParameterError):
            sobol_sequence(4, SOBOL_MAX_DIM + 1)


class TestSpectralIndexTransform:
    def test_eta_zero_gives_first_index(self):
        assert spectral_index_transform(0.0, 32, math.exp(-1 / 8)) == 1

    def test_worked_value(self):
        assert spectral_index_transform(0.5, 32, math.exp(-1 / 8)) == 6

    def test_stays_in_range(self):
        etas = np.random.default_rng(0).random(10**6)
        psi = default_psi(32)
        lo, hi = 32, 1
        for eta in etas[:200000]:
            d = spectral_index_transform(float(eta), 32, psi)
            lo, hi = min(lo, d), max(hi, d)
        for eta in (0.0, 1e-17, 1 - 1e-16, float(np.nextafter(1.0, 0.0))):
            d = spectral_index_transform(eta, 32, psi)
            lo, hi = min(lo, d), max(hi, d)
        assert 1 <= lo and hi <= 32

    def test_geometric_marginal(self):
        psi = math.exp(-1 / 8)
        etas = np.random.default_rng(7).random(10**5)
        draws = np.fromiter(
            (spectral_index_transform(float(e), 32, psi) for e in etas),
            dtype=int,
            count=len(etas),
        )
        counts = np.bincount(draws, minlength=33)[1:]
        used = np.flatnonzero(counts >= 50) + 1
        slope = np.polyfit(used, np.log(counts[used - 1]), 1)[0]
        assert abs(slope - math.log(psi)) <= 0.05 * abs(math.log(psi))

    def test_rejects_bad_eta(self):
        with pytest.raises(ParameterError):
            spectral_index_transform(1.0, 32, 0.5)
        with pytest.raises(ParameterError):
            spectral_index_transform(-0.1, 32, 0.5)

    def test_rejects_bad_psi(self):
        with pytest.raises(ParameterError):
            spectral_index_transform(0.5, 32, 1.0)
        with pytest.raises(ParameterError):
            spectral_index_transform(0.5, 32, 0.0)


class TestBuildSchedule:
    def make_geometry(self, n_c=16, dims=(8, 8)):
        return AcquisitionGeometry(
            spatial_dims=dims, spectral_evolution_points=n_c, readout_points=4
        )

    def test_no_gaps(self):
        geometry = self.make_geometry()
        schedule = build_schedule(SamplerConfig(n_points=4, dims=(16, 8, 8)), geometry)
        assert schedule.n_frames == 4
        assert schedule.n_acquired == 4

    def test_session_gaps(self):
        # six acquisition runs of 171 points separated by five 92-frame gaps
        geometry = self.make_geometry()
        gaps = tuple((171 * (i + 1) + 92 * i, 92) for i in range(5))
        config = SamplerConfig(n_points=1024, dims=(16, 8, 8), gap_spec=gaps)
        schedule = build_schedule(config, geometry)
        assert schedule.n_frames == 1024 + 5 * 92
        assert schedule.n_acquired == 1024

    @pytest.mark.parametrize(
        "entry",
        [
            {"point": {"spectral": 1, "k": [1, 1]}},
            {"m": 0, "point": {"k": [1, 1]}},
            {"m": 0, "point": {"spectral": 1}},
            {"m": 0, "point": {"spectral": 1, "k": 1}},
            {"m": "zero", "gap": True},
            ["m", 0],
        ],
    )
    def test_malformed_entry_is_config_error(self, entry):
        doc = {"M": 2, "frame_interval_s": 4.0, "frames": [{"m": 1, "gap": True}, entry]}
        with pytest.raises(ConfigError):
            schedule_from_json(json.dumps(doc))

    def test_points_in_range(self):
        geometry = self.make_geometry()
        schedule = build_schedule(SamplerConfig(n_points=512, dims=(16, 8, 8)), geometry)
        schedule.validate_geometry(geometry)

    def test_spectral_marginal_follows_decay(self):
        geometry = self.make_geometry()
        config = SamplerConfig(n_points=2**15, dims=(16, 8, 8))
        schedule = build_schedule(config, geometry)
        draws = np.array(
            [f[0].spectral_index for f in schedule.frames if f is not None]
        )
        counts = np.bincount(draws, minlength=17)[1:]
        used = np.flatnonzero(counts >= 50) + 1
        slope = np.polyfit(used, np.log(counts[used - 1]), 1)[0]
        assert abs(slope - math.log(config.psi)) <= 0.05 * abs(math.log(config.psi))

    def test_spatial_marginal_uniform(self):
        geometry = self.make_geometry()
        config = SamplerConfig(n_points=10**5, dims=(16, 8, 8))
        schedule = build_schedule(config, geometry)
        for axis in range(2):
            draws = np.array(
                [f[0].k_index[axis] for f in schedule.frames if f is not None]
            )
            counts = np.bincount(draws, minlength=9)[1:]
            expected = len(draws) / 8
            statistic = float(((counts - expected) ** 2 / expected).sum())
            assert statistic < chi2.ppf(0.999, df=7)

    def test_gap_beyond_schedule_rejected(self):
        geometry = self.make_geometry()
        with pytest.raises(ConfigError):
            build_schedule(
                SamplerConfig(n_points=8, dims=(16, 8, 8), gap_spec=((9, 5),)), geometry
            )

    def test_overlapping_gaps_rejected(self):
        geometry = self.make_geometry()
        with pytest.raises(ConfigError):
            build_schedule(
                SamplerConfig(n_points=8, dims=(16, 8, 8), gap_spec=((0, 3), (2, 3))),
                geometry,
            )

    def test_dims_must_match_geometry(self):
        geometry = self.make_geometry()
        with pytest.raises(ConfigError):
            build_schedule(SamplerConfig(n_points=8, dims=(32, 8, 8)), geometry)

    def test_default_psi(self):
        config = SamplerConfig(n_points=8, dims=(32, 8, 8))
        assert config.psi == pytest.approx(math.exp(-4 / 32))


class TestSamplerConfig:
    def test_rejects_more_axes_than_the_table(self):
        SamplerConfig(n_points=8, dims=(4,) * SOBOL_MAX_DIM)
        with pytest.raises(ParameterError):
            SamplerConfig(n_points=8, dims=(4,) * (SOBOL_MAX_DIM + 1))

    def test_rejects_points_past_the_sequence_end(self):
        SamplerConfig(n_points=4, dims=(4, 4), skip=SOBOL_MAX_POINTS - 4)
        with pytest.raises(ParameterError):
            SamplerConfig(n_points=5, dims=(4, 4), skip=SOBOL_MAX_POINTS - 4)

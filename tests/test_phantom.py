import numpy as np
import pytest

from mrsi_cs import (
    AcquisitionGeometry,
    ConfigError,
    ConstantProfile,
    ParameterError,
    Peak,
    PhantomConfig,
    RampProfile,
    SamplePoint,
    SamplingSchedule,
    ShapeError,
    SubstanceSpec,
    acquire,
    make_base_spectra,
    make_phantom,
)


def single_substance_config(profile, geometry=None, n_frames=8, **kwargs):
    geometry = geometry or AcquisitionGeometry(
        spatial_dims=(2, 2), spectral_evolution_points=2, readout_points=4
    )
    spec = SubstanceSpec(
        label="s",
        region=((0, 0),),
        profile=profile,
        peaks=(Peak(center=(1.0, 2.0), width=1.0, amplitude=1.0),),
    )
    return PhantomConfig(geometry=geometry, substances=(spec,), n_frames=n_frames, **kwargs)


class TestMakePhantom:
    def test_constant_profile(self):
        config = single_substance_config(ConstantProfile(level=1.0))
        truth = make_phantom(config)
        np.testing.assert_array_equal(truth.values[:, 0, 0], 1.0)
        assert np.abs(truth.values[:, 1:, :]).max() == 0.0

    def test_ramp_values(self):
        config = single_substance_config(
            RampProfile(rate=0.01, cap=0.5, start_frame=0), n_frames=60
        )
        truth = make_phantom(config)
        assert truth.values[10, 0, 0] == pytest.approx(0.1)
        assert truth.values[50, 0, 0] == pytest.approx(0.5)
        assert truth.values[59, 0, 0] == pytest.approx(0.5)

    def test_ramp_start_frame(self):
        config = single_substance_config(
            RampProfile(rate=0.1, cap=1.0, start_frame=5), n_frames=10
        )
        truth = make_phantom(config)
        assert np.abs(truth.values[:6, 0, 0]).max() == 0.0
        assert truth.values[7, 0, 0] == pytest.approx(0.2)

    def test_instillation_rate_ratio(self):
        # equal volumes at rates 22.9 vs 5.9 fill up in times with ratio 17.5:68
        geometry = AcquisitionGeometry(
            spatial_dims=(2, 2), spectral_evolution_points=2, readout_points=4
        )
        n_frames = 180
        subs = tuple(
            SubstanceSpec(
                label=name,
                region=(region,),
                profile=RampProfile(rate=rate, cap=1.0),
                peaks=(Peak(center=(0.0, 1.0), width=1.0, amplitude=1.0),),
            )
            for name, region, rate in (
                ("fast", (0, 0), 22.9 / 1000.0),
                ("slow", (1, 1), 5.9 / 1000.0),
            )
        )
        config = PhantomConfig(geometry=geometry, substances=subs, n_frames=n_frames)
        truth = make_phantom(config)
        cap_frame = [
            int(np.argmax(truth.values[:, voxel, j] >= 1.0))
            for j, voxel in ((0, 0), (1, 3))
        ]
        ratio = cap_frame[0] / cap_frame[1]
        assert ratio == pytest.approx(17.5 / 68.0, rel=0.05)

    def test_monotone_until_cap(self):
        config = single_substance_config(RampProfile(rate=0.037, cap=0.9), n_frames=64)
        truth = make_phantom(config)
        profile = truth.values[:, 0, 0]
        assert np.all(np.diff(profile) >= 0)
        assert profile.max() == pytest.approx(0.9)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ParameterError):
            Peak(center=(value, 2.0), width=1.0, amplitude=1.0)
        with pytest.raises(ParameterError):
            Peak(center=(1.0, 2.0), width=1.0, amplitude=value)
        with pytest.raises(ParameterError):
            RampProfile(rate=value, cap=1.0)
        with pytest.raises(ParameterError):
            RampProfile(rate=0.1, cap=value)
        with pytest.raises(ParameterError):
            ConstantProfile(level=value)
        with pytest.raises(ParameterError):
            single_substance_config(ConstantProfile(level=1.0), noise_sigma=value)

    def test_region_outside_grid_rejected(self):
        geometry = AcquisitionGeometry(
            spatial_dims=(2, 2), spectral_evolution_points=2, readout_points=4
        )
        spec = SubstanceSpec(
            label="s",
            region=((2, 0),),
            profile=ConstantProfile(level=1.0),
            peaks=(Peak(center=(0.0, 0.0), width=1.0, amplitude=1.0),),
        )
        with pytest.raises(ConfigError):
            PhantomConfig(geometry=geometry, substances=(spec,), n_frames=4)


class TestMakeBaseSpectra:
    def test_peak_maximum_at_center(self):
        geometry = AcquisitionGeometry(
            spatial_dims=(2, 2), spectral_evolution_points=8, readout_points=8
        )
        config = PhantomConfig(
            geometry=geometry,
            substances=(
                SubstanceSpec(
                    label="s",
                    region=((0, 0),),
                    profile=ConstantProfile(level=1.0),
                    peaks=(Peak(center=(4.0, 4.0), width=1.0, amplitude=2.0),),
                ),
            ),
            n_frames=2,
        )
        base = make_base_spectra(config)
        spectrum = base.spectra[0].real
        assert spectrum[4, 4] == pytest.approx(2.0)
        assert np.unravel_index(np.argmax(spectrum), spectrum.shape) == (4, 4)

    def test_disjoint_peaks_nearly_orthogonal(self):
        geometry = AcquisitionGeometry(
            spatial_dims=(2, 2), spectral_evolution_points=16, readout_points=16
        )
        subs = tuple(
            SubstanceSpec(
                label=name,
                region=((0, 0),),
                profile=ConstantProfile(level=1.0),
                peaks=(Peak(center=center, width=0.8, amplitude=1.0),),
            )
            for name, center in (("a", (3.0, 3.0)), ("b", (12.0, 12.0)))
        )
        config = PhantomConfig(geometry=geometry, substances=subs, n_frames=2)
        base = make_base_spectra(config)
        a, b = base.spectra[0].ravel(), base.spectra[1].ravel()
        corr = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert corr < 0.1

    def test_fid_round_trip(self):
        config = single_substance_config(ConstantProfile(level=1.0))
        base = make_base_spectra(config)
        fid = base.fid
        np.testing.assert_allclose(
            np.fft.ifft2(fid) * np.sqrt(fid.shape[-2] * fid.shape[-1]), base.spectra, atol=1e-12
        )


class TestAcquire:
    def setup_instance(self, noise_sigma=0.0, n_frames=8):
        config = single_substance_config(
            RampProfile(rate=0.1, cap=1.0), n_frames=n_frames, noise_sigma=noise_sigma
        )
        geometry = config.geometry
        truth = make_phantom(config)
        base = make_base_spectra(config)
        frames = tuple(
            (SamplePoint(1 + m % 2, (1 + m % 2, 1)),) for m in range(n_frames)
        )
        schedule = SamplingSchedule(frames=frames)
        return config, geometry, truth, base, schedule

    def test_noiseless_equals_forward(self):
        from mrsi_cs import apply_forward

        config, geometry, truth, base, schedule = self.setup_instance()
        signals = acquire(truth, base, schedule, 0.0, rng_seed=1)
        for m in schedule.acquired_index_set:
            expected = apply_forward(
                truth.frame_matrix()[m], schedule.frames[m], base, geometry
            )
            np.testing.assert_array_equal(signals.per_frame[m], expected)

    def test_noise_moments(self):
        # zero phantom: samples are pure noise with unit per-component variance
        geometry = AcquisitionGeometry(
            spatial_dims=(2, 2), spectral_evolution_points=2, readout_points=16
        )
        config = PhantomConfig(
            geometry=geometry,
            substances=(
                SubstanceSpec(
                    label="s",
                    region=((0, 0),),
                    profile=ConstantProfile(level=0.0),
                    peaks=(Peak(center=(0.0, 0.0), width=1.0, amplitude=1.0),),
                ),
            ),
            n_frames=640,
        )
        truth = make_phantom(config)
        base = make_base_spectra(config)
        schedule = SamplingSchedule(
            frames=tuple((SamplePoint(1, (1, 1)),) for _ in range(640))
        )
        signals = acquire(truth, base, schedule, 1.0, rng_seed=3)
        samples = signals.concatenated(schedule)
        assert samples.size == 10240
        assert samples.real.var() == pytest.approx(1.0, rel=0.05)
        assert samples.imag.var() == pytest.approx(1.0, rel=0.05)

    def test_seed_reproducibility(self):
        config, geometry, truth, base, schedule = self.setup_instance(noise_sigma=0.3)
        a = acquire(truth, base, schedule, 0.3, rng_seed=9)
        b = acquire(truth, base, schedule, 0.3, rng_seed=9)
        c = acquire(truth, base, schedule, 0.3, rng_seed=10)
        for m in schedule.acquired_index_set:
            np.testing.assert_array_equal(a.per_frame[m], b.per_frame[m])
        assert any(
            not np.array_equal(a.per_frame[m], c.per_frame[m])
            for m in schedule.acquired_index_set
        )

    def test_frame_count_mismatch(self):
        config, geometry, truth, base, schedule = self.setup_instance()
        short = SamplingSchedule(frames=schedule.frames[:-1])
        with pytest.raises(ShapeError):
            acquire(truth, base, short, 0.0, rng_seed=0)

    def test_negative_sigma_rejected(self):
        config, geometry, truth, base, schedule = self.setup_instance()
        with pytest.raises(ParameterError):
            acquire(truth, base, schedule, -0.1, rng_seed=0)

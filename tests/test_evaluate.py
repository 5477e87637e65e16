import numpy as np
import pytest

from mrsi_cs import ShapeError
from mrsi_cs.evaluate import (
    coefficient_of_variation,
    detect_plateau_onset,
    hottest_voxel,
    max_normalize,
    normalized_rmse,
    pearson,
    substance_metrics,
    write_pgm,
)


class TestNormalizedRmse:
    def test_perfect_reconstruction(self, rng):
        a = rng.random((5, 9))
        assert normalized_rmse(a, a) == 0.0

    def test_zero_reconstruction_scores_one(self, rng):
        truth = rng.random((5, 9))
        assert normalized_rmse(np.zeros_like(truth), truth) == pytest.approx(1.0)

    def test_scale_invariance(self, rng):
        truth = rng.random((5, 9))
        recon = truth + 0.05 * rng.standard_normal(truth.shape)
        assert normalized_rmse(3.7 * recon, truth) == pytest.approx(
            normalized_rmse(recon, truth)
        )

    def test_zero_truth_has_no_ratio(self, rng):
        # no norm to divide by: a zero reconstruction matches, any other has no finite score
        assert normalized_rmse(np.zeros((5, 9)), np.zeros((5, 9))) == 0.0
        assert normalized_rmse(rng.random((5, 9)), np.zeros((5, 9))) is None

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            normalized_rmse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestProfileHelpers:
    def test_hottest_voxel_of_ramp(self):
        values = np.zeros((10, 6))
        values[:, 4] = np.linspace(0, 1, 10)
        values[:, 1] = 0.3
        assert hottest_voxel(values) == 4

    def test_pearson_identical(self, rng):
        a = rng.random(30)
        assert pearson(a, a) == pytest.approx(1.0)

    def test_pearson_constant_is_undefined(self, rng):
        assert pearson(rng.random(30), np.full(30, 0.8)) is None

    def test_cov_of_constant_is_zero(self):
        assert coefficient_of_variation(np.full(20, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_cov_of_zero_mean_is_undefined(self):
        assert coefficient_of_variation(np.zeros(5)) is None

    def test_plateau_onset_of_capped_ramp(self):
        profile = np.minimum(0.02 * np.arange(200), 1.0)
        onset = detect_plateau_onset(profile)
        assert onset is not None
        assert abs(onset - 48) <= 1  # 0.95 of the plateau is reached at 47.5

    def test_plateau_none_for_nonpositive(self):
        assert detect_plateau_onset(np.zeros(50)) is None

    def test_substance_metrics_on_truth(self):
        values = np.zeros((40, 4))
        values[:, 2] = np.minimum(0.1 * np.arange(40), 1.0)
        metrics = substance_metrics(values, values)
        assert metrics["normalized_rmse"] == 0.0
        assert metrics["hottest_voxel"] == 2
        assert metrics["pearson_r"] == pytest.approx(1.0)


class TestMaxNormalize:
    def test_peak_becomes_one(self, rng):
        a = rng.random((3, 3)) + 0.5
        out = max_normalize(a)
        assert out.max() == pytest.approx(1.0)

    def test_nonpositive_input_maps_to_zero(self):
        np.testing.assert_array_equal(max_normalize(-np.ones((2, 2))), 0.0)


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 128, 255, 255])  # values clipped to [0, 1]

    def test_upsample(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[1.0]]), upsample=3)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 3\n255\n")
        assert raw[-9:] == bytes([255] * 9)

    def test_row_vector_allowed(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.linspace(0, 1, 5))
        assert path.read_bytes().startswith(b"P5\n5 1\n255\n")

"""Reconstruction quality metrics and snapshot images.

Amount units are arbitrary, so every per-substance comparison first
rescales by the tensor's maximum ("max normalization").  The summary
metrics are a normalized RMSE against the truth, the temporal profile
at the hottest voxel (the spatial argmax of the temporal maximum of the
reconstruction), its Pearson correlation with the truth profile, its
coefficient of variation, and a plateau-onset estimate.  Spatial
snapshots are exported as binary 8-bit PGM images, optionally upscaled
by integer nearest-neighbor replication.  The module writes no text:
the CLI writes the metrics as JSON and the profiles as CSV.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = [
    "max_normalize",
    "normalized_rmse",
    "hottest_voxel",
    "pearson",
    "coefficient_of_variation",
    "detect_plateau_onset",
    "substance_metrics",
    "write_pgm",
]

# the plateau of a profile is the median of its last tenth; its onset is the first frame at 95% of that
PLATEAU_TAIL = 0.1
PLATEAU_THRESHOLD = 0.95


def max_normalize(a: np.ndarray) -> np.ndarray:
    """Rescale so the maximum equals 1; all-nonpositive input maps to zeros."""
    a = np.asarray(a, dtype=np.float64)
    peak = a.max(initial=0.0)
    if peak <= 0:
        return np.zeros_like(a)
    return a / peak


def normalized_rmse(recon: np.ndarray, truth: np.ndarray) -> float | None:
    """RMSE between max-normalized tensors, relative to the truth's norm.

    Equals 0 for a perfect reconstruction and 1 for an all-zero one.  A
    truth that is zero everywhere has no norm to compare against: the
    result is 0 when the reconstruction is zero too, and None otherwise.
    """
    recon = np.asarray(recon, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if recon.shape != truth.shape:
        raise ShapeError(f"shape mismatch: {recon.shape} vs {truth.shape}")
    r = max_normalize(recon)
    t = max_normalize(truth)
    t_norm = float(np.linalg.norm(t))
    if t_norm == 0.0:
        return 0.0 if float(np.linalg.norm(r)) == 0.0 else None
    return float(np.linalg.norm(r - t)) / t_norm


def hottest_voxel(values: np.ndarray) -> int:
    """Flat voxel index maximizing the temporal maximum of a (M, N) array."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise ShapeError(f"expected (frames, voxels); got shape {values.shape}")
    return int(np.argmax(values.max(axis=0)))


def pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    """Pearson correlation, or None when either input is (numerically) constant."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    da, db = a - a.mean(), b - b.mean()
    na, nb = np.linalg.norm(da), np.linalg.norm(db)
    # constant profiles carry only mean-subtraction rounding noise
    if na <= 1e-12 * (1.0 + np.linalg.norm(a)) or nb <= 1e-12 * (1.0 + np.linalg.norm(b)):
        return None
    return float(da @ db / (na * nb))


def coefficient_of_variation(profile: np.ndarray) -> float | None:
    """Standard deviation over mean, or None for a zero-mean profile."""
    profile = np.asarray(profile, dtype=np.float64)
    mean = profile.mean()
    if mean == 0.0:
        return None
    return float(profile.std() / abs(mean))


def detect_plateau_onset(profile: np.ndarray) -> int | None:
    """First frame at which the profile reaches ``PLATEAU_THRESHOLD`` of its plateau.

    The plateau level is the median of the trailing ``PLATEAU_TAIL``
    fraction of frames, at least three; None when that level is not
    positive.
    """
    profile = np.asarray(profile, dtype=np.float64)
    m = profile.shape[0]
    tail = max(3, int(round(m * PLATEAU_TAIL)))
    level = _median(profile[-tail:])
    if level <= 0:
        return None
    hits = np.flatnonzero(profile >= PLATEAU_THRESHOLD * level)
    return int(hits[0]) if hits.size else None


def _median(a: np.ndarray) -> float:
    """The median of a 1-D array, bit for bit as ``np.median`` gives it.

    The middle one or two entries of the sorted array are averaged with
    ``mean``, as ``np.median`` averages them; any NaN, or no entry, gives NaN.
    Sorting keeps ``np.median``'s first call, which imports ``numpy.ma``,
    off the evaluation path.
    """
    ordered = np.sort(a)  # NaN sorts last
    if not ordered.size or np.isnan(ordered[-1]):
        return float("nan")
    half = len(ordered) // 2
    return float(ordered[half - 1 + len(ordered) % 2 : half + 1].mean())


def substance_metrics(recon: np.ndarray, truth: np.ndarray) -> dict:
    """Per-substance summary for (M, N) reconstruction/truth pairs."""
    if recon.shape != truth.shape:
        raise ShapeError(f"shape mismatch: {recon.shape} vs {truth.shape}")
    voxel = hottest_voxel(recon)
    recon_profile = recon[:, voxel]
    truth_profile = truth[:, voxel]
    return {
        "normalized_rmse": normalized_rmse(recon, truth),
        "hottest_voxel": voxel,
        "pearson_r": pearson(recon_profile, truth_profile),
        "coefficient_of_variation": coefficient_of_variation(recon_profile),
        "plateau_onset_frame": detect_plateau_onset(max_normalize(recon_profile)),
    }


def write_pgm(path: str | Path, image: np.ndarray, upsample: int = 1) -> None:
    """Binary 8-bit PGM of values already scaled to [0, 1]; clips outside.

    The last axis runs across the image.  A 1-D image is one row, and
    the slices of an image with more axes are stacked vertically, the
    leading axes varying slowest.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim < 1:
        raise ShapeError("snapshots need at least one axis; got a scalar")
    image = image.reshape(-1, image.shape[-1])
    if upsample < 1:
        raise ParameterError("upsample factor must be >= 1")
    if upsample > 1:
        image = np.repeat(np.repeat(image, upsample, axis=0), upsample, axis=1)
    quantized = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())

import json

import numpy as np
import pytest

from mrsi_cs import (
    AcquisitionGeometry,
    BaseSpectraSet,
    SamplePoint,
    SamplingSchedule,
)
from mrsi_cs import model


@pytest.fixture
def built_point_sets(monkeypatch):
    """The point sets :func:`mrsi_cs.model.normal_matrix` builds during the test, in call order."""
    built = []
    normal_matrix = model.normal_matrix

    def counting_normal_matrix(points, *args):
        built.append(points)
        return normal_matrix(points, *args)

    monkeypatch.setattr(model, "normal_matrix", counting_normal_matrix)
    return built


@pytest.fixture
def requested_point_sets(monkeypatch):
    """The point sets :meth:`mrsi_cs.model.FactorizationCache.get` is asked for during the test, in call order."""
    requested = []
    get = model.FactorizationCache.get

    def counting_get(cache, points):
        requested.append(tuple(points))
        return get(cache, points)

    monkeypatch.setattr(model.FactorizationCache, "get", counting_get)
    return requested


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text: str):
    """Parse ``text`` as RFC 8259 JSON, which has no ``NaN``, ``Infinity`` or ``-Infinity``."""
    return json.loads(text, parse_constant=_refuse_constant)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_geometry():
    return AcquisitionGeometry(
        spatial_dims=(4, 4), spectral_evolution_points=4, readout_points=8
    )


@pytest.fixture
def small_base(rng, small_geometry):
    j = 2
    spectra = rng.standard_normal((j, 4, 8)) + 1j * rng.standard_normal((j, 4, 8))
    return BaseSpectraSet.from_spectra(spectra)


def random_points(rng, geometry, count):
    return [
        SamplePoint(
            int(rng.integers(1, geometry.spectral_evolution_points + 1)),
            tuple(int(rng.integers(1, d + 1)) for d in geometry.spatial_dims),
        )
        for _ in range(count)
    ]


def random_schedule(rng, geometry, n_frames, acquire_prob=0.6):
    frames = []
    for _ in range(n_frames):
        if rng.random() < acquire_prob:
            frames.append(tuple(random_points(rng, geometry, 1)))
        else:
            frames.append(None)
    if all(f is None for f in frames):
        frames[0] = tuple(random_points(rng, geometry, 1))
    return SamplingSchedule(frames=tuple(frames))

"""Compressed-sensing reconstruction of substance dynamics from
undersampled multi-spectral spectroscopic imaging signals."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DivergenceError,
    MrsiCsError,
    ParameterError,
    ScheduleError,
    ShapeError,
)
from .model import (
    AcquisitionGeometry,
    BaseSpectraSet,
    SamplePoint,
    SamplingSchedule,
    SignalSet,
    SubstanceDistribution,
    apply_adjoint,
    apply_forward,
)
from .phantom import (
    ConstantProfile,
    Peak,
    PhantomConfig,
    RampProfile,
    SubstanceSpec,
    acquire,
    make_base_spectra,
    make_phantom,
)
from .sampling import (
    SamplerConfig,
    build_schedule,
    default_psi,
    sobol_sequence,
    spectral_index_transform,
)
from .selection import CvPlan, cv_rmse, grid_search, split_readouts
from .solver import (
    SolverConfig,
    band_cholesky,
    objective_value,
    project_constraint,
    soft_threshold,
    solve,
    update_h,
)


def __getattr__(name):
    # the oracle pulls in scipy, which the CLI stages never need: load it on first use
    if name in ("OracleConfig", "kkt_residual", "oracle_solve"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

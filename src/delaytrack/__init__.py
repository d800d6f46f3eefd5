"""Continuation-based eigenvalue tracking for linear delay models.

The package follows individual eigenpairs of the characteristic matrix
function P(s) = s E - A0 - sum_j A_j exp(-s tau_j), held in split form
sum_k c_k(s, p) M_k, as a scalar parameter sweeps: matrices may drift with
the parameter, a delay magnitude may be the parameter itself, and the
delayed term may be shaped by stochastic communication transfer functions
(packet dropouts, Gamma noise).
"""

from .charfun import (
    SplitForm,
    WamsSpec,
    coefficients,
    eval_hp,
    eval_hs,
    eval_P,
    slot_matrices,
    split_form,
)
from .errors import (
    ConfigurationError,
    DefectiveEigenvalueError,
    DelayTrackError,
    ManifestError,
    NonConvergenceError,
    RangeError,
    ReinitializationError,
    SingularityError,
    SingularSystemError,
)
from .model import (
    AffineFamily,
    DelayParameterFamily,
    DelayedLinearModel,
    ModelDerivatives,
    TabulatedFamily,
    validate_model,
)
from .oracle import (
    ComparisonReport,
    compare_trajectory,
    hayes_roots,
    rand_ddae,
    spectrum_at,
)
from .spectral import (
    DiscretizedPencil,
    Eigenpair,
    discretize,
    lift_eigenvector,
    refine_newton,
    solve_discretized,
)
from .track import (
    ContinuationSystem,
    TrackEvent,
    TrackOptions,
    TrackState,
    Trajectory,
    assemble,
    detect_fold,
    find_crossing,
    integrate_step,
    reinitialize_at,
    track_run,
)

__version__ = "0.1.0"

__all__ = [
    "AffineFamily",
    "ComparisonReport",
    "ConfigurationError",
    "ContinuationSystem",
    "DefectiveEigenvalueError",
    "DelayParameterFamily",
    "DelayTrackError",
    "DelayedLinearModel",
    "DiscretizedPencil",
    "Eigenpair",
    "ManifestError",
    "ModelDerivatives",
    "NonConvergenceError",
    "RangeError",
    "ReinitializationError",
    "SingularityError",
    "SingularSystemError",
    "SplitForm",
    "TabulatedFamily",
    "TrackEvent",
    "TrackOptions",
    "TrackState",
    "Trajectory",
    "WamsSpec",
    "assemble",
    "coefficients",
    "compare_trajectory",
    "detect_fold",
    "discretize",
    "eval_P",
    "eval_hp",
    "eval_hs",
    "find_crossing",
    "hayes_roots",
    "integrate_step",
    "lift_eigenvector",
    "rand_ddae",
    "refine_newton",
    "reinitialize_at",
    "slot_matrices",
    "solve_discretized",
    "spectrum_at",
    "split_form",
    "track_run",
    "validate_model",
]

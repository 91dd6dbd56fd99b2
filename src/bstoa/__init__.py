"""Topology-aware TOA estimation and localization for MIMO backscatter
channels: constraint matrices, constrained estimators, closed-form MSE and
Cramer-Rao bounds, tag localization, and a reproducible Monte-Carlo harness.
"""

from .analysis import (
    CrlbReport,
    MseReport,
    crlb_bistatic,
    crlb_monostatic,
    theoretical_mse_iid,
    theoretical_mse_independent,
)
from .channel import (
    SPEED_OF_LIGHT,
    Scene,
    noise_rng,
    random_scene,
    stream_rng,
    synth_observations,
    true_delays,
    true_delays_batch,
)
from .errors import (
    BstoaError,
    ConfigInvalid,
    ConstraintViolated,
    DimensionMismatch,
    InvalidValue,
    NonFiniteInput,
    SingularGeometry,
    UnderDetermined,
    WrongTopology,
)
from .estimator import (
    decompose_delays,
    ls_estimate,
    refine_bistatic,
    refine_estimate,
    refine_monostatic,
)
from .harness import (
    STREAM_CONTRACT,
    ExperimentKind,
    SweepConfig,
    SweepResult,
    SweepRow,
    load_config,
    parse_config,
    run_sweep,
)
from .localization import localize_bistatic, localize_monostatic
from .topology import (
    Kind,
    Topology,
    correlation_matrix,
    entry_weights,
    unvec,
    vec,
    weighting_matrix,
)

__version__ = "0.1.0"

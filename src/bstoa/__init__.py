"""Topology-aware TOA estimation and localization for MIMO backscatter
channels: constraint matrices, constrained estimators, closed-form MSE and
Cramer-Rao bounds, tag localization, and a reproducible Monte-Carlo harness.
"""

from .analysis import crlb, theoretical_mse_iid, theoretical_mse_independent
from .channel import (
    SPEED_OF_LIGHT,
    Scene,
    noise_rng,
    random_scene,
    synth_observations,
    true_delays,
)
from .errors import (
    BstoaError,
    ConfigInvalid,
    DimensionMismatch,
    InvalidValue,
    NonFiniteInput,
    SingularGeometry,
    UnderDetermined,
)
from .estimator import ls_estimate, refine_estimate
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
from .localization import localize
from .topology import (
    Kind,
    Topology,
    correlation_matrix,
    entry_weights,
    weighting_matrix,
)

__version__ = "0.1.0"

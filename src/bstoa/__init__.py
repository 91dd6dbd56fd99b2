"""Topology-aware TOA estimation and localization for MIMO backscatter
channels: constraint matrices, constrained estimators, closed-form MSE and
Cramer-Rao bounds, tag localization, and a reproducible Monte-Carlo harness.
"""

from .analysis import (
    CrlbReport,
    MseReport,
    crlb_bistatic,
    crlb_monostatic,
    empirical_mse,
    theoretical_mse_iid,
    theoretical_mse_independent,
)
from .channel import (
    SPEED_OF_LIGHT,
    ObservationBlock,
    Scene,
    random_scene,
    stream_rng,
    synth_observations,
    true_delays,
)
from .errors import (
    BstoaError,
    ConfigInvalid,
    ConstraintViolated,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    SingularGeometry,
    SingularSystem,
    UnderDetermined,
    WrongTopology,
)
from .estimator import (
    EstimateReport,
    decompose_delays,
    full_estimate,
    ls_estimate,
    refine_bistatic,
    refine_estimate,
    refine_monostatic,
)
from .harness import (
    ExperimentKind,
    SweepConfig,
    SweepResult,
    SweepRow,
    load_config,
    parse_config,
    run_crlb_check,
    run_localization_sweep,
    run_mse_sweep,
    run_sweep,
)
from .localization import (
    PositionFix,
    localize_bistatic,
    localize_bistatic_batch,
    localize_monostatic,
    localize_monostatic_batch,
)
from .topology import (
    EntryType,
    Kind,
    Topology,
    classify_entry,
    correlation_matrix,
    entry_weights,
    unvec,
    vec,
    weighting_matrix,
)

__version__ = "0.1.0"

"""Maximum-principle-preserving semi-implicit solver for penalized
Allen-Cahn dynamics with long-range interactions on periodic grids."""

from .errors import (
    BlowupError,
    ConfigError,
    EnergyIncreaseError,
    FieldValueError,
    GridMismatchError,
    InvariantViolationError,
    MppViolationError,
    PacokError,
)
from .grid import (
    GridField,
    PeriodicGrid,
    inner_product_h,
    load_snapshot,
    norm_l2_h,
    save_snapshot,
)
from .spectral import (
    LongRangeOp,
    OpKind,
    estimate_linf_norm,
)
from .physics import (
    FKind,
    LipschitzConstants,
    ModelParams,
    NonlinearSpec,
    Problem,
    W_eval,
    W_prime,
    f_eval,
    f_pprime,
    f_prime,
    lipschitz_constants,
    pvism_potential,
)
from .energy import EnergyBreakdown, discrete_energy
from .stepping import (
    ConditionReport,
    SchemeState,
    StepRecord,
    check_conditions,
    run,
    step,
)
from .experiments import (
    RATE_STUDY,
    CoarseningResult,
    RateStudyResult,
    SolvationComparison,
    coarsening_preset,
    coarsening_run,
    convergence_setups,
    count_bumps,
    initial_random_piecewise,
    initial_tanh_disk,
    pvism_compare,
    rate_study,
    rate_study_steps,
    run_config,
    run_with_snapshots,
)
from .config import (
    RunConfig,
    format_config,
    load_config,
    parse_config,
    read_series,
    write_series,
)

__version__ = "0.1.0"

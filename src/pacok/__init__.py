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
from .spectral import LongRangeOp, OpKind
from .physics import (
    FKind,
    ModelParams,
    Problem,
    pvism_potential,
)
from .energy import EnergyBreakdown
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
    SOLVATION,
    CoarseningResult,
    RateStudyResult,
    SolvationComparison,
    coarsening_preset,
    coarsening_run,
    convergence_setups,
    count_bumps,
    pvism_compare,
    rate_study,
    rate_study_steps,
    run_config,
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

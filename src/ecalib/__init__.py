"""ecalib: sequential hyperparameter certification with e-processes."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    AcquisitionPolicy,
    AcquisitionSpec,
    BettingSpec,
    BettingStrategy,
    CalibrationConfig,
    Direction,
    ErrorMetric,
    GroundTruth,
    MetricSpec,
    SelectionRuleName,
    reliable_set,
    validate_config,
)
from .eprocess import (  # noqa: F401
    BetBound,
    bet_bound,
    payoff,
    quantile_transform,
    update,
)
from .betting import BettingState, next_bet, observe  # noqa: F401
from .selection import SelectionResult, bh, bonferroni, by, ebh, fixed_sequence  # noqa: F401
from .acquisition import select_batch  # noqa: F401
from .orchestrator import (  # noqa: F401
    RiskSource,
    RoundRecord,
    RunResult,
    StopReason,
    run_altt,
    run_ltt,
)
from .simharness import (  # noqa: F401
    Bernoulli,
    Beta,
    CompositeSyntheticSpec,
    MetricsSummary,
    PointMass,
    SyntheticSpec,
    run_trials,
    sample_risk,
)

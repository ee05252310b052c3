"""ecalib: sequential hyperparameter certification with e-processes.

The public names below are package attributes that import their module on
first access (PEP 562), so importing one module, such as the oracle child
``ecalib.demo_oracle``, loads only what that module needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "AcquisitionPolicy",
        "AcquisitionSpec",
        "BettingSpec",
        "BettingStrategy",
        "CalibrationConfig",
        "Direction",
        "ErrorMetric",
        "GroundTruth",
        "MetricSpec",
        "SelectionRuleName",
        "reliable_set",
        "validate_config",
    ),
    "eprocess": ("BetBound", "bet_bound", "payoff", "quantile_transform", "update"),
    "betting": ("BettingState", "next_bet", "observe"),
    "selection": ("SelectionResult", "bh", "bonferroni", "by", "ebh", "fixed_sequence"),
    "acquisition": ("select_batch",),
    "orchestrator": ("RiskSource", "RoundRecord", "RunResult", "StopReason", "run_altt", "run_ltt"),
    "simharness": (
        "Bernoulli",
        "Beta",
        "CompositeSyntheticSpec",
        "MetricsSummary",
        "PointMass",
        "SyntheticSpec",
        "run_trials",
        "sample_risk",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""infogain: how much decision-relevant information do logged decisions leave on the table?

Given a dataset of contextual signals, outcomes, and logged decisions (human,
AI, or team), this package estimates the joint distribution, computes the
expected payoff of a Bayesian-rational benchmark conditioned on any variable
subset, and reports information gains and per-signal Shapley attributions with
bootstrap uncertainty.
"""

__version__ = "0.1.0"

from .bootstrap import BootstrapResult, BootstrapSpec, GainStat, ShapleyStat, bootstrap_run
from .joint import Dataset, JointDistribution, estimate_joint
from .model import (
    BasicSignal,
    DecisionColumn,
    DecisionProblem,
    DecisionSpace,
    Diagnostic,
    PayoffFunction,
    SignalSchema,
    StateSpace,
    brier_problem,
    payoff,
    validate_problem,
    validate_schema,
)
from .rational import (
    GainValue,
    best_response,
    cross_fit_gain,
    cross_fit_payoff,
    information_gain,
    rational_payoff,
)
from .shapley import ShapleyReport, shapley_exact, shapley_sampled
from .synth import (
    SyntheticAgentSpec,
    brute_force_rational,
    generate_dataset,
    make_deepfake_dataset,
    make_deepfake_joint,
    make_xor_joint,
    with_population_agents,
)

__all__ = [
    "__version__",
    "BasicSignal",
    "BootstrapResult",
    "BootstrapSpec",
    "Dataset",
    "DecisionColumn",
    "DecisionProblem",
    "DecisionSpace",
    "Diagnostic",
    "GainStat",
    "GainValue",
    "JointDistribution",
    "PayoffFunction",
    "ShapleyReport",
    "ShapleyStat",
    "SignalSchema",
    "StateSpace",
    "SyntheticAgentSpec",
    "best_response",
    "bootstrap_run",
    "brier_problem",
    "brute_force_rational",
    "cross_fit_gain",
    "cross_fit_payoff",
    "estimate_joint",
    "generate_dataset",
    "information_gain",
    "make_deepfake_dataset",
    "make_deepfake_joint",
    "make_xor_joint",
    "payoff",
    "rational_payoff",
    "shapley_exact",
    "shapley_sampled",
    "validate_problem",
    "validate_schema",
    "with_population_agents",
]

"""infogain: how much decision-relevant information do logged decisions leave on the table?

Given a dataset of contextual signals, outcomes, and logged decisions (human,
AI, or team), this package estimates the joint distribution, computes the
expected payoff of a Bayesian-rational benchmark conditioned on any variable
subset, and reports information gains and per-signal Shapley attributions with
bootstrap uncertainty.
"""

__version__ = "0.1.0"

import importlib

# Public name -> the submodule that defines it.  Importing the package loads
# none of them (nor numpy): a name loads its submodule on first use.
_EXPORTS = {
    "BootstrapResult": "bootstrap",
    "BootstrapSpec": "bootstrap",
    "GainStat": "bootstrap",
    "ShapleyStat": "bootstrap",
    "bootstrap_run": "bootstrap",
    "Dataset": "joint",
    "JointDistribution": "joint",
    "estimate_joint": "joint",
    "BasicSignal": "model",
    "DecisionColumn": "model",
    "DecisionProblem": "model",
    "DecisionSpace": "model",
    "Diagnostic": "model",
    "PayoffFunction": "model",
    "SignalSchema": "model",
    "StateSpace": "model",
    "brier_problem": "model",
    "validate_problem": "model",
    "validate_schema": "model",
    "GainValue": "rational",
    "cross_fit_gain": "rational",
    "cross_fit_payoff": "rational",
    "information_gain": "rational",
    "rational_payoff": "rational",
    "ShapleyReport": "shapley",
    "shapley_exact": "shapley",
    "shapley_sampled": "shapley",
    "SyntheticAgentSpec": "synth",
    "brute_force_rational": "synth",
    "generate_dataset": "synth",
    "make_deepfake_dataset": "synth",
    "make_deepfake_joint": "synth",
    "make_xor_joint": "synth",
    "with_population_agents": "synth",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """A public name from its submodule, or a submodule (``infogain.rational``) imported on first use."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name.isidentifier():
        try:
            return importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

"""Residential EV charging / V2G simulation and evolutionary policy synthesis.

The public names below are resolved on first use (PEP 562), so importing one
submodule, such as ``evpolicy.pydriver`` in a candidate's child process, does
not import the rest of the package.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "baseline": ("BaselineConfig", "baseline_decide"),
    "ledgers": ("LedgerEntry", "build_ledger", "export_ledger",
                "quadrant_sample", "render_examples"),
    "market": ("EnvTrace", "PriceForecast", "forecast_at", "load_trace",
               "save_trace", "synthetic_trace", "trace_stats"),
    "rewards": ("FitReport", "RewardConfig", "behavioral_metrics",
                "departure_penalty", "fit_score", "step_profit"),
    "rules": ("evaluate_rules", "parse_rule_script", "script_to_source"),
    "runtime": ("ExternalProcessPolicy", "GuardrailPolicy", "PolicyHandle",
                "PolicyProgram", "make_policy"),
    "simulation": ("BatteryConfig", "ConnectionSession", "EpisodeReport",
                   "Observation", "StepRecord", "apply_action",
                   "observation_at", "per_step_energy_cap", "read_step_log",
                   "run_episode"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    # Not cached in globals(): the submodule's current binding is returned,
    # so a name rebound there (a test patch, a tracing wrapper) is seen here.
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""Residential EV charging / V2G simulation and evolutionary policy synthesis."""

from .baseline import BaselineConfig, baseline_decide
from .ledgers import (LedgerEntry, QuadrantSpec, build_ledger, export_ledger,
                      quadrant_sample, render_examples)
from .market import (EnvTrace, PriceForecast, forecast_at, load_trace,
                     save_trace, synthetic_trace, trace_stats)
from .rewards import (FitReport, RewardConfig, behavioral_metrics,
                      departure_penalty, fit_score, step_profit)
from .rules import evaluate_rules, parse_rule_script, script_to_source
from .runtime import (ExternalProcessPolicy, GuardrailPolicy, PolicyHandle,
                      PolicyProgram, make_policy)
from .simulation import (Action, BatteryConfig, ConnectionSession,
                         EpisodeReport, Observation, StepRecord, apply_action,
                         observation_at, per_step_energy_cap, read_step_log,
                         run_episode)

__version__ = "0.1.0"

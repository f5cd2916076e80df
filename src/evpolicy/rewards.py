"""Reward terms, fit scoring, and behavioral metrics (cycles, flicker)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, PolicyFault

FIT_TOLERANCE_KW = 0.5


@dataclass(frozen=True)
class RewardConfig:
    mode: str = "raw"  # "raw" | "normalized"
    deficit_penalty_coeff: float = 10.0
    satisfaction_exponent_scale: float = 4.0
    satisfaction_weight: float = 1.0

    def __post_init__(self):
        if self.mode not in ("raw", "normalized"):
            raise ConfigError(f"unknown reward mode {self.mode!r}")
        if min(self.deficit_penalty_coeff, self.satisfaction_exponent_scale,
               self.satisfaction_weight) < 0:
            raise ConfigError("reward coefficients must be >= 0")


def step_profit(grid_import_kwh: float, grid_export_kwh: float,
                buy_price: float, sell_price: float) -> float:
    """Negated net meter cost for one step: revenue minus cost."""
    return sell_price * grid_export_kwh - buy_price * grid_import_kwh


def departure_penalty(session, soc_at_departure: float,
                      cfg: RewardConfig) -> float:
    """Non-positive penalty for leaving below the session's target SoC.

    Affine deficit term plus an exponential comfort term; both vanish when the
    target is met. The exact functional form is this package's interpretation
    (see README), with configurable coefficients.
    """
    deficit = max(0.0, session.target_soc - soc_at_departure)
    if deficit == 0.0:
        return 0.0
    return -(cfg.deficit_penalty_coeff * deficit
             + cfg.satisfaction_weight
             * (math.exp(cfg.satisfaction_exponent_scale * deficit) - 1.0))


@dataclass
class FitReport:
    fit_score: float
    mismatches: list  # (Observation, reference_kw, policy_kw)


def fit_score(policy, examples: Sequence[tuple]) -> FitReport:
    """Fraction of examples where the policy is within 0.5 kW of the reference.

    ``examples`` is a sequence of (Observation, reference_kw) pairs. Mismatches
    keep the full observation so feedback prompts can cite them. A
    :class:`PolicyFault` carries the step index of the example's observation.
    """
    if not examples:
        raise ValueError("fit_score needs at least one example")
    mismatches = []
    matched = 0
    for obs, reference_kw in examples:
        try:
            policy_kw = policy.decide(obs)
        except PolicyFault as fault:
            fault.step_index = obs.step_index
            raise
        if abs(policy_kw - reference_kw) <= FIT_TOLERANCE_KW:
            matched += 1
        else:
            mismatches.append((obs, reference_kw, policy_kw))
    return FitReport(fit_score=matched / len(examples), mismatches=mismatches)


@dataclass(frozen=True)
class BehaviorMetrics:
    cycle_count: int
    flicker_count: int
    action_distribution: dict


def behavioral_metrics(powers: Sequence[float]) -> BehaviorMetrics:
    """Cycle/flicker counts and the charge/discharge/idle distribution of a
    sequence of applied powers (kW, one per step).

    A cycle is a transition between strictly positive and strictly negative
    applied power; intervening idle steps bridge to a single transition.
    Flicker counts only immediately adjacent sign reversals.
    """
    cycles = 0
    flicker = 0
    last_nonzero = 0
    n_charge = n_discharge = n_idle = 0
    prev = 0.0
    for i, p in enumerate(powers):
        sign = 1 if p > 0 else (-1 if p < 0 else 0)
        if sign > 0:
            n_charge += 1
        elif sign < 0:
            n_discharge += 1
        else:
            n_idle += 1
        if sign != 0:
            if last_nonzero != 0 and sign != last_nonzero:
                cycles += 1
            last_nonzero = sign
        if i > 0 and prev * p < 0:
            flicker += 1
        prev = p
    n = len(powers)
    dist = {
        "charge": {"count": n_charge, "fraction": n_charge / n if n else 0.0},
        "discharge": {"count": n_discharge, "fraction": n_discharge / n if n else 0.0},
        "idle": {"count": n_idle, "fraction": n_idle / n if n else 0.0},
    }
    return BehaviorMetrics(cycle_count=cycles, flicker_count=flicker,
                           action_distribution=dist)

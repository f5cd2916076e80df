"""Expert rule-based controller: PV-surplus charging, peak-price discharge."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .simulation import (Action, BatteryConfig, Observation,
                         per_step_energy_cap)


@dataclass(frozen=True)
class BaselineConfig:
    peak_price_threshold: float = 0.35
    min_soc_reserve: float = 0.20
    cheap_price_threshold: float = 0.12
    target_soc: float = 0.80

    def __post_init__(self):
        if self.peak_price_threshold <= 0 or self.cheap_price_threshold <= 0:
            raise ConfigError("price thresholds must be > 0")
        if not 0 <= self.min_soc_reserve < 1:
            raise ConfigError("min_soc_reserve must be in [0, 1)")


def baseline_decide(obs: Observation, cfg: BaselineConfig,
                    battery: BatteryConfig,
                    step_minutes: int = 5) -> Action:
    """Priority-ordered rules: safety, peak discharge, PV surplus, cheap charge.

    Threshold conventions: discharge fires at price >= peak threshold, the SoC
    reserve uses strict comparisons on both sides.
    """
    if not obs.plugged_in:
        return Action(0.0)

    charge_cap = per_step_energy_cap(obs.soc, battery.soc_max,
                                     battery.capacity_kwh, step_minutes,
                                     "charge", battery.charge_eff)
    # Safety first: below the reserve, charge regardless of price.
    if obs.soc < cfg.min_soc_reserve:
        return Action(min(obs.max_charge_kw, charge_cap))

    if obs.discharge_price >= cfg.peak_price_threshold and obs.soc > cfg.min_soc_reserve:
        discharge_cap = per_step_energy_cap(obs.soc, cfg.min_soc_reserve,
                                            battery.capacity_kwh, step_minutes,
                                            "discharge", battery.discharge_eff)
        return Action(-min(obs.max_discharge_kw, discharge_cap))

    if obs.pv_kw > obs.load_kw and obs.soc < battery.soc_max:
        surplus = obs.pv_kw - obs.load_kw
        return Action(min(surplus, obs.max_charge_kw, charge_cap))

    if obs.charge_price <= cfg.cheap_price_threshold and obs.soc < cfg.target_soc:
        return Action(min(obs.max_charge_kw, charge_cap))

    return Action(0.0)

"""Discrete-time household environment: battery physics and episode rollout."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ConfigError, PolicyFault
from .market import EnvTrace, PriceForecast, forecast_at
from .rewards import RewardConfig, behavioral_metrics, departure_penalty, step_profit

DEFAULT_EPISODE_STEPS = 1500
# SoC while no EV is at home; irrelevant to physics (actions are forced to 0)
# and replaced by arrival_soc when a session starts.
UNPLUGGED_SOC = 0.5

CLAMP_EPS = 1e-9


@dataclass(frozen=True)
class BatteryConfig:
    capacity_kwh: float = 40.0
    soc_min: float = 0.20
    soc_max: float = 1.0
    charge_eff: float = 0.95
    discharge_eff: float = 0.95
    max_charge_kw: float = 7.0
    max_discharge_kw: float = 7.0

    def __post_init__(self):
        if self.capacity_kwh <= 0:
            raise ConfigError("capacity_kwh must be > 0")
        if not 0 <= self.soc_min < self.soc_max <= 1:
            raise ConfigError("need 0 <= soc_min < soc_max <= 1")
        if not (0 < self.charge_eff <= 1 and 0 < self.discharge_eff <= 1):
            raise ConfigError("efficiencies must be in (0, 1]")
        if self.max_charge_kw <= 0 or self.max_discharge_kw <= 0:
            raise ConfigError("power limits must be > 0")


@dataclass(frozen=True)
class ConnectionSession:
    arrival_step: int
    departure_step: int
    arrival_soc: float
    target_soc: float = 0.80

    def __post_init__(self):
        if self.departure_step <= self.arrival_step:
            raise ConfigError("departure_step must exceed arrival_step")


def validate_sessions(sessions: Sequence[ConnectionSession],
                      battery: BatteryConfig) -> None:
    prev_end = None
    for s in sessions:
        if not battery.soc_min <= s.arrival_soc <= battery.soc_max:
            raise ConfigError(f"arrival_soc {s.arrival_soc} outside SoC bounds")
        if not battery.soc_min < s.target_soc <= battery.soc_max:
            raise ConfigError(f"target_soc {s.target_soc} outside SoC bounds")
        if prev_end is not None and s.arrival_step < prev_end:
            raise ConfigError("sessions must be ordered and non-overlapping")
        prev_end = s.departure_step


def default_sessions(trace: EnvTrace, arrival_soc: float = 0.5,
                     target_soc: float = 0.80) -> list[ConnectionSession]:
    """Home 18:00-07:30 pattern over the whole trace (an assumed schedule)."""
    sessions = []
    spd = 24 * 60 // trace.step_minutes
    arrival_off = int(18.0 * 60 // trace.step_minutes)
    depart_off = int(7.5 * 60 // trace.step_minutes)
    day = -1
    while True:
        day += 1
        arrival = day * spd + arrival_off
        departure = (day + 1) * spd + depart_off
        if arrival >= len(trace) - 1:
            break
        sessions.append(ConnectionSession(
            arrival_step=arrival,
            departure_step=min(departure, len(trace)),
            arrival_soc=arrival_soc, target_soc=target_soc))
    if not sessions:  # trace shorter than a day: stay plugged throughout
        sessions = [ConnectionSession(0, len(trace), arrival_soc, target_soc)]
    return sessions


@dataclass(frozen=True)
class Observation:
    step_index: int
    charge_price: float
    discharge_price: float
    soc: float
    ttd_minutes: float
    load_kw: float
    pv_kw: float
    max_charge_kw: float
    max_discharge_kw: float
    forecast: PriceForecast
    plugged_in: bool


@dataclass(frozen=True)
class StepRecord:
    observation: Observation
    requested_kw: float
    applied_kw: float
    soc_after: float
    grid_import_kwh: float
    grid_export_kwh: float
    step_cost: float
    step_reward: float


@dataclass
class EpisodeReport:
    records: list[StepRecord]
    total_reward: float
    total_cost: float
    total_profit: float
    total_penalty: float
    soc_violations: int
    clamp_events: int
    cycle_count: int
    flicker_count: int
    action_distribution: dict
    departure_deficits: list  # (ConnectionSession, deficit fraction)
    start_step: int
    n_steps: int
    decision_log: list | None = None

    def summary_dict(self) -> dict:
        return {
            "start_step": self.start_step,
            "n_steps": self.n_steps,
            "total_reward": self.total_reward,
            "total_cost": self.total_cost,
            "total_profit": self.total_profit,
            "total_penalty": self.total_penalty,
            "soc_violations": self.soc_violations,
            "clamp_events": self.clamp_events,
            "metrics": {
                "cycle_count": self.cycle_count,
                "flicker_count": self.flicker_count,
                "action_distribution": self.action_distribution,
            },
            "departure_deficits": [
                {"arrival_step": s.arrival_step,
                 "departure_step": s.departure_step,
                 "target_soc": s.target_soc,
                 "deficit": d}
                for s, d in self.departure_deficits
            ],
        }

    def write_summary(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def step_rows(self) -> Iterator[dict]:
        """One plain row per simulated step, as written to the step log."""
        for r in self.records:
            o = r.observation
            yield {
                "step": o.step_index,
                "charge_price": o.charge_price,
                "discharge_price": o.discharge_price,
                "soc": o.soc,
                "ttd_min": o.ttd_minutes,
                "load_kw": o.load_kw,
                "pv_kw": o.pv_kw,
                "plugged_in": o.plugged_in,
                "requested_kw": r.requested_kw,
                "applied_kw": r.applied_kw,
                "soc_after": r.soc_after,
                "grid_import_kwh": r.grid_import_kwh,
                "grid_export_kwh": r.grid_export_kwh,
                "step_cost": r.step_cost,
                "step_reward": r.step_reward,
            }

    def write_step_log(self, path) -> None:
        """JSON-lines step log: one object per simulated step."""
        with open(path, "w") as fh:
            for row in self.step_rows():
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_step_log(path) -> list[dict]:
    """Rows of a step log, in the shape of :meth:`EpisodeReport.step_rows`."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def session_at(sessions: Sequence[ConnectionSession],
               step_index: int) -> ConnectionSession | None:
    for s in sessions:
        if s.arrival_step <= step_index < s.departure_step:
            return s
    return None


def _session_index(sessions: Sequence[ConnectionSession], start_step: int,
                   stop_step: int) -> list[ConnectionSession | None]:
    """The session plugged in at each step of ``[start_step, stop_step)``.

    Entry ``t - start_step`` equals ``session_at(sessions, t)`` for
    non-overlapping ``sessions``; one pass replaces a scan per step.
    """
    index: list[ConnectionSession | None] = [None] * (stop_step - start_step)
    for s in sessions:
        lo = max(s.arrival_step, start_step)
        hi = min(s.departure_step, stop_step)
        if lo < hi:
            index[lo - start_step:hi - start_step] = [s] * (hi - lo)
    return index


def observation_at(trace: EnvTrace, session: ConnectionSession | None,
                   soc: float, step_index: int,
                   battery: BatteryConfig) -> Observation:
    """What a policy sees at ``step_index`` with the EV at ``soc``.

    ``session`` is the session plugged in at ``step_index``, or None when
    the EV is away (as :func:`session_at` finds it).
    """
    if not 0 <= step_index < len(trace):
        raise IndexError(f"step_index {step_index} out of range")
    plugged = session is not None
    ttd = ((session.departure_step - step_index) * trace.step_minutes
           if plugged else 0.0)
    return Observation(
        step_index=step_index,
        charge_price=trace.buy_price[step_index],
        discharge_price=trace.sell_price[step_index],
        soc=soc,
        ttd_minutes=float(ttd),
        load_kw=trace.load_kw[step_index],
        pv_kw=trace.pv_kw[step_index],
        max_charge_kw=battery.max_charge_kw,
        max_discharge_kw=battery.max_discharge_kw,
        forecast=forecast_at(trace, step_index),
        plugged_in=plugged,
    )


def per_step_energy_cap(soc: float, bound: float, capacity_kwh: float,
                        step_minutes: int, direction: str,
                        efficiency: float = 0.95) -> float:
    """Largest power (kW) whose one-step energy transfer stays inside ``bound``.

    ``direction`` is "charge" (bound = SoC ceiling) or "discharge"
    (bound = reserve floor); efficiency losses are accounted for.
    """
    dt = step_minutes / 60.0
    if direction == "discharge":
        return max(0.0, (soc - bound) * capacity_kwh * efficiency / dt)
    if direction == "charge":
        return max(0.0, (bound - soc) * capacity_kwh / (dt * efficiency))
    raise ValueError(f"unknown direction {direction!r}")


def apply_action(obs: Observation, power: float, battery: BatteryConfig,
                 step_minutes: int) -> tuple[float, float, float, float]:
    """Clamp the requested ``power`` (kW, + charge, - discharge) to
    feasibility and integrate one step.

    Returns (applied_kw, soc_after, grid_import_kwh, grid_export_kwh). Never
    raises: infeasible requests are reduced, unplugged steps apply 0.
    """
    dt = step_minutes / 60.0
    if not obs.plugged_in or not math.isfinite(power):
        applied = 0.0
    elif power > 0:
        applied = min(power, battery.max_charge_kw, per_step_energy_cap(
            obs.soc, battery.soc_max, battery.capacity_kwh, step_minutes,
            "charge", battery.charge_eff))
    elif power < 0:
        applied = max(power, -battery.max_discharge_kw, -per_step_energy_cap(
            obs.soc, battery.soc_min, battery.capacity_kwh, step_minutes,
            "discharge", battery.discharge_eff))
    else:
        applied = 0.0

    if applied > 0:
        soc_after = obs.soc + applied * dt * battery.charge_eff / battery.capacity_kwh
    elif applied < 0:
        soc_after = obs.soc + applied * dt / (battery.discharge_eff * battery.capacity_kwh)
    else:
        soc_after = obs.soc

    meter_kwh = (obs.load_kw - obs.pv_kw) * dt + applied * dt
    grid_import = max(meter_kwh, 0.0)
    grid_export = max(-meter_kwh, 0.0)
    return applied, soc_after, grid_import, grid_export


def default_n_steps(trace: EnvTrace, start_step: int) -> int:
    """Steps in the default episode window from ``start_step``: up to
    ``DEFAULT_EPISODE_STEPS``, cut at the end of the trace."""
    return min(DEFAULT_EPISODE_STEPS, len(trace) - start_step)


def run_episode(trace: EnvTrace, sessions: Sequence[ConnectionSession],
                battery: BatteryConfig, policy, reward_cfg: RewardConfig,
                start_step: int = 0,
                n_steps: int = DEFAULT_EPISODE_STEPS) -> EpisodeReport:
    """Deterministic rollout of ``policy`` over ``n_steps`` trace steps.

    Departure penalties apply for sessions whose departure falls inside the
    simulated window. Policy faults abort with a :class:`PolicyFault` carrying
    the failing step index.
    """
    if start_step < 0 or n_steps < 0 or start_step + n_steps > len(trace):
        raise ConfigError(
            f"window [{start_step}, {start_step + n_steps}) outside trace "
            f"of length {len(trace)}")
    sessions = sorted(sessions, key=lambda s: s.arrival_step)
    validate_sessions(sessions, battery)
    plugged_sessions = _session_index(sessions, start_step,
                                      start_step + n_steps)

    violations_before = getattr(policy, "violation_counter", 0)
    soc = UNPLUGGED_SOC
    current_session = None
    records: list[StepRecord] = []
    total_profit = 0.0
    total_penalty = 0.0
    total_cost = 0.0
    clamp_events = 0
    deficits = []

    for t, session in enumerate(plugged_sessions, start_step):
        if session is not None and session is not current_session:
            soc = session.arrival_soc  # EV just arrived
        current_session = session

        obs = observation_at(trace, session, soc, t, battery)
        if obs.plugged_in:
            try:
                requested = float(policy.decide(obs))
            except PolicyFault as fault:
                fault.step_index = t
                raise
            # Records carry the pre-guardrail intent so downstream critique
            # can see blocked requests; physics uses the guarded value.
            raw_requested = getattr(policy, "last_raw_kw", requested)
            if not math.isfinite(raw_requested):
                raw_requested = requested
        else:
            requested = raw_requested = 0.0

        applied, soc_after, grid_import, grid_export = apply_action(
            obs, requested, battery, trace.step_minutes)
        if obs.plugged_in and abs(applied - requested) > CLAMP_EPS:
            clamp_events += 1

        cost = obs.charge_price * grid_import - obs.discharge_price * grid_export
        reward = step_profit(grid_import, grid_export,
                             obs.charge_price, obs.discharge_price)
        records.append(StepRecord(
            observation=obs, requested_kw=raw_requested, applied_kw=applied,
            soc_after=soc_after, grid_import_kwh=grid_import,
            grid_export_kwh=grid_export, step_cost=cost, step_reward=reward))
        total_profit += reward
        total_cost += cost
        soc = soc_after

        if session is not None and t == session.departure_step - 1:
            total_penalty += departure_penalty(session, soc, reward_cfg)
            deficits.append((session, max(0.0, session.target_soc - soc)))
            current_session = None

    total_reward = total_profit + total_penalty
    if reward_cfg.mode == "normalized" and records:
        dt = trace.step_minutes / 60.0
        peak_buy = max(r.observation.charge_price for r in records)
        household_kwh = sum(r.observation.load_kw for r in records) * dt
        denom = peak_buy * household_kwh
        if denom > 0:
            total_reward = total_reward / denom

    metrics = behavioral_metrics([r.applied_kw for r in records])
    return EpisodeReport(
        records=records,
        total_reward=total_reward,
        total_cost=total_cost,
        total_profit=total_profit,
        total_penalty=total_penalty,
        soc_violations=getattr(policy, "violation_counter", 0) - violations_before,
        clamp_events=clamp_events,
        cycle_count=metrics.cycle_count,
        flicker_count=metrics.flicker_count,
        action_distribution=metrics.action_distribution,
        departure_deficits=deficits,
        start_step=start_step,
        n_steps=n_steps,
    )

"""Discrete-time household environment: battery physics and episode rollout."""
from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from datetime import timedelta
from itertools import chain, islice, repeat
from operator import is_not, sub
from typing import NamedTuple

from .errors import (ConfigError, PolicyFault, read_json_lines,
                     require_numbers)
from .market import (FORECAST_STEPS, STEP, STEP_HOURS, STEP_MINUTES,
                     STEPS_PER_DAY, EnvTrace, PriceForecast, forecast_at)
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
        require_numbers(self, vars(self))
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
        for step in (self.arrival_step, self.departure_step):
            if type(step) is not int:  # a bool or a float is a mistake
                raise ConfigError(f"session step must be an int, got {step!r}")
        if self.departure_step <= self.arrival_step:
            raise ConfigError("departure_step must exceed arrival_step")


def validate_sessions(sessions: Sequence[ConnectionSession],
                      battery: BatteryConfig) -> None:
    prev_end = None
    for s in sessions:
        require_numbers(s, ("arrival_soc", "target_soc"))
        if not battery.soc_min <= s.arrival_soc <= battery.soc_max:
            raise ConfigError(f"arrival_soc {s.arrival_soc} outside SoC bounds")
        if not battery.soc_min < s.target_soc <= battery.soc_max:
            raise ConfigError(f"target_soc {s.target_soc} outside SoC bounds")
        if prev_end is not None and s.arrival_step < prev_end:
            raise ConfigError("sessions must be ordered and non-overlapping")
        prev_end = s.departure_step


def default_sessions(trace: EnvTrace) -> list[ConnectionSession]:
    """Home 18:00-07:30 by the trace's clock (an assumed schedule), from the
    first 18:00 at or after the trace's start; arrival at 50 % SoC."""
    evening = trace.start.replace(hour=18, minute=0, second=0, microsecond=0)
    if evening < trace.start:
        evening += timedelta(days=1)
    first = -((trace.start - evening) // STEP)  # first step at or after it
    stay = (13 * 60 + 30) // STEP_MINUTES  # 18:00 to 07:30
    sessions = [ConnectionSession(arrival, min(arrival + stay, len(trace)), 0.5)
                for arrival in range(first, len(trace) - 1, STEPS_PER_DAY)]
    # A trace that ends by its first evening stays plugged in throughout.
    return sessions or [ConnectionSession(0, len(trace), 0.5)]


class Observation(NamedTuple):
    """One per decision, so a NamedTuple: immutable and quick to build."""
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


class StepRecord(NamedTuple):
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
    """An episode's totals and its step log, stored as one list per field.

    Entry ``i`` of each column belongs to trace step ``start_step + i``:
    ``step_sessions`` holds the session plugged in then (None when the EV is
    away), ``soc`` the SoC before the step and ``soc_after`` the SoC after
    it. Prices, load and PV stay in ``trace``'s columns. ``step_cost`` and
    ``total_cost`` are the negated rewards, built when read, as ``records``
    builds the :class:`StepRecord`s, observations included.
    """

    trace: EnvTrace
    battery: BatteryConfig
    step_sessions: list[ConnectionSession | None]
    requested_kw: list[float]
    applied_kw: list[float]
    soc: list[float]
    soc_after: list[float]
    grid_import_kwh: list[float]
    grid_export_kwh: list[float]
    step_reward: list[float]
    total_reward: float
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

    @property
    def step_cost(self) -> list[float]:
        """Each step's net meter cost: its reward negated, a zero as 0.0."""
        return [0.0 - reward for reward in self.step_reward]

    @property
    def total_cost(self) -> float:
        return 0.0 - self.total_profit

    @property
    def records(self) -> list[StepRecord]:
        return [StepRecord(self.observation(i), *row) for i, row in enumerate(
            zip(self.requested_kw, self.applied_kw, self.soc_after,
                self.grid_import_kwh, self.grid_export_kwh, self.step_cost,
                self.step_reward))]

    def observation(self, i: int) -> Observation:
        """What the policy saw at column entry ``i``, trace step
        ``start_step + i``."""
        return observation_at(self.trace, self.step_sessions[i], self.soc[i],
                              self.start_step + i, self.battery)

    def columns(self) -> dict:
        """The step log's columns by key, each an iterable of one value per
        simulated step, with the keys in the sorted order in which
        ``json.dumps(row, sort_keys=True)`` writes them. Some columns are
        iterators, so each can be read once."""
        start, stop = self.start_step, self.start_step + self.n_steps
        steps = range(start, stop)
        return {
            "applied_kw": self.applied_kw,
            "charge_price": islice(self.trace.buy_price, start, stop),
            "discharge_price": islice(self.trace.sell_price, start, stop),
            "grid_export_kwh": self.grid_export_kwh,
            "grid_import_kwh": self.grid_import_kwh,
            "load_kw": islice(self.trace.load_kw, start, stop),
            "plugged_in": map(is_not, self.step_sessions, repeat(None)),
            "pv_kw": islice(self.trace.pv_kw, start, stop),
            "requested_kw": self.requested_kw,
            "soc": self.soc,
            "soc_after": self.soc_after,
            "step": steps,
            "step_cost": map(sub, repeat(0.0), self.step_reward),
            "step_reward": self.step_reward,
            "ttd_min": map(_ttd_minutes, self.step_sessions, steps),
        }

    def step_rows(self) -> Iterator[dict]:
        """One plain row per simulated step, as written to the step log."""
        columns = self.columns()
        return (dict(zip(columns, row)) for row in zip(*columns.values()))

    def write_step_log(self, path) -> None:
        """JSON-lines step log, streamed: each line is
        ``json.dumps(row, sort_keys=True)`` of a row of :meth:`step_rows`.

        A line is the join of its keys with each column's text, formatted
        one row at a time. Numbers are written by ``repr``, which is what the
        encoder writes for the plain ints and finite floats the trace, the
        battery and the sessions hold. Only ``requested_kw`` can be
        non-finite (an unguarded policy's request), so it goes through
        :func:`_json_float` when it is. The text of a SoC or a reward is
        reused where the log repeats it (see :func:`_soc_texts` and
        :func:`_cost_and_reward_texts`).
        """
        columns = self.columns()
        texts = {key: map(repr, column) for key, column in columns.items()}
        texts["plugged_in"] = map(_JSON_BOOL.__getitem__,
                                  columns["plugged_in"])
        if not all(map(math.isfinite, self.requested_kw)):
            texts["requested_kw"] = map(_json_float, self.requested_kw)
        # One iterator under two adjacent keys: zip takes its arguments'
        # next items from left to right, so each row gets both texts.
        texts["soc"] = texts["soc_after"] = _soc_texts(self.soc,
                                                       self.soc_after)
        texts["step_cost"] = texts["step_reward"] = _cost_and_reward_texts(
            self.step_reward)
        parts = []
        for separator, key in zip(chain("{", repeat(", ")), texts):
            parts += repeat(f'{separator}"{key}": '), texts[key]
        parts.append(repeat("}\n"))
        with open(path, "w") as fh:
            fh.writelines(map("".join, zip(*parts)))


_JSON_BOOL = {True: "true", False: "false"}


def _soc_texts(soc: Sequence[float],
               soc_after: Sequence[float]) -> Iterator[str]:
    """``repr`` of each step's ``soc``, then of its ``soc_after``.

    A step's ``soc`` is mostly the previous step's ``soc_after`` object, and
    a step that moves no energy keeps its ``soc`` object as ``soc_after``, so
    an object is formatted once for each run of steps that repeats it. Equal
    values in distinct objects are formatted apart, so an int and a float,
    or ``0.0`` and ``-0.0``, each keep their own text.
    """
    last, text = object(), ""
    for before, after in zip(soc, soc_after):
        if before is not last:
            text = repr(before)
        yield text
        if after is not before:
            text = repr(after)
        yield text
        last = after


def _cost_and_reward_texts(step_reward: Sequence[float]) -> Iterator[str]:
    """The text of each step's ``step_cost``, ``0.0 - reward``, then of its
    ``step_reward``, as ``repr`` writes them.

    For a float reward the cost's text is the reward's with its sign
    flipped, except that a zero of either sign costs ``0.0`` and a NaN stays
    ``nan``; any other number is negated and formatted.
    """
    for reward in step_reward:
        text = repr(reward)
        if type(reward) is not float:
            yield repr(0.0 - reward)
        elif text[0] == "-":
            yield "0.0" if text == "-0.0" else text[1:]
        else:
            yield text if text == "0.0" or text == "nan" else "-" + text
        yield text


def _json_float(value: float) -> str:
    """``value`` as ``json`` writes a float: NaN and the infinities by name."""
    if math.isfinite(value):
        return repr(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


_READ_FIELDS = ("step", "charge_price", "discharge_price", "soc", "soc_after",
                "ttd_min", "load_kw", "pv_kw", "applied_kw", "step_reward")


def read_step_log(path) -> list[dict]:
    """Rows of a step log, in the shape of :meth:`EpisodeReport.step_rows`.

    A line that is not JSON, or not an object with a number in each field
    the ledger and plot-data read, is a ConfigError naming the file and the
    line.
    """
    rows = []
    for number, _, row in read_json_lines(path):
        if not (isinstance(row, dict)
                and all(type(row.get(key)) in (int, float)
                        for key in _READ_FIELDS)):
            raise ConfigError(
                f"{path}: line {number}: not a step-log row (expected an "
                "object with a number in each of "
                f"{', '.join(_READ_FIELDS)})")
        rows.append(row)
    return rows


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
    return Observation(
        step_index=step_index,
        charge_price=trace.buy_price[step_index],
        discharge_price=trace.sell_price[step_index],
        soc=soc,
        ttd_minutes=_ttd_minutes(session, step_index),
        load_kw=trace.load_kw[step_index],
        pv_kw=trace.pv_kw[step_index],
        max_charge_kw=battery.max_charge_kw,
        max_discharge_kw=battery.max_discharge_kw,
        forecast=forecast_at(trace, step_index),
        plugged_in=session is not None,
    )


def _ttd_minutes(session: ConnectionSession | None, step_index: int) -> float:
    """Minutes from ``step_index`` to the departure of ``session``; 0 when
    the EV is away."""
    if session is None:
        return 0.0
    return float((session.departure_step - step_index) * STEP_MINUTES)


def per_step_energy_cap(soc: float, bound: float, capacity_kwh: float,
                        direction: str, efficiency: float) -> float:
    """Largest power (kW) whose one-step energy transfer stays inside ``bound``.

    ``direction`` is "charge" (bound = SoC ceiling) or "discharge"
    (bound = reserve floor); efficiency losses are accounted for.
    """
    if direction == "discharge":
        return max(0.0, (soc - bound) * capacity_kwh * efficiency / STEP_HOURS)
    if direction == "charge":
        return max(0.0, (bound - soc) * capacity_kwh / (STEP_HOURS * efficiency))
    raise ValueError(f"unknown direction {direction!r}")


def apply_action(obs: Observation, power: float,
                 battery: BatteryConfig) -> tuple[float, float, float, float]:
    """Clamp the requested ``power`` (kW, + charge, - discharge) to
    feasibility and integrate one step.

    Returns (applied_kw, soc_after, grid_import_kwh, grid_export_kwh). Never
    raises: infeasible requests are reduced, unplugged steps apply 0.
    :func:`run_episode` repeats these expressions inline, so a change here
    goes there too.
    """
    if not obs.plugged_in or not math.isfinite(power):
        applied = 0.0
    elif power > 0:
        applied = min(power, battery.max_charge_kw, per_step_energy_cap(
            obs.soc, battery.soc_max, battery.capacity_kwh, "charge",
            battery.charge_eff))
    elif power < 0:
        # 0.0 - cap, not -cap: a battery at its floor applies 0.0, not -0.0.
        applied = max(power, -battery.max_discharge_kw,
                      0.0 - per_step_energy_cap(
                          obs.soc, battery.soc_min, battery.capacity_kwh,
                          "discharge", battery.discharge_eff))
    else:
        applied = 0.0

    if applied > 0:
        soc_after = obs.soc + applied * STEP_HOURS * battery.charge_eff / battery.capacity_kwh
    elif applied < 0:
        soc_after = obs.soc + applied * STEP_HOURS / (battery.discharge_eff * battery.capacity_kwh)
    else:
        soc_after = obs.soc

    grid_import, grid_export = _meter_energy(obs.load_kw, obs.pv_kw, applied)
    return applied, soc_after, grid_import, grid_export


def _meter_energy(load_kw: float, pv_kw: float,
                  applied_kw: float) -> tuple[float, float]:
    """(grid_import_kwh, grid_export_kwh) over one step; a meter that reads
    0 (or -0.0) imports and exports 0.0, never -0.0."""
    meter_kwh = (load_kw - pv_kw) * STEP_HOURS + applied_kw * STEP_HOURS
    return (meter_kwh if meter_kwh > 0 else 0.0,
            -meter_kwh if meter_kwh < 0 else 0.0)


def default_n_steps(trace: EnvTrace, start_step: int) -> int:
    """Steps in the default episode window from ``start_step``: up to
    ``DEFAULT_EPISODE_STEPS``, cut at the end of the trace."""
    return min(DEFAULT_EPISODE_STEPS, len(trace) - start_step)


def episode_window(trace: EnvTrace, start_step: int,
                   n_steps: int | None) -> int:
    """``n_steps``, or :func:`default_n_steps` when it is None, checked to
    keep ``[start_step, start_step + n_steps)`` inside ``trace``."""
    if n_steps is None:
        n_steps = default_n_steps(trace, start_step)
    if start_step < 0 or n_steps < 0 or start_step + n_steps > len(trace):
        raise ConfigError(
            f"window [{start_step}, {start_step + n_steps}) outside trace "
            f"of length {len(trace)}")
    return n_steps


def run_episode(trace: EnvTrace, sessions: Sequence[ConnectionSession],
                battery: BatteryConfig, policy, reward_cfg: RewardConfig,
                start_step: int = 0,
                n_steps: int | None = None) -> EpisodeReport:
    """Deterministic rollout of ``policy`` over ``n_steps`` trace steps, by
    default :func:`default_n_steps`.

    Only plugged-in steps build an :class:`Observation` and reach
    ``policy.decide``; a step with the EV away applies 0 kW and keeps the
    SoC. The report stores the step log as columns (see
    :class:`EpisodeReport`). Departure penalties apply for sessions whose
    departure falls inside the simulated window. Policy faults abort with a
    :class:`PolicyFault` carrying the failing step index.

    The loop is flat: it builds what :func:`observation_at` builds and
    computes what :func:`apply_action` (with :func:`per_step_energy_cap` and
    :func:`_meter_energy`) and :func:`step_profit` compute, with the same
    expressions in the same order, so every column matches those one-step
    functions bit for bit; the tests hold it to them.
    """
    n_steps = episode_window(trace, start_step, n_steps)
    stop = start_step + n_steps
    sessions = sorted(sessions, key=lambda s: s.arrival_step)
    validate_sessions(sessions, battery)
    step_sessions = _session_index(sessions, start_step, stop)

    violations_before = getattr(policy, "violation_counter", 0)
    decide = policy.decide
    buy, sell = trace.buy_price, trace.sell_price
    load, pv = trace.load_kw, trace.pv_kw
    forecast_column, tables = trace.forecast_column, trace.forecast_tables
    window = PriceForecast.window
    # What Observation(...) does, without its generated Python __new__.
    new_tuple = tuple.__new__
    max_charge_kw = battery.max_charge_kw
    max_discharge_kw = battery.max_discharge_kw
    soc_min, soc_max = battery.soc_min, battery.soc_max
    capacity_kwh = battery.capacity_kwh
    charge_eff, discharge_eff = battery.charge_eff, battery.discharge_eff
    charge_cap_div = STEP_HOURS * charge_eff
    discharge_soc_div = discharge_eff * capacity_kwh
    isfinite = math.isfinite
    step_hours, step_minutes, horizon = STEP_HOURS, STEP_MINUTES, FORECAST_STEPS
    soc = UNPLUGGED_SOC
    current_session = departure_step = None
    requested_col: list[float] = []
    applied_col: list[float] = []
    soc_col: list[float] = []
    soc_after_col: list[float] = []
    import_col: list[float] = []
    export_col: list[float] = []
    total_penalty = 0.0
    clamp_events = 0
    deficits = []

    for t, session in enumerate(step_sessions, start_step):
        if session is None:
            # The EV is away: nothing to decide, 0 kW applied, SoC kept.
            requested = applied = 0.0
            soc_after = soc
            meter_kwh = (load[t] - pv[t]) * step_hours
        else:
            # A session's steps are contiguous, so a new one has just arrived.
            if session is not current_session:
                soc = session.arrival_soc
                current_session = session
                departure_step = session.departure_step
            obs = new_tuple(Observation, (
                t, buy[t], sell[t], soc,
                float((departure_step - t) * step_minutes), load[t], pv[t],
                max_charge_kw, max_discharge_kw,
                window(forecast_column, t + 1, horizon, tables), True))
            try:
                guarded = float(decide(obs))
            except PolicyFault as fault:
                fault.step_index = t
                raise
            # Columns carry the pre-guardrail intent so downstream critique
            # can see blocked requests; physics uses the guarded value.
            requested = getattr(policy, "last_raw_kw", guarded)
            if not isfinite(requested):
                requested = guarded
            if not isfinite(guarded):
                applied = 0.0
            elif guarded > 0:
                applied = min(guarded, max_charge_kw, max(
                    0.0, (soc_max - soc) * capacity_kwh / charge_cap_div))
            elif guarded < 0:
                applied = max(guarded, -max_discharge_kw, 0.0 - max(
                    0.0, (soc - soc_min) * capacity_kwh * discharge_eff
                    / step_hours))
            else:
                applied = 0.0
            if applied > 0:
                soc_after = (soc + applied * step_hours * charge_eff
                             / capacity_kwh)
            elif applied < 0:
                soc_after = soc + applied * step_hours / discharge_soc_div
            else:
                soc_after = soc
            meter_kwh = (load[t] - pv[t]) * step_hours + applied * step_hours
            if abs(applied - guarded) > CLAMP_EPS:
                clamp_events += 1
            if t == departure_step - 1:
                total_penalty += departure_penalty(session, soc_after,
                                                   reward_cfg)
                deficits.append(
                    (session, max(0.0, session.target_soc - soc_after)))

        requested_col.append(requested)
        applied_col.append(applied)
        soc_col.append(soc)
        soc_after_col.append(soc_after)
        import_col.append(meter_kwh if meter_kwh > 0 else 0.0)
        export_col.append(-meter_kwh if meter_kwh < 0 else 0.0)
        soc = soc_after

    buy_window, sell_window = buy[start_step:stop], sell[start_step:stop]
    reward_col = list(map(step_profit, import_col, export_col, buy_window,
                          sell_window))
    # Left to right with +=, here and for the household load below: sum()
    # compensates its rounding since Python 3.12, which would change the
    # totals' last bits.
    total_profit = 0.0
    for reward in reward_col:
        total_profit += reward

    total_reward = total_profit + total_penalty
    if reward_cfg.mode == "normalized" and n_steps:
        peak_buy = max(buy_window)
        household = 0.0
        for load_kw in load[start_step:stop]:
            household += load_kw
        household_kwh = household * STEP_HOURS
        denom = peak_buy * household_kwh
        if denom > 0:
            total_reward = total_reward / denom

    metrics = behavioral_metrics(applied_col)
    return EpisodeReport(
        trace=trace,
        battery=battery,
        step_sessions=step_sessions,
        requested_kw=requested_col,
        applied_kw=applied_col,
        soc=soc_col,
        soc_after=soc_after_col,
        grid_import_kwh=import_col,
        grid_export_kwh=export_col,
        step_reward=reward_col,
        total_reward=total_reward,
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

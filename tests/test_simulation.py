import gc
import json
import math
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evpolicy.baseline import BaselineConfig
from evpolicy.errors import ConfigError, PolicyFault
from evpolicy.market import (FORECAST_STEPS, STEP, STEP_HOURS, STEP_MINUTES,
                             STEPS_PER_DAY, EnvTrace, synthetic_trace)
from evpolicy.rewards import RewardConfig, departure_penalty, step_profit
from evpolicy.runtime import GuardrailPolicy, NativePolicy, make_policy
from evpolicy.simulation import (CLAMP_EPS, UNPLUGGED_SOC, BatteryConfig,
                                 ConnectionSession, EpisodeReport, StepRecord,
                                 apply_action, default_n_steps,
                                 default_sessions, observation_at, run_episode,
                                 session_at, validate_sessions)
from tests.conftest import make_obs

DATA = Path(__file__).parent / "data"


def reference_episode(trace, sessions, battery, policy, reward_cfg, start,
                      n_steps):
    """Per-step rollout that builds every record from ``observation_at``,
    ``apply_action`` and ``step_profit``; returns (records, totals), where
    ``totals`` maps each of the report's totals and counts to its value."""
    soc, current = UNPLUGGED_SOC, None
    records, profit, penalty, cost = [], 0.0, 0.0, 0.0
    clamp_events, deficits = 0, []
    violations_before = getattr(policy, "violation_counter", 0)
    for t in range(start, start + n_steps):
        session = session_at(sessions, t)
        if session is not None and session is not current:
            soc = session.arrival_soc
        current = session
        obs = observation_at(trace, session, soc, t, battery)
        power = raw = 0.0
        if session is not None:
            power = policy.decide(obs)
            raw = getattr(policy, "last_raw_kw", power)
            if not math.isfinite(raw):
                raw = power
        applied, soc_after, grid_import, grid_export = apply_action(
            obs, power, battery)
        if abs(applied - power) > CLAMP_EPS:
            clamp_events += 1
        reward = step_profit(grid_import, grid_export, obs.charge_price,
                             obs.discharge_price)
        records.append(StepRecord(
            observation=obs, requested_kw=raw, applied_kw=applied,
            soc_after=soc_after, grid_import_kwh=grid_import,
            grid_export_kwh=grid_export,
            step_cost=(obs.charge_price * grid_import
                       - obs.discharge_price * grid_export),
            step_reward=reward))
        profit += reward
        cost += records[-1].step_cost
        soc = soc_after
        if session is not None and t == session.departure_step - 1:
            penalty += departure_penalty(session, soc, reward_cfg)
            deficits.append((session, max(0.0, session.target_soc - soc)))
    total = profit + penalty
    if reward_cfg.mode == "normalized" and records:
        household = 0.0
        for r in records:
            household += r.observation.load_kw
        household_kwh = household * (STEP_MINUTES / 60.0)
        denom = max(r.observation.charge_price for r in records) * household_kwh
        if denom > 0:
            total = total / denom
    return records, {
        "total_reward": total, "total_cost": cost, "total_profit": profit,
        "total_penalty": penalty, "clamp_events": clamp_events,
        "soc_violations": (getattr(policy, "violation_counter", 0)
                           - violations_before),
        "departure_deficits": deficits}


COLUMNS = ("requested_kw", "applied_kw", "soc_after", "grid_import_kwh",
           "grid_export_kwh", "step_cost", "step_reward")


def assert_same_bits(report, records, totals):
    """Every column entry and total of ``report`` has the repr of the
    reference's, so a 0.0 against a -0.0 or a last-bit difference fails."""
    assert list(map(repr, report.soc)) == [repr(r.observation.soc)
                                           for r in records]
    for name in COLUMNS:
        assert list(map(repr, getattr(report, name))) == [
            repr(getattr(r, name)) for r in records], name
    assert {key: repr(getattr(report, key)) for key in totals} == {
        key: repr(value) for key, value in totals.items()}


REPORT_COLUMNS = ("step_sessions", "soc", *COLUMNS, "departure_deficits")


@st.composite
def longer_trace_cases(draw):
    """(seed, days, extra days, start, n_steps): a window that ends at least
    ``FORECAST_STEPS`` before a ``days``-day trace does, so its forecasts
    stay inside that trace."""
    days = draw(st.integers(2, 7))
    last = days * STEPS_PER_DAY - FORECAST_STEPS
    start = draw(st.integers(0, last - 1))
    return (draw(st.integers(0, 1000)), days, draw(st.integers(1, 3)), start,
            draw(st.integers(1, last - start)))


def seen_key(obs):
    """An observation a policy saw, bit for bit: its fields by repr, and the
    forecast by value (its repr holds 288 prices)."""
    return repr(obs._replace(forecast=None)), obs.forecast


class OddFloat(float):
    """A float whose repr is not a JSON number, as numpy's scalars have."""

    def __repr__(self):
        return f"OddFloat({float(self)!r})"


def reference_row(r):
    """The step-log row of one record."""
    o = r.observation
    return {"step": o.step_index, "charge_price": o.charge_price,
            "discharge_price": o.discharge_price, "soc": o.soc,
            "ttd_min": o.ttd_minutes, "load_kw": o.load_kw, "pv_kw": o.pv_kw,
            "plugged_in": o.plugged_in, "requested_kw": r.requested_kw,
            "applied_kw": r.applied_kw, "soc_after": r.soc_after,
            "grid_import_kwh": r.grid_import_kwh,
            "grid_export_kwh": r.grid_export_kwh, "step_cost": r.step_cost,
            "step_reward": r.step_reward}


# A NaN fails no range check written as ``x <= 0``: a NaN capacity idled
# the charger, an infinite limit applied 384 kW and a NaN coefficient made
# the total reward NaN.
@pytest.mark.parametrize("build, message", [
    (lambda: BatteryConfig(capacity_kwh=math.nan),
     "capacity_kwh must be finite, got nan"),
    (lambda: BatteryConfig(max_charge_kw=math.inf),
     "max_charge_kw must be finite, got inf"),
    (lambda: RewardConfig(deficit_penalty_coeff=math.nan),
     "deficit_penalty_coeff must be finite, got nan"),
    (lambda: BaselineConfig(peak_price_threshold=math.nan),
     "peak_price_threshold must be finite, got nan"),
    (lambda: validate_sessions([ConnectionSession(0, 10, math.nan)],
                               BatteryConfig()),
     "arrival_soc must be finite, got nan"),
], ids=["battery_capacity_nan", "battery_max_charge_inf", "reward_coeff_nan",
        "baseline_threshold_nan", "session_arrival_soc_nan"])
def test_a_non_finite_setting_is_refused(build, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        build()


class TestApplyAction:
    def test_charge_soc_update_matches_hand_calculation(self, battery):
        obs = make_obs(soc=0.50)
        applied, soc_after, imp, exp = apply_action(obs, 7.0, battery)
        # Independent spreadsheet-style calculation of the update rule.
        expected = 0.50 + 7.0 * (5 / 60) * 0.95 / 40.0
        assert applied == 7.0
        assert soc_after == pytest.approx(expected, abs=1e-12)
        assert soc_after == pytest.approx(0.5138541666666667, abs=1e-12)

    def test_discharge_blocked_at_floor(self, battery):
        obs = make_obs(soc=0.20)
        applied, soc_after, _, _ = apply_action(obs, -5.0, battery)
        assert applied == 0.0
        assert soc_after == 0.20

    def test_power_envelope_clamp(self, battery):
        obs = make_obs(soc=0.50)
        applied, _, _, _ = apply_action(obs, 10.0, battery)
        assert applied == 7.0

    def test_unplugged_forces_zero(self, battery):
        obs = make_obs(soc=0.50, plugged_in=False)
        applied, soc_after, _, _ = apply_action(obs, 7.0, battery)
        assert applied == 0.0
        assert soc_after == 0.50

    def test_discharge_offsets_load_then_exports(self, battery):
        obs = make_obs(soc=0.8, load_kw=1.0, pv_kw=0.0)
        applied, _, imp, exp = apply_action(obs, -5.0, battery)
        assert applied == -5.0
        # meter sees 1.0 - 5.0 = -4 kW for 5 min
        assert imp == 0.0
        assert exp == pytest.approx(4.0 * 5 / 60, abs=1e-12)

    @given(soc=st.floats(min_value=0.20, max_value=1.0),
           request_kw=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                st.floats(min_value=-1e6, max_value=1e6)),
           load=st.floats(min_value=0, max_value=5),
           pv=st.floats(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_energy_conservation(self, soc, request_kw, load, pv):
        battery = BatteryConfig()
        obs = make_obs(soc=soc, load_kw=load, pv_kw=pv)
        applied, soc_after, imp, exp = apply_action(obs, request_kw, battery)
        assert -7.0 <= applied <= 7.0
        assert battery.soc_min - 1e-9 <= soc_after <= battery.soc_max + 1e-9
        assert imp >= 0 and exp >= 0 and (imp == 0 or exp == 0)
        meter = imp - exp
        household = (load - pv) * (5 / 60)
        charger = applied * (5 / 60)
        assert meter == pytest.approx(household + charger, abs=1e-9)
        # monotone clamping
        if math.isfinite(request_kw):
            assert applied * request_kw >= 0
            assert abs(applied) <= abs(request_kw) + 1e-12


def trace_starting_at(start, days=2):
    n = days * 288
    return EnvTrace(start, [0.5] * n, [0.0] * n, [0.1] * n, [0.1] * n)


class TestDefaultSessions:
    def test_midnight_start_keeps_the_schedule(self):
        sessions = default_sessions(trace_starting_at(datetime(2024, 1, 1)))
        assert [(s.arrival_step, s.departure_step) for s in sessions] == \
            [(216, 378), (504, 576)]

    @pytest.mark.parametrize("start", [datetime(2024, 5, 1, 12),
                                       datetime(2024, 5, 1, 12, 2),
                                       datetime(2024, 5, 1, 19, 30)])
    def test_sessions_follow_the_trace_clock(self, start):
        trace = trace_starting_at(start, days=3)
        sessions = default_sessions(trace)
        for s in sessions:
            arrival = start + s.arrival_step * STEP
            assert arrival >= arrival.replace(hour=18, minute=0) > \
                arrival - STEP
            if s.departure_step < len(trace):
                departure = start + s.departure_step * STEP
                assert departure >= departure.replace(hour=7, minute=30) > \
                    departure - STEP
        # no session starts before the first 18:00 after the start
        assert start + sessions[0].arrival_step * STEP - start < \
            timedelta(days=1)
        assert sessions[0].arrival_soc == 0.5
        assert sessions[0].target_soc == 0.80

    def test_noon_start_arrives_at_six_in_the_evening(self):
        sessions = default_sessions(trace_starting_at(datetime(2024, 5, 1, 12)))
        assert (sessions[0].arrival_step, sessions[0].departure_step) == \
            (72, 234)


class TestObservationAt:
    def test_ttd_inside_session(self, battery, fixture_trace):
        sessions = [ConnectionSession(0, 34, 0.5)]
        obs = observation_at(fixture_trace, session_at(sessions, 10), 0.5, 10,
                             battery)
        assert obs.plugged_in
        assert obs.ttd_minutes == 24 * 5

    def test_outside_session(self, battery, fixture_trace):
        sessions = [ConnectionSession(10, 20, 0.5)]
        obs = observation_at(fixture_trace, session_at(sessions, 5), 0.5, 5,
                             battery)
        assert not obs.plugged_in
        assert obs.ttd_minutes == 0

    def test_last_step_of_session(self, battery, fixture_trace):
        sessions = [ConnectionSession(0, 10, 0.5)]
        obs = observation_at(fixture_trace, session_at(sessions, 9), 0.5, 9,
                             battery)
        assert obs.ttd_minutes == STEP_MINUTES

    def test_index_out_of_range(self, battery, fixture_trace):
        with pytest.raises(IndexError):
            observation_at(fixture_trace, None, 0.5, len(fixture_trace),
                           battery)

    def test_policy_cannot_change_what_the_physics_reads(self, battery,
                                                         fixture_trace):
        obs = observation_at(fixture_trace, ConnectionSession(0, 10, 0.5),
                             0.5, 3, battery)
        with pytest.raises(AttributeError):
            obs.soc = 0.9
        assert obs == observation_at(fixture_trace,
                                     ConnectionSession(0, 10, 0.5), 0.5, 3,
                                     battery)
        assert repr(obs).startswith("Observation(step_index=3, ")


def household_only_cost(trace, start, n):
    """Independent oracle: meter cost with the charger idle."""
    dt = STEP_MINUTES / 60
    total = 0.0
    window = slice(start, start + n)
    for load, pv, buy, sell in zip(trace.load_kw[window], trace.pv_kw[window],
                                   trace.buy_price[window],
                                   trace.sell_price[window]):
        total += max(0.0, load - pv) * dt * buy
        total -= max(0.0, pv - load) * dt * sell
    return total


class TestRunEpisode:
    def test_idle_policy_matches_household_oracle(self, battery, fixture_trace,
                                                  fixture_sessions):
        policy = make_policy("idle", battery)
        report = run_episode(fixture_trace, fixture_sessions, battery, policy,
                             RewardConfig(), 0, len(fixture_trace))
        oracle = household_only_cost(fixture_trace, 0, len(fixture_trace))
        assert report.total_cost == pytest.approx(oracle, abs=1e-9)
        assert report.cycle_count == 0

    def test_zero_steps_is_empty(self, battery, fixture_trace,
                                 fixture_sessions):
        policy = make_policy("idle", battery)
        report = run_episode(fixture_trace, fixture_sessions, battery, policy,
                             RewardConfig(), 0, 0)
        assert report.records == []
        assert report.total_reward == 0.0

    def test_determinism(self, battery, fixture_trace, fixture_sessions):
        reports = []
        for _ in range(2):
            policy = make_policy("baseline", battery)
            reports.append(run_episode(fixture_trace, fixture_sessions,
                                       battery, policy, RewardConfig(),
                                       0, len(fixture_trace)))
        a, b = reports
        assert a.total_reward == b.total_reward
        assert [r.applied_kw for r in a.records] == \
               [r.applied_kw for r in b.records]

    def test_window_validation(self, battery, fixture_trace, fixture_sessions):
        policy = make_policy("idle", battery)
        n = len(fixture_trace)
        # A start past the end gives the CLI's default n_steps = n - start.
        for start, n_steps in ((0, n + 1), (0, -3), (5000, n - 5000)):
            with pytest.raises(ConfigError):
                run_episode(fixture_trace, fixture_sessions, battery, policy,
                            RewardConfig(), start, n_steps)

    def test_default_window_is_default_n_steps(self, battery):
        # A 1-day trace is shorter than the 1500-step default episode.
        trace = synthetic_trace(days=1, seed=4)
        sessions = default_sessions(trace)
        default, explicit = (
            run_episode(trace, sessions, battery,
                        make_policy("baseline", battery), RewardConfig(),
                        0, *n_steps)
            for n_steps in ((), (default_n_steps(trace, 0),)))
        assert default.n_steps == len(trace)
        assert default.summary_dict() == explicit.summary_dict()
        assert default.applied_kw == explicit.applied_kw

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_session_index_matches_linear_lookup(self, fixture_trace, data):
        battery = BatteryConfig()
        n_trace = len(fixture_trace)
        soc = st.floats(min_value=battery.soc_min, max_value=battery.soc_max)
        sessions, step = [], data.draw(st.integers(0, 30))
        for gap, length in data.draw(st.lists(
                st.tuples(st.integers(0, 30), st.integers(1, 80)),
                max_size=6)):
            arrival = step + gap
            sessions.append(ConnectionSession(
                arrival, arrival + length, data.draw(soc),
                data.draw(soc.filter(lambda v: v > battery.soc_min))))
            step = arrival + length
        start = data.draw(st.integers(0, n_trace - 1))
        n_steps = data.draw(st.integers(0, n_trace - start))
        policy = NativePolicy(
            lambda obs: 7.0 if obs.step_index % 5 < 3 else -7.0)
        report = run_episode(fixture_trace, sessions, battery, policy,
                             RewardConfig(), start, n_steps)

        previous = None
        for r in report.records:
            obs = r.observation
            session = session_at(sessions, obs.step_index)
            reference = observation_at(fixture_trace, session, obs.soc,
                                       obs.step_index, battery)
            assert obs.plugged_in == reference.plugged_in
            assert obs.ttd_minutes == reference.ttd_minutes
            assert obs == reference
            if session is not None and session != previous:
                assert obs.soc == session.arrival_soc
            previous = session
        soc_after = {r.observation.step_index: r.soc_after
                     for r in report.records}
        departing = [s for s in sessions
                     if start <= s.departure_step - 1 < start + n_steps]
        assert report.departure_deficits == [
            (s, max(0.0, s.target_soc - soc_after[s.departure_step - 1]))
            for s in departing]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_columns_match_per_step_reference(self, data):
        # Sizes and efficiencies whose products round, so a re-associated
        # product shows in the last bit.
        battery = BatteryConfig(
            capacity_kwh=data.draw(st.sampled_from([40.0, 13.5, 75.0])),
            charge_eff=data.draw(st.sampled_from([0.95, 0.9])),
            discharge_eff=data.draw(st.sampled_from([0.95, 0.87])))
        trace = synthetic_trace(days=data.draw(st.integers(1, 3)),
                                seed=data.draw(st.integers(0, 1000)))
        # A block of balanced rows (load equal to PV, or a -0.0 load beside
        # no PV) runs the meter's sign-of-zero paths.
        load, pv = list(trace.load_kw), list(trace.pv_kw)
        lo = data.draw(st.integers(0, len(trace) - 1))
        hi = data.draw(st.integers(lo, min(lo + 300, len(trace))))
        negative_zero = data.draw(st.booleans())
        for i in range(lo, hi):
            if negative_zero:
                load[i], pv[i] = -0.0, 0.0
            else:
                pv[i] = load[i]
        trace = EnvTrace(trace.start, load, pv, trace.buy_price,
                         trace.sell_price)
        soc = st.floats(min_value=battery.soc_min, max_value=battery.soc_max)
        sessions, step = [], data.draw(st.integers(0, 100))
        for gap, length in data.draw(st.lists(
                st.tuples(st.integers(0, 150), st.integers(1, 300)),
                max_size=5)):
            arrival = step + gap
            if arrival >= len(trace):
                break
            sessions.append(ConnectionSession(
                arrival, min(arrival + length, len(trace)), data.draw(soc),
                data.draw(soc.filter(lambda v: v > battery.soc_min))))
            step = arrival + length
        start = data.draw(st.integers(0, len(trace) - 1))
        n_steps = data.draw(st.integers(0, len(trace) - start))
        guarded = data.draw(st.booleans())
        # Out-of-envelope and non-finite powers exercise the guardrail; an
        # unguarded policy gets finite ones, which apply_action clamps.
        power = (st.one_of(st.floats(-30, 30), st.sampled_from(
                     [0.0, -0.0, 7.0, -7.0, 1e6, -1e6, math.inf, -math.inf,
                      math.nan]))
                 if guarded else st.one_of(st.floats(-30, 30),
                                           st.sampled_from([0.0, -0.0])))
        palette = data.draw(st.lists(power, min_size=1, max_size=8))

        def make(seen):
            def decide(obs):
                seen.append(seen_key(obs))
                return palette[obs.step_index % len(palette)]
            inner = NativePolicy(decide)
            return GuardrailPolicy(inner, battery) if guarded else inner

        for mode in ("raw", "normalized"):
            reward_cfg = RewardConfig(mode=mode)
            seen, reference_seen = [], []
            report = run_episode(trace, sessions, battery, make(seen),
                                 reward_cfg, start, n_steps)
            records, totals = reference_episode(
                trace, sessions, battery, make(reference_seen), reward_cfg,
                start, n_steps)
            assert seen == reference_seen
            assert_same_bits(report, records, totals)
            assert len(report.records) == n_steps
            assert list(report.records) == records
            assert list(report.step_rows()) == [reference_row(r)
                                                 for r in records]
        if records:
            assert report.records[-1] == records[-1]
            assert report.records[1::2] == records[1::2]

    @pytest.mark.parametrize("policy", ["baseline", "bang-bang"])
    def test_60_day_rollout_matches_reference(self, battery, policy):
        """A long trace follows the one-step reference as bit for bit as a
        short one does. Swings of 40 steps at 5 kW plus the load drive a
        small battery into both bounds from ever new values, so the clamps
        to the power limits, the floor and the ceiling all run."""
        if policy == "bang-bang":
            battery = BatteryConfig(capacity_kwh=13.5, charge_eff=0.9,
                                    discharge_eff=0.87)

        def make():
            if policy == "baseline":
                return make_policy("baseline", battery)
            return NativePolicy(lambda obs: (5.0 + obs.load_kw) * (
                -1.0 if obs.step_index // 40 % 2 else 1.0))

        trace = synthetic_trace(days=60, seed=5)
        sessions = default_sessions(trace)
        report = run_episode(trace, sessions, battery, make(), RewardConfig(),
                             0, len(trace))
        records, totals = reference_episode(trace, sessions, battery, make(),
                                            RewardConfig(), 0, len(trace))
        assert report.n_steps == len(records) == 60 * 288
        assert_same_bits(report, records, totals)
        assert len(report.departure_deficits) == 60

    def test_zeros_are_written_as_positive_zeros(self, battery, tmp_path):
        """Balanced rows (PV equal to load, then a -0.0 load beside no PV),
        away and plugged in, with the battery held at its floor by
        discharge requests, at non-negative prices: every zero in the
        columns and the step log is 0.0, never -0.0."""
        trace = synthetic_trace(days=1, seed=4)
        load = list(trace.load_kw[:144]) + [-0.0] * 144
        pv = load[:144] + [0.0] * 144
        trace = EnvTrace(trace.start, load, pv, trace.buy_price,
                         trace.sell_price)
        sessions = [ConnectionSession(100, 200, battery.soc_min)]
        # Unguarded: the guardrail would turn the request into 0.0 itself.
        policy = NativePolicy(lambda obs: -7.0)
        report = run_episode(trace, sessions, battery, policy, RewardConfig(),
                             0, len(trace))
        zeros = ("applied_kw", "grid_import_kwh", "grid_export_kwh",
                 "step_cost", "step_reward")
        for name in zeros:
            assert list(map(repr, getattr(report, name))) == \
                ["0.0"] * len(trace), name
        records, totals = reference_episode(trace, sessions, battery, policy,
                                            RewardConfig(), 0, len(trace))
        assert_same_bits(report, records, totals)
        report.write_step_log(tmp_path / "steps.jsonl")
        with open(tmp_path / "steps.jsonl") as fh:
            rows = [json.loads(line) for line in fh]
        assert [[repr(row[name]) for name in zeros] for row in rows] == \
            [["0.0"] * len(zeros)] * len(trace)

    def test_balanced_step_at_a_negative_sell_price_earns_0(self, battery,
                                                            tmp_path):
        """A negative sell price times no export is -0.0, and so is a
        negative buy price times no import; the step's reward and cost are
        written 0.0, and the total cost is 0.0."""
        load = [0.5, 1.0, 0.0, 2.0]
        sessions = [ConnectionSession(1, 3, 0.5)]
        for buy, sell in ((0.2, -0.05), (-0.05, 0.02)):
            assert repr(step_profit(0.0, 0.0, buy, sell)) == "0.0"
            trace = EnvTrace(datetime(2024, 1, 1), load, load, [buy] * 4,
                             [sell] * 4)
            report = run_episode(trace, sessions, battery,
                                 NativePolicy(lambda obs: 0.0),
                                 RewardConfig(), 0, len(trace))
            report.write_step_log(tmp_path / "steps.jsonl")
            with open(tmp_path / "steps.jsonl") as fh:
                rows = [json.loads(line) for line in fh]
            for name in ("step_cost", "step_reward"):
                assert list(map(repr, getattr(report, name))) == \
                    ["0.0"] * 4, (buy, name)
                assert [repr(row[name]) for row in rows] == ["0.0"] * 4, \
                    (buy, name)
            assert repr(report.total_cost) == "0.0", buy

    @pytest.mark.parametrize("k", [300, 301, 377, 504, 575])
    def test_fault_names_its_trace_step_in_a_mid_session_window(self, battery,
                                                                k):
        # Sessions 216-378 and 504-576; the window starts mid-session.
        trace = synthetic_trace(days=2, seed=2)
        sessions = default_sessions(trace)
        seen = []

        def decide(obs):
            seen.append(obs.step_index)
            if obs.step_index == k:
                raise PolicyFault("candidate died", step_index=0)
            return 1.0

        with pytest.raises(PolicyFault) as info:
            run_episode(trace, sessions, battery, NativePolicy(decide),
                        RewardConfig(), 300, len(trace) - 300)
        assert info.value.step_index == k
        assert seen[0] == 300 and seen[-1] == k

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_step_log_lines_match_the_encoder(self, tmp_path_factory, data):
        battery = BatteryConfig(max_charge_kw=data.draw(st.sampled_from([7.0,
                                                                         7])))
        trace = synthetic_trace(days=1, seed=data.draw(st.integers(0, 1000)))
        columns = (trace.load_kw, trace.pv_kw, trace.buy_price,
                   trace.sell_price)
        values = data.draw(st.sampled_from(["float", "int", "float subclass"]))
        if values == "int":  # integer prices
            prices = [round(10 * p) for p in trace.buy_price]
            trace = EnvTrace(trace.start, trace.load_kw, trace.pv_kw, prices,
                             [p // 2 for p in prices])
        elif values == "float subclass":
            trace = EnvTrace(trace.start, *([OddFloat(v) for v in column]
                                            for column in columns))
        soc = st.one_of(st.floats(battery.soc_min, battery.soc_max),
                        st.just(1))
        sessions, step = [], data.draw(st.integers(0, 100))
        for gap, length in data.draw(st.lists(
                st.tuples(st.integers(0, 60), st.integers(1, 120)),
                max_size=4)):
            arrival = step + gap
            if arrival >= len(trace):
                break
            sessions.append(ConnectionSession(
                arrival, min(arrival + length, len(trace)), data.draw(soc)))
            step = arrival + length
        start = data.draw(st.integers(0, len(trace) - 1))
        n_steps = data.draw(st.integers(0, len(trace) - start))
        # Unguarded, the non-finite powers reach the requested_kw column.
        palette = data.draw(st.lists(st.one_of(
            st.floats(-30, 30), st.sampled_from(
                [0.0, 7.0, -7.0, 1e6, -1e6, math.inf, -math.inf, math.nan])),
            min_size=1, max_size=8))
        policy = NativePolicy(lambda obs: palette[obs.step_index % len(palette)])
        if data.draw(st.booleans()):
            # The guardrail sees the inner decision as it is returned.
            policy.decide = lambda obs: OddFloat(
                palette[obs.step_index % len(palette)])
            policy = GuardrailPolicy(policy, battery)
        report = run_episode(trace, sessions, battery, policy, RewardConfig(),
                             start, n_steps)
        path = tmp_path_factory.mktemp("log") / "steps.jsonl"
        report.write_step_log(path)
        encode = json.JSONEncoder(sort_keys=True).encode
        with open(path) as fh:
            lines = fh.readlines()
        assert lines == [encode(row) + "\n" for row in report.step_rows()]

    def test_step_log_text_is_exact_where_no_soc_object_repeats(
            self, tmp_path, battery):
        """The writer reuses a SoC's text only for the same object, and a
        cost's only from a float reward: equal SoCs in distinct objects, an
        int SoC beside a float one, signed zeros and int rewards are each
        written as the encoder writes them."""
        chain = ["1", "1.0", "1.0", "1", "-0.0", "0.0", "0.0", "-0.0",
                 "0.5", "0.5", "0.5", "0.5", "0.5", "0.75", "0.75", "0.75"]
        # Each step's soc, then its soc_after, each a new object.
        values = [float(text) if "." in text else int(text) for text in chain]
        assert all(a is not b for a, b in zip(values, values[1:]))
        soc, soc_after = values[0::2], values[1::2]
        rewards = [0.0, -0.0, -1.5, 2.25, 0, 3, -1e-7, math.nan]
        n = len(soc)
        sessions = [None, *[ConnectionSession(1, n, 1)] * (n - 1)]
        zeros = [0.0] * n
        report = EpisodeReport(
            trace=synthetic_trace(days=1, seed=0), battery=battery,
            step_sessions=sessions, requested_kw=zeros, applied_kw=zeros,
            soc=soc, soc_after=soc_after, grid_import_kwh=zeros,
            grid_export_kwh=zeros, step_reward=rewards, total_reward=0.0,
            total_profit=0.0, total_penalty=0.0, soc_violations=0,
            clamp_events=0, cycle_count=0, flicker_count=0,
            action_distribution={}, departure_deficits=[], start_step=0,
            n_steps=n)
        path = tmp_path / "steps.jsonl"
        report.write_step_log(path)
        lines = path.read_text().splitlines()
        encode = json.JSONEncoder(sort_keys=True).encode
        # A NaN reward is not a JSON number; its line is checked apart.
        assert lines[:-1] == [encode(row) for row in report.step_rows()][:-1]
        rows = [json.loads(line) for line in lines[:-1]]
        assert [repr(row[key]) for row in rows
                for key in ("soc", "soc_after")] == chain[:-2]
        assert [repr(row["step_cost"]) for row in rows] == [
            "0.0", "0.0", "1.5", "-2.25", "0.0", "-3.0", "1e-07"]
        assert lines[-1].endswith('"soc": 0.75, "soc_after": 0.75, '
                                  '"step": 7, "step_cost": nan, '
                                  '"step_reward": nan, "ttd_min": 5.0}')

    def test_step_log_writer_streams(self, tmp_path):
        """Writing a 60-day log holds a few lines of text at a time, not a
        column of it: a column of 17,280 numbers' text is over 1 MB."""
        trace = synthetic_trace(days=60, seed=3)
        battery = BatteryConfig()
        report = run_episode(trace, default_sessions(trace), battery,
                             make_policy("baseline", battery), RewardConfig(),
                             0, len(trace))
        path = tmp_path / "steps.jsonl"
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            report.write_step_log(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_text().count("\n") == len(trace)
        assert peak - before < 200_000

    def test_episode_retains_under_250_bytes_per_step(self, battery):
        """Columns, not per-step objects: unplugged steps build nothing."""
        trace = synthetic_trace(days=60, seed=3)
        trace.forecast_column  # built once per trace, not per episode
        sessions = default_sessions(trace)
        policy = make_policy("baseline", battery)
        gc.collect()
        tracemalloc.start()
        try:
            report = run_episode(trace, sessions, battery, policy,
                                 RewardConfig(), 0, len(trace))
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.n_steps == len(trace)
        assert retained / len(trace) < 250

    def test_rollout_memory_stays_small(self, battery):
        """Records must not pin a copy of the forecast per step."""
        trace = synthetic_trace(days=30, seed=0)
        policy = make_policy("baseline", battery)
        tracemalloc.start()
        try:
            report = run_episode(trace, default_sessions(trace), battery,
                                 policy, RewardConfig(), 0, len(trace))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.records) == len(trace)
        assert peak < 10_000_000

    def test_soc_never_leaves_bounds_for_greedy_policy(self, battery,
                                                       fixture_trace,
                                                       fixture_sessions):
        from evpolicy.runtime import GuardrailPolicy, NativePolicy
        greedy = GuardrailPolicy(NativePolicy(lambda obs: 1e6), battery)
        report = run_episode(fixture_trace, fixture_sessions, battery, greedy,
                             RewardConfig(), 0, len(fixture_trace))
        for r in report.records:
            assert battery.soc_min - 1e-9 <= r.soc_after <= battery.soc_max + 1e-9

    def test_normalized_mode_scales_with_prices(self, battery, fixture_trace,
                                                fixture_sessions):
        policy = make_policy("idle", battery)
        raw = run_episode(fixture_trace, fixture_sessions, battery, policy,
                          RewardConfig(mode="raw"), 0, 288)
        norm = run_episode(fixture_trace, fixture_sessions, battery, policy,
                           RewardConfig(mode="normalized"), 0, 288)
        dt = STEP_MINUTES / 60
        peak = max(r.observation.charge_price for r in raw.records)
        kwh = sum(r.observation.load_kw for r in raw.records) * dt
        assert norm.total_reward == pytest.approx(raw.total_reward / (peak * kwh),
                                                  abs=1e-12)

    def test_normalized_load_is_added_left_to_right(self, battery):
        # Added left to right, 1.0 and then 1e-16s stay exactly 1.0; sum()
        # compensates its rounding since Python 3.12 and gives more.
        n = 288
        trace = EnvTrace(datetime(2024, 1, 1), [1.0] + [1e-16] * (n - 1),
                         [0.0] * n, [0.2] * n, [0.1] * n)
        policy = make_policy("idle", battery)
        raw = run_episode(trace, [], battery, policy, RewardConfig(), 0, n)
        norm = run_episode(trace, [], battery, policy,
                           RewardConfig(mode="normalized"), 0, n)
        assert norm.total_reward == raw.total_reward / (0.2 * STEP_HOURS)

    # The windows of a hand check on 7- and 9-day traces, seed 3.
    @given(case=longer_trace_cases())
    @example(case=(3, 7, 2, 0, 1500))
    @example(case=(3, 7, 2, 100, 1500))
    @example(case=(3, 7, 2, 0, 1728))
    @example(case=(3, 7, 2, 500, 10))
    @settings(max_examples=15, deadline=None)
    def test_a_window_does_not_see_how_long_the_trace_runs_on(self, case):
        seed, days, extra_days, start, n_steps = case
        battery = BatteryConfig()
        longer = synthetic_trace(days=days + extra_days, seed=seed)
        n = days * STEPS_PER_DAY
        trace = EnvTrace(longer.start, longer.load_kw[:n], longer.pv_kw[:n],
                         longer.buy_price[:n], longer.sell_price[:n])
        assert trace == synthetic_trace(days=days, seed=seed)
        sessions = default_sessions(trace)
        for spec in ("baseline", str(DATA / "fc_aggregates.rules")):
            for mode in ("raw", "normalized"):
                short, long = (
                    run_episode(t, sessions, battery, make_policy(spec, battery),
                                RewardConfig(mode=mode), start, n_steps)
                    for t in (trace, longer))
                assert short.summary_dict() == long.summary_dict()
                for name in REPORT_COLUMNS:
                    assert getattr(short, name) == getattr(long, name), name


class TestGoldenBaseline:
    def test_baseline_on_fixture_matches_golden_summary(self, battery):
        golden_path = DATA / "golden_baseline_summary.json"
        trace_path = DATA / "fixture_trace.csv"
        from evpolicy.market import load_trace
        trace = load_trace(trace_path)
        sessions = default_sessions(trace)
        policy = make_policy("baseline", battery)
        report = run_episode(trace, sessions, battery, policy, RewardConfig(),
                             0, len(trace))
        golden = json.loads(golden_path.read_text())
        got = report.summary_dict()
        assert got == golden

import gc
import json
import math
import tracemalloc
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpolicy.errors import ConfigError
from evpolicy.market import STEP, STEP_MINUTES, EnvTrace, synthetic_trace
from evpolicy.rewards import RewardConfig, departure_penalty, step_profit
from evpolicy.runtime import GuardrailPolicy, NativePolicy, make_policy
from evpolicy.simulation import (UNPLUGGED_SOC, BatteryConfig,
                                 ConnectionSession, StepRecord, apply_action,
                                 default_n_steps, default_sessions,
                                 observation_at, run_episode, session_at)
from tests.conftest import make_obs

DATA = Path(__file__).parent / "data"


def reference_episode(trace, sessions, battery, policy, reward_cfg, start,
                      n_steps):
    """Per-step rollout that builds every record from ``observation_at``,
    ``apply_action`` and ``step_profit``; returns (records, total_reward)."""
    soc, current = UNPLUGGED_SOC, None
    records, profit, penalty = [], 0.0, 0.0
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
        soc = soc_after
        if session is not None and t == session.departure_step - 1:
            penalty += departure_penalty(session, soc, reward_cfg)
    total = profit + penalty
    if reward_cfg.mode == "normalized" and records:
        household_kwh = (sum(r.observation.load_kw for r in records)
                         * (STEP_MINUTES / 60.0))
        denom = max(r.observation.charge_price for r in records) * household_kwh
        if denom > 0:
            total = total / denom
    return records, total


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
        battery = BatteryConfig()
        trace = synthetic_trace(days=data.draw(st.integers(1, 3)),
                                seed=data.draw(st.integers(0, 1000)))
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
                     [0.0, 7.0, -7.0, 1e6, -1e6, math.inf, -math.inf,
                      math.nan]))
                 if guarded else st.floats(-30, 30))
        palette = data.draw(st.lists(power, min_size=1, max_size=8))

        def make():
            inner = NativePolicy(
                lambda obs: palette[obs.step_index % len(palette)])
            return GuardrailPolicy(inner, battery) if guarded else inner

        for mode in ("raw", "normalized"):
            reward_cfg = RewardConfig(mode=mode)
            report = run_episode(trace, sessions, battery, make(), reward_cfg,
                                 start, n_steps)
            records, total = reference_episode(trace, sessions, battery,
                                               make(), reward_cfg, start,
                                               n_steps)
            assert report.total_reward == total
            assert len(report.records) == n_steps
            assert list(report.records) == records
            assert list(report.step_rows()) == [reference_row(r)
                                                 for r in records]
        if records:
            assert report.records[-1] == records[-1]
            assert report.records[1::2] == records[1::2]

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

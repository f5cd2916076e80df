import json
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpolicy.errors import ConfigError
from evpolicy.market import synthetic_trace
from evpolicy.rewards import RewardConfig
from evpolicy.runtime import NativePolicy, make_policy
from evpolicy.simulation import (BatteryConfig, ConnectionSession,
                                 apply_action, default_sessions,
                                 observation_at, run_episode, session_at)
from tests.conftest import make_obs

DATA = Path(__file__).parent / "data"


class TestApplyAction:
    def test_charge_soc_update_matches_hand_calculation(self, battery):
        obs = make_obs(soc=0.50)
        applied, soc_after, imp, exp = apply_action(obs, 7.0, battery, 5)
        # Independent spreadsheet-style calculation of the update rule.
        expected = 0.50 + 7.0 * (5 / 60) * 0.95 / 40.0
        assert applied == 7.0
        assert soc_after == pytest.approx(expected, abs=1e-12)
        assert soc_after == pytest.approx(0.5138541666666667, abs=1e-12)

    def test_discharge_blocked_at_floor(self, battery):
        obs = make_obs(soc=0.20)
        applied, soc_after, _, _ = apply_action(obs, -5.0, battery, 5)
        assert applied == 0.0
        assert soc_after == 0.20

    def test_power_envelope_clamp(self, battery):
        obs = make_obs(soc=0.50)
        applied, _, _, _ = apply_action(obs, 10.0, battery, 5)
        assert applied == 7.0

    def test_unplugged_forces_zero(self, battery):
        obs = make_obs(soc=0.50, plugged_in=False)
        applied, soc_after, _, _ = apply_action(obs, 7.0, battery, 5)
        assert applied == 0.0
        assert soc_after == 0.50

    def test_discharge_offsets_load_then_exports(self, battery):
        obs = make_obs(soc=0.8, load_kw=1.0, pv_kw=0.0)
        applied, _, imp, exp = apply_action(obs, -5.0, battery, 5)
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
        applied, soc_after, imp, exp = apply_action(obs, request_kw, battery, 5)
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


class TestObservationAt:
    def test_ttd_inside_session(self, battery, fixture_trace):
        sessions = [ConnectionSession(0, 34, 0.5)]
        obs = observation_at(fixture_trace, sessions, 0.5, 10, battery)
        assert obs.plugged_in
        assert obs.ttd_minutes == 24 * 5

    def test_outside_session(self, battery, fixture_trace):
        sessions = [ConnectionSession(10, 20, 0.5)]
        obs = observation_at(fixture_trace, sessions, 0.5, 5, battery)
        assert not obs.plugged_in
        assert obs.ttd_minutes == 0

    def test_last_step_of_session(self, battery, fixture_trace):
        sessions = [ConnectionSession(0, 10, 0.5)]
        obs = observation_at(fixture_trace, sessions, 0.5, 9, battery)
        assert obs.ttd_minutes == fixture_trace.step_minutes

    def test_index_out_of_range(self, battery, fixture_trace):
        with pytest.raises(IndexError):
            observation_at(fixture_trace, [], 0.5, len(fixture_trace), battery)


def household_only_cost(trace, start, n):
    """Independent oracle: meter cost with the charger idle."""
    dt = trace.step_minutes / 60
    total = 0.0
    for p in trace.points[start:start + n]:
        total += max(0.0, p.load_kw - p.pv_kw) * dt * p.buy_price
        total -= max(0.0, p.pv_kw - p.load_kw) * dt * p.sell_price
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
            policy = make_policy("baseline", battery,
                                 options={"step_minutes": 5})
            reports.append(run_episode(fixture_trace, fixture_sessions,
                                       battery, policy, RewardConfig(),
                                       0, len(fixture_trace)))
        a, b = reports
        assert a.total_reward == b.total_reward
        assert [r.applied_kw for r in a.records] == \
               [r.applied_kw for r in b.records]

    def test_window_validation(self, battery, fixture_trace, fixture_sessions):
        policy = make_policy("idle", battery)
        with pytest.raises(ConfigError):
            run_episode(fixture_trace, fixture_sessions, battery, policy,
                        RewardConfig(), 0, len(fixture_trace) + 1)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_one_rejected_before_first_step(
            self, battery, fixture_trace, fixture_sessions, horizon):
        seen = []
        policy = NativePolicy(
            lambda obs: seen.append(obs) or max(obs.forecast.values))
        with pytest.raises(ConfigError):
            run_episode(fixture_trace, fixture_sessions, battery, policy,
                        RewardConfig(), 0, len(fixture_trace),
                        horizon_steps=horizon)
        assert seen == []

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
                             RewardConfig(), start, n_steps, horizon_steps=12)

        previous = None
        for r in report.records:
            obs = r.observation
            reference = observation_at(fixture_trace, sessions, obs.soc,
                                       obs.step_index, battery, 12)
            assert obs.plugged_in == reference.plugged_in
            assert obs.ttd_minutes == reference.ttd_minutes
            assert obs == reference
            session = session_at(sessions, obs.step_index)
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

    def test_rollout_memory_stays_small(self, battery):
        """Records must not pin a copy of the forecast per step."""
        trace = synthetic_trace(days=30, seed=0)
        policy = make_policy("baseline", battery, options={"step_minutes": 5})
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
        dt = fixture_trace.step_minutes / 60
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
        policy = make_policy("baseline", battery, options={"step_minutes": 5})
        report = run_episode(trace, sessions, battery, policy, RewardConfig(),
                             0, len(trace))
        golden = json.loads(golden_path.read_text())
        got = report.summary_dict()
        assert got == golden

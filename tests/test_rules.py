import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpolicy.errors import RuleParseError
from evpolicy.market import PriceForecast
from evpolicy.rules import (evaluate_rules, parse_rule_script,
                            script_to_source)
from evpolicy.runtime import RuleScriptPolicy
from tests.conftest import make_obs

PEAK_SCRIPT = "if discharge_price >= 0.35 and soc > 0.20 then -max_discharge_kw"


class TestParser:
    def test_single_rule_script(self):
        script = parse_rule_script(PEAK_SCRIPT)
        assert len(script.rules) == 1

    def test_empty_source_is_implicit_idle(self):
        script = parse_rule_script("")
        assert script.rules == ()
        assert evaluate_rules(script, make_obs()) == 0.0

    def test_unknown_identifier_names_it(self):
        with pytest.raises(RuleParseError, match="foo"):
            parse_rule_script("if soc > foo then 1")

    def test_unknown_function(self):
        with pytest.raises(RuleParseError, match="sqrt"):
            parse_rule_script("if soc > 0.5 then sqrt(2)")

    def test_type_mismatch_bool_in_arithmetic(self):
        with pytest.raises(RuleParseError):
            parse_rule_script("if soc > (pv_kw > 1) then 1")

    def test_type_mismatch_number_condition(self):
        with pytest.raises(RuleParseError):
            parse_rule_script("if soc then 1")

    def test_error_carries_line_and_column(self):
        with pytest.raises(RuleParseError) as err:
            parse_rule_script("if soc > 0.5 then 1\nif soc > bar then 2")
        assert err.value.line == 2
        assert err.value.token == "bar"

    def test_comments_and_multiline(self):
        script = parse_rule_script(
            "# discharge at peak\n"
            "if discharge_price >= 0.35 then -7\n"
            "if charge_price <= 0.10 then min(max_charge_kw, 5)\n")
        assert len(script.rules) == 2


class TestEvaluation:
    def test_peak_rule_fires(self):
        script = parse_rule_script(PEAK_SCRIPT)
        obs = make_obs(charge_price=0.40, discharge_price=0.40, soc=0.8)
        assert evaluate_rules(script, obs) == -7.0

    def test_implicit_idle_rule(self):
        script = parse_rule_script(PEAK_SCRIPT)
        obs = make_obs(charge_price=0.30, discharge_price=0.30, soc=0.8)
        assert evaluate_rules(script, obs) == 0.0

    def test_first_matching_rule_wins(self):
        script = parse_rule_script(
            "if soc > 0.1 then 1\nif soc > 0.1 then 2")
        assert evaluate_rules(script, make_obs(soc=0.5)) == 1.0

    def test_forecast_aggregate_on_constant_series(self):
        script = parse_rule_script(
            "if fc_max(288) > 2 * charge_price then 7\n"
            "if soc > 0 then 1")
        fc = PriceForecast(horizon_steps=288, values=(0.2,) * 288)
        obs = make_obs(charge_price=0.2, forecast=fc)
        assert evaluate_rules(script, obs) == 1.0

    def test_forecast_mean_and_min(self):
        fc = PriceForecast(horizon_steps=4, values=(0.1, 0.2, 0.3, 0.4))
        obs = make_obs(forecast=fc)
        script = parse_rule_script("if fc_mean(4) >= 0.25 then fc_min(2)")
        assert evaluate_rules(script, obs) == pytest.approx(0.1)

    def test_division_by_zero_faults_to_idle(self):
        script = parse_rule_script("if soc > 0 then 1 / pv_kw")
        faults = []
        obs = make_obs(pv_kw=0.0)
        assert evaluate_rules(script, obs, fault_log=faults) == 0.0
        assert faults and "division by zero" in faults[0]

    @pytest.mark.parametrize("horizon", [
        "9" * 400,                       # parses to inf
        "9" * 400 + " - " + "9" * 400,   # inf - inf is NaN
    ], ids=["inf", "nan"])
    def test_non_finite_horizon_faults_to_idle(self, horizon):
        policy = RuleScriptPolicy(f"if soc > 0 then fc_max({horizon})")
        assert policy.decide(make_obs(step_index=7)) == 0.0
        assert len(policy.fault_log) == 1
        assert policy.fault_log[0].startswith(
            "step 7: non-finite forecast horizon")

    def test_horizon_below_one_keeps_its_message(self):
        faults = []
        script = parse_rule_script("if soc > 0 then fc_max(0.2)")
        assert evaluate_rules(script, make_obs(), fault_log=faults) == 0.0
        assert faults == ["step 0: forecast horizon 0 < 1"]

    def test_ttd_maps_to_minutes(self):
        script = parse_rule_script("if ttd <= 60 then max_charge_kw")
        assert evaluate_rules(script, make_obs(ttd_minutes=30.0)) == 7.0
        assert evaluate_rules(script, make_obs(ttd_minutes=120.0)) == 0.0

    @given(soc=st.floats(min_value=0, max_value=1),
           price=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_pure_function_of_inputs(self, soc, price):
        script = parse_rule_script(
            "if charge_price <= 0.12 and soc < 0.8 then max_charge_kw\n"
            "if discharge_price >= 0.35 and soc > 0.25 then -max_discharge_kw")
        obs = make_obs(charge_price=price, discharge_price=price, soc=soc)
        assert evaluate_rules(script, obs) == evaluate_rules(script, obs)


ROUND_TRIP_SOURCES = [
    PEAK_SCRIPT,
    "",
    "if not (soc > 0.5) or pv_kw - load_kw > 1 then min(pv_kw - load_kw, 7)",
    "if fc_max(72) >= 2 * charge_price and soc < 0.9 then max_charge_kw\n"
    "if discharge_price >= 0.45 then -(max_discharge_kw / 2)",
    "if ttd / 60 < 2 and soc < 0.8 then 3.5\nif soc > 0.95 then -1",
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_pretty_print_reparses_identically(self, source):
        script = parse_rule_script(source)
        printed = script_to_source(script)
        assert parse_rule_script(printed) == script

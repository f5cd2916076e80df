import ast
import gc
import math
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evpolicy import rules
from evpolicy.errors import RuleParseError
from evpolicy.market import PriceForecast, synthetic_trace
from evpolicy.rewards import RewardConfig
from evpolicy.rules import (FORECAST_FUNCS, MAX_RULE_DEPTH, MAX_RULE_NESTING,
                            OBSERVATION_FIELDS, evaluate_rules,
                            evaluate_rules_reference, parse_rule_script)
from evpolicy.runtime import PolicyHandle, RuleScriptPolicy
from evpolicy.simulation import BatteryConfig, default_sessions, run_episode
from tests.conftest import make_obs

FC_RULES = Path(__file__).parent / "data" / "fc_aggregates.rules"

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

    @pytest.mark.parametrize("source, column", [
        ("if soc > \u00b2 then 1", 10),  # a superscript two
        ("if soc > 1\u00b2 then 1", 11),
        ("if soc > .\u00b2 then 1", 10),
    ], ids=["alone", "after_a_digit", "after_a_point"])
    def test_non_decimal_digit_is_a_parse_error(self, source, column):
        # '\u00b2'.isdigit() holds, but float() cannot read it.
        with pytest.raises(RuleParseError) as err:
            parse_rule_script(source)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("source, column, message", [
        ("if soc > 1.2.3 then 1", 10, "malformed number '1.2.3'"),
        ("if soc > 1 1", 12, "expected 'then', found '1'"),
        ("if fc_max(1, 2) > 0 then 1", 4, "fc_max takes 1 argument(s)"),
        ("if min(1) > 0 then 1", 4, "min takes 2 argument(s)"),
        ("if fc_max(soc > 1) > 0 then 1", 4,
         "fc_max needs numeric arguments"),
        ("if soc > ) then 1", 10, "unexpected token ')'"),
        ("if -(soc > 1) then 1", 15, "unary '-' needs a numeric operand"),
        ("if not soc then 1", 12, "'not' needs a boolean operand"),
    ], ids=["two_points", "missing_then", "fc_max_arity", "min_arity",
            "boolean_argument", "stray_paren", "negated_boolean",
            "not_a_number"])
    def test_parse_error_names_its_position(self, source, column, message):
        with pytest.raises(RuleParseError) as err:
            parse_rule_script(source)
        assert (err.value.line, err.value.column) == (1, column)
        assert str(err.value) == f"line 1, col {column}: {message}"

    def test_comments_and_multiline(self):
        script = parse_rule_script(
            "# discharge at peak\n"
            "if discharge_price >= 0.35 then -7\n"
            "if charge_price <= 0.10 then min(max_charge_kw, 5)\n")
        assert len(script.rules) == 2
        # Newlines are whitespace, and ';' may stand before and after rules.
        for source in (
                "if discharge_price >= 0.35 then -7 "
                "if charge_price <= 0.10 then min(max_charge_kw, 5)",
                ";;if discharge_price >= 0.35 then -7;"
                "if charge_price <= 0.10 then min(max_charge_kw, 5);",
                "if discharge_price\n>= 0.35 then\n-7 ;\n; if charge_price "
                "<= 0.10\nthen min(max_charge_kw,\n5)"):
            assert parse_rule_script(source) == script


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
        fc = PriceForecast((0.2,) * 288)
        obs = make_obs(charge_price=0.2, forecast=fc)
        assert evaluate_rules(script, obs) == 1.0

    def test_forecast_mean_and_min(self):
        fc = PriceForecast((0.1, 0.2, 0.3, 0.4))
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

    @pytest.mark.parametrize("evaluate", [evaluate_rules,
                                          evaluate_rules_reference])
    def test_non_finite_action_faults_to_idle(self, evaluate):
        script = parse_rule_script("if soc > 0 then 1" + "0" * 400)  # inf
        faults = []
        assert evaluate(script, make_obs(step_index=3), fault_log=faults) == 0.0
        assert faults == ["step 3: non-finite action value inf"]

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


# Number literals as the tokenizer reads them: plain digits, any length.
LITERALS = st.one_of(
    st.integers(0, 10**40).map(str),                   # whole, up to huge
    st.tuples(st.integers(0, 10**20), st.integers(0, 330)).map(
        lambda t: f"0.{'0' * t[1]}{t[0]}"),            # tiny and subnormal
    st.integers(300, 420).map(lambda n: "9" * n),      # finite or inf
)


class TestLiterals:
    @given(a=LITERALS, b=LITERALS, c=LITERALS)
    @example(a="0.00001", b="12345678901234567890", c="9" * 400)
    @example(a="0." + "0" * 323 + "5", b="9" * 308, c="1" + "0" * 308)
    @settings(max_examples=200, deadline=None)
    def test_every_literal_parses_to_its_float(self, a, b, c):
        [first, second] = parse_rule_script(
            f"if soc > {a} then {b} + fc_max({c})\n"
            f"if ttd < {c} then -{a}").rules
        numbers = [first.condition.right, first.action.left,
                   first.action.right.args[0], second.condition.right,
                   second.action.operand]
        assert [n.value for n in numbers] == [float(literal)
                                              for literal in (a, b, c, c, a)]


def chain(n_terms: int) -> str:
    """A script whose action is ``0.001 + 0.001 + ...``: depth ``n_terms``."""
    return "if soc > 0 then " + " + ".join(["0.001"] * n_terms)


def calls_and_parentheses() -> str:
    """Every nesting level a '(' or a call, with as many calls as the depth
    allows: the accepted script that takes the most frames to parse."""
    calls = MAX_RULE_DEPTH - 1  # with the leaf, a path of MAX_RULE_DEPTH
    parens = MAX_RULE_NESTING - 2 * calls  # each call sits in a '('
    return ("if soc > 0 then " + "(fc_max(" * calls + "(" * parens + "ttd"
            + ")" * parens + "))" * calls)


TOO_DEEP = {
    "long_chain": chain(1500),
    "deep_parentheses": "if soc > 0 then " + "(" * 200 + "1" + ")" * 200,
    "unary_minus": "if soc > 0 then " + "- " * 1500 + "1",
    "not": "if " + "not " * 1500 + "soc > 0 then 1",
}

AT_LIMIT = {
    "chain": chain(MAX_RULE_DEPTH),
    "unary_minus": "if soc > 0 then " + "- " * (MAX_RULE_DEPTH - 1) + "1",
    "not": "if " + "not " * (MAX_RULE_DEPTH - 2) + "soc > 0 then 1",
    "calls": "if soc > 0 then " + "fc_max(min(" * ((MAX_RULE_DEPTH - 1) // 2)
             + "soc" + ", 3))" * ((MAX_RULE_DEPTH - 1) // 2),
    "parentheses": "if soc > 0 then " + "(" * MAX_RULE_NESTING + "ttd"
                   + ")" * MAX_RULE_NESTING,
    "calls_and_parentheses": calls_and_parentheses(),
}

# Frames above the caller that every accepted script must fit in, against
# the interpreter's default recursion limit of 1000.
FRAME_BUDGET = 600


def stack_depth() -> int:
    """The number of frames on the caller's stack, its own included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestNestingLimits:
    @pytest.mark.parametrize("source", TOO_DEEP.values(), ids=TOO_DEEP.keys())
    def test_too_deep_raises_parse_error(self, source):
        with pytest.raises(RuleParseError) as err:
            parse_rule_script(source)
        assert err.value.line == 1 and err.value.column > 1
        assert str(err.value).startswith(f"line 1, col {err.value.column}: ")

    def test_one_past_each_limit_fails(self):
        with pytest.raises(RuleParseError, match="deeper than"):
            parse_rule_script(chain(MAX_RULE_DEPTH + 1))
        n = MAX_RULE_NESTING + 1
        with pytest.raises(RuleParseError, match="nested"):
            parse_rule_script("if soc > 0 then " + "(" * n + "1" + ")" * n)

    @pytest.mark.parametrize("source", AT_LIMIT.values(), ids=AT_LIMIT.keys())
    def test_script_at_the_limit_runs_and_round_trips(self, source):
        script = parse_rule_script(source)
        fc = PriceForecast((0.1, 0.4, 0.2, 0.3))
        for obs in (make_obs(soc=0.5, forecast=fc), make_obs(soc=0.0)):
            fast, slow = [], []
            assert (evaluate_rules(script, obs, fast)
                    == evaluate_rules_reference(script, obs, slow))
            assert fast == slow
        # The AST's repr is its constructor calls: evaluated, it rebuilds an
        # equal script, so ==, hash and repr all hold at the limit.
        rebuilt = eval(repr(script), vars(rules))  # noqa: S307
        assert rebuilt == script
        assert hash(rebuilt) == hash(script)
        assert repr(rebuilt) == repr(script)

    @pytest.mark.parametrize("source", AT_LIMIT.values(), ids=AT_LIMIT.keys())
    def test_script_at_the_limit_fits_the_frame_budget(self, source):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + FRAME_BUDGET)
        try:
            script = parse_rule_script(source)
            obs = make_obs(soc=0.5, forecast=PriceForecast((0.1, 0.4, 0.2)))
            fast, slow = [], []
            assert (evaluate_rules(script, obs, fast)
                    == evaluate_rules_reference(script, obs, slow))
            assert fast == slow
        finally:
            sys.setrecursionlimit(limit)


# -- compiled path against the tree walker ----------------------------------

HORIZONS = st.sampled_from([
    "0", "0.4", "0.5", "1", "1.5", "2.5", "3", "36", "288", "300", "-3",
    "9" * 30,                           # huge and finite
    "9" * 400,                          # parses to inf
    "9" * 400 + " - " + "9" * 400,      # NaN
])
NUM_LEAVES = st.one_of(
    st.sampled_from(OBSERVATION_FIELDS),
    st.sampled_from(["0", "0.5", "1", "2", "7", "288", "9" * 400]),
    st.floats(0, 400).map(lambda x: f"{x:.3f}"),
)


def _num_branches(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(st.sampled_from(["min", "max"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        st.tuples(st.sampled_from(FORECAST_FUNCS), HORIZONS | inner).map(
            lambda t: f"{t[0]}({t[1]})"),
    )


NUMS = st.recursive(NUM_LEAVES, _num_branches, max_leaves=6)
COMPARISONS = st.tuples(
    NUMS, st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), NUMS).map(
    lambda t: f"{t[0]} {t[1]} {t[2]}")
BOOLS = st.recursive(COMPARISONS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["and", "or"]), inner).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"),
    inner.map(lambda b: f"(not {b})"),
), max_leaves=3)
SCRIPTS = st.lists(st.tuples(BOOLS, NUMS), max_size=3).map(
    lambda rules: "\n".join(f"if {c} then {a}" for c, a in rules))
FIELD_VALUES = st.one_of(st.just(0.0), st.floats(-1e3, 1e3),
                         st.sampled_from([-0.0, 1e-300, 1e308, -1e308]))


@st.composite
def observations(draw):
    """An observation whose forecast is a window, of 1-300 steps, somewhere
    in a longer price column; some fields are zero."""
    horizon = draw(st.integers(1, 300))
    prices = draw(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=12))
    column = [prices[i % len(prices)] + i / 1000 for i in range(horizon + 20)]
    start = draw(st.integers(0, 20))
    fields = {name: draw(FIELD_VALUES) for name in (
        "charge_price", "discharge_price", "soc", "ttd_minutes", "load_kw",
        "pv_kw", "max_charge_kw", "max_discharge_kw")}
    return make_obs(step_index=draw(st.integers(0, 10_000)),
                    forecast=PriceForecast.window(tuple(column), start,
                                                  horizon, {}), **fields)


def outcome(evaluate, script, obs):
    """The returned value (repr, so -0.0 differs from 0.0) or the exception
    raised, and the fault log."""
    faults = []
    try:
        result = repr(evaluate(script, obs, faults))
    except Exception as exc:  # both paths must fail alike, too
        result = f"{type(exc).__name__}: {exc}"
    return result, faults


class TestCompiledMatchesReference:
    @given(source=SCRIPTS, obs_list=st.lists(observations(), min_size=1,
                                             max_size=3))
    @settings(max_examples=200, deadline=None)
    # Rare draws: a constant zero divisor, and faults on both sides of an
    # operator or behind a short circuit, where order decides the message.
    @example(source="if soc >= 0 then ttd / 0", obs_list=[make_obs()])
    @example(source="if soc >= 0 then 1 / (soc - soc) + fc_max(0)",
             obs_list=[make_obs()])
    @example(source="if fc_min(-1) < 1 / (soc - soc) then 1",
             obs_list=[make_obs()])
    @example(source="if soc < 0 and fc_max(0) > 1 or soc > 2 then 1",
             obs_list=[make_obs()])
    # A mean summed in another order rounds differently: 0.1 * 10 != 1.
    @example(source="if soc >= 0 then fc_mean(10)", obs_list=[make_obs(
        forecast=PriceForecast((0.1,) * 10))])
    def test_same_value_and_faults(self, source, obs_list):
        try:
            script = parse_rule_script(source)
        except RuleParseError:  # a draw past the nesting limits
            assume(False)
        for obs in obs_list:
            assert (outcome(evaluate_rules, script, obs)
                    == outcome(evaluate_rules_reference, script, obs))

    def test_reference_sees_the_same_faults(self):
        script = parse_rule_script(
            "if pv_kw > 0 then 1 / (pv_kw - pv_kw)\n"
            "if soc > 0 then fc_max(soc - 1)")
        for obs in (make_obs(pv_kw=1.0), make_obs(soc=0.5)):
            fast, slow = outcome(evaluate_rules, script, obs), \
                outcome(evaluate_rules_reference, script, obs)
            assert fast == slow and fast[1]


class TestGeneratedSource:
    FORTY_DIGITS = "1234567890" * 4
    TOO_LARGE = "1" + "0" * 400  # 1e400: parses to inf

    def generated(self):
        source_text = (
            "if discharge_price >= fc_mean(288) + 0.103 and soc > 0.3 "
            "then -max_discharge_kw\n"
            f"if charge_price < {self.TOO_LARGE} and not pv_kw == 0 "
            f"then {self.FORTY_DIGITS} / fc_min(ttd / 5 + 1)")
        script = parse_rule_script(source_text)
        return script, *rules._function_source(script)

    def test_no_literal_text_reaches_the_source(self):
        script, source, numbers = self.generated()
        values = [float(self.FORTY_DIGITS), 0.103, math.inf]
        for text in ("0.103", self.TOO_LARGE, self.FORTY_DIGITS,
                     *map(repr, values), "e+"):
            assert text not in source
        assert all(value in numbers for value in values)
        # The only number written as text is the no-match 0.0.
        constants = [node.value for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.Constant)]
        assert [value for value in constants if value is not None] == [0.0]
        obs = make_obs(soc=0.5, pv_kw=1.0)
        assert (evaluate_rules(script, obs)
                == evaluate_rules_reference(script, obs))

    def test_every_identifier_is_fixed_or_a_field(self):
        _, source, _ = self.generated()
        fixed = {"factory", "decide", "obs", "float", *rules._HELPERS}
        attributes = {"obs": {"forecast", *rules._FIELD.values()}}
        names = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                assert node.attr in attributes[node.value.id]
            assert not isinstance(node, (ast.Nonlocal, ast.Global))
            names.append(node.id if isinstance(node, ast.Name) else node.arg
                         if isinstance(node, ast.arg) else node.name
                         if isinstance(node, ast.FunctionDef) else None)
        for name in names:
            assert (name is None or name in fixed
                    or re.fullmatch(r"c\d+", name)), name

    def test_tables_follow_the_column_and_the_horizon(self):
        # Each column and horizon has its memo tables: windows that change
        # either, in turn, must still read the values of their own.
        script = parse_rule_script("if soc > 0 then fc_mean(3) - fc_max(40)")
        columns = [tuple(i * k % 7 / 10 for i in range(60)) for k in (1, 3)]
        tables = {}
        for column, start, horizon in [(0, 0, 50), (0, 0, 2), (0, 5, 2),
                                       (1, 5, 2), (0, 5, 2), (0, 5, 50)]:
            obs = make_obs(forecast=PriceForecast.window(
                columns[column], start, horizon,
                tables.setdefault((column, horizon), {})))
            assert (evaluate_rules(script, obs)
                    == evaluate_rules_reference(script, obs))

    @pytest.mark.parametrize("node", [
        rules.Binary("+ obs.__class__ +", rules.Num(1.0), rules.Num(2.0)),
        rules.Call("memo", (rules.Num(1.0),)),
    ], ids=["operator", "call"])
    def test_a_hand_built_operator_or_call_is_refused(self, node):
        # The parser makes neither; a script built by hand must not get
        # its text into the source either.
        condition = rules.Binary("<", node, rules.Num(3.0))
        script = rules.RuleScript((rules.Rule(condition, rules.Num(1.0)),))
        with pytest.raises(TypeError):
            rules._function_source(script)

    def test_the_only_builtin_is_float(self):
        script, _, _ = self.generated()
        assert script.compiled.__globals__["__builtins__"] == {"float": float}


class ReferencePolicy(PolicyHandle):
    """A rule script evaluated by the tree walker at every step."""

    def __init__(self, source_text: str):
        super().__init__("reference")
        self.script = parse_rule_script(source_text)

    def decide(self, obs) -> float:
        return evaluate_rules_reference(self.script, obs,
                                        fault_log=self.fault_log)


EPISODE_SCRIPTS = [
    FC_RULES.read_text(),
    "if fc_max(36) > 1.5 * charge_price and soc < 0.9 then max_charge_kw\n"
    "if fc_mean(ttd / 5 + 1) < discharge_price then -max_discharge_kw",
    "if charge_price <= fc_min(soc * 300 + 1) then min(max_charge_kw, 5)\n"
    "if discharge_price > fc_mean(72) then -(max_discharge_kw / 2)",
    # One aggregate at two constant horizons, one past the 288-step forecast.
    "if discharge_price > fc_mean(12) + 0.01 and fc_mean(12) > fc_mean(400) "
    "then -max_discharge_kw\n"
    "if charge_price <= fc_min(144) + 0.01 and charge_price < fc_min(6) + 0.005 "
    "then max_charge_kw",
    # Two reduces at one horizon, each its own memo key; fc_max(36) is read
    # again in an action.
    "if fc_max(36) - fc_min(36) > 0.02 and charge_price <= fc_min(36) + 0.01 "
    "and soc < 0.9 then max_charge_kw\n"
    "if discharge_price >= fc_max(36) - 0.01 and soc > 0.3 "
    "then -min(max_discharge_kw, 20 * fc_max(36))",
    # Faults: a horizon below 1 far from departure, division by zero in sun.
    "if soc < 0.5 then fc_mean(24 - ttd / 30)\n"
    "if pv_kw > 0 then load_kw / (pv_kw - pv_kw)\n"
    "if soc > 0.6 then -fc_max(12)",
]


EPISODE_COLUMNS = ("requested_kw", "applied_kw", "soc", "soc_after",
                   "grid_import_kwh", "grid_export_kwh", "step_cost",
                   "step_reward")


@pytest.fixture
def traces():
    """Two new traces with two price columns, and their default sessions:
    each case starts with empty memo tables."""
    return [(trace, default_sessions(trace))
            for trace in (synthetic_trace(days=7, seed=11),
                          synthetic_trace(days=3, seed=5))]


def _episode(trace, sessions, policy):
    """A whole-trace episode of ``policy`` and the faults it logged."""
    logged = len(policy.fault_log)
    report = run_episode(trace, sessions, BatteryConfig(), policy,
                         RewardConfig(), 0, len(trace))
    return report, policy.fault_log[logged:]


def _memo_values(trace):
    """How many constant-horizon aggregate values ``trace``'s memo holds."""
    return sum(len(table) - table.count(None)
               for table in trace.forecast_tables.values())


def _memo_state(trace):
    """Each of ``trace``'s memo tables, by identity, and its values."""
    return {key: (id(table), list(table))
            for key, table in trace.forecast_tables.items()}


@pytest.mark.parametrize("source", EPISODE_SCRIPTS,
                         ids=["file", "max_mean", "min_mean", "two_horizons",
                              "same_horizon", "faulting"])
def test_episode_matches_reference(traces, source):
    """One compiled script on traces A, B, A, each with its own memo,
    matches the tree walker column for column; a repeat on A, whose every
    constant-horizon read is a memo hit, matches too."""
    faulting = source is EPISODE_SCRIPTS[-1]
    expected = [_episode(trace, sessions, ReferencePolicy(source))
                for trace, sessions in traces]
    fast = RuleScriptPolicy(source)
    a_trace = traces[0][0]
    runs, states = [], []
    for k in (0, 1, 0):
        runs.append(_episode(*traces[k], fast))
        (report, faults), (slow, slow_faults) = runs[-1], expected[k]
        for column in EPISODE_COLUMNS:
            assert getattr(report, column) == getattr(slow, column), column
        assert report.summary_dict() == slow.summary_dict()
        assert faults == slow_faults
        assert bool(faults) == faulting
        states.append(_memo_state(a_trace))
    assert states[1] == states[0]  # B's run left A's tables as they were

    again, faults = _episode(*traces[0], fast)
    # No table replaced and no value computed again: every read was a hit.
    assert _memo_state(a_trace) == states[-1]
    first, first_faults = runs[0]
    for column in EPISODE_COLUMNS:
        assert getattr(again, column) == getattr(first, column), column
    assert faults == first_faults
    # Only the faulting script fills nothing: its one constant-horizon
    # aggregate, behind soc > 0.6, never runs.
    for trace, _ in traces:
        column, tables = trace.forecast_column, trace.forecast_tables
        assert bool(tables) == bool(_memo_values(trace)) == (not faulting)
        assert all(len(table) == len(column) for table in tables.values())


def test_memo_is_freed_with_the_trace():
    """The memo's tables live on the trace: once the trace, the report and
    the policy of a rule-script episode are dropped, none of it is held."""
    source = FC_RULES.read_text()
    warm = synthetic_trace(days=1, seed=2)  # one-time allocations go first
    _episode(warm, default_sessions(warm), RuleScriptPolicy(source))
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        trace = synthetic_trace(days=30, seed=2)
        policy = RuleScriptPolicy(source)
        report, _ = _episode(trace, default_sessions(trace), policy)
        table_bytes = 8 * len(trace.forecast_column)
        assert len(trace.forecast_tables) == 2
        del trace, policy, report
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained - before < table_bytes / 4

"""The eight decision inputs keep one meaning on every path: the request a
Python candidate receives, the rule language's variables and the prompt's
signature all name them as ``pydriver.DECISION_INPUTS`` does."""
import ast
import io

import pytest

from evpolicy import pydriver
from evpolicy.prompts import SIGNATURE_BLOCK
from evpolicy.pydriver import DECISION_INPUTS
from evpolicy.rules import (evaluate_rules, evaluate_rules_reference,
                            parse_rule_script)
from evpolicy.runtime import encode_request
from tests.conftest import make_obs

# Eight distinct values, one per decision field.
OBS = make_obs(charge_price=0.11, discharge_price=0.22, soc=0.33,
               ttd_minutes=444.0, load_kw=5.5, pv_kw=6.6, max_charge_kw=7.7,
               max_discharge_kw=8.8)
INPUTS = pytest.mark.parametrize(
    "position,name,field",
    [(i, name, field) for i, (name, field) in enumerate(DECISION_INPUTS)],
    ids=[name for name, _ in DECISION_INPUTS])


def test_the_eight_fields_hold_distinct_values():
    values = [getattr(OBS, field) for _, field in DECISION_INPUTS]
    assert len(set(values)) == len(values) == 8


def returning(name, forecast):
    """A candidate that answers with its parameter called ``name``."""
    if forecast:
        def decide_power(charge_price, discharge_price, soc, ttd, load_kw,
                         pv_kw, max_charge_kw, max_discharge_kw, forecast):
            return locals()[name]
    else:
        def decide_power(charge_price, discharge_price, soc, ttd, load_kw,
                         pv_kw, max_charge_kw, max_discharge_kw):
            return locals()[name]
    return decide_power


@INPUTS
@pytest.mark.parametrize("forecast", [False, True])
def test_request_reaches_the_parameter_of_the_same_name(position, name, field,
                                                        forecast):
    out = io.StringIO()
    pydriver.serve(returning(name, forecast),
                   stdin=[encode_request(OBS, forecast).decode(),
                          '{"end": true}\n'],
                   stdout=out)
    assert float(out.getvalue()) == getattr(OBS, field)


@INPUTS
@pytest.mark.parametrize("evaluate", [evaluate_rules,
                                      evaluate_rules_reference])
def test_rule_variable_evaluates_to_its_field(position, name, field, evaluate):
    script = parse_rule_script(f"if 0 < 1 then {name}")
    assert evaluate(script, OBS) == getattr(OBS, field)


@INPUTS
def test_signature_lists_the_names_in_order(position, name, field):
    function = ast.parse(SIGNATURE_BLOCK).body[0]
    assert function.name == "decide_power"
    assert len(function.args.args) == len(DECISION_INPUTS)
    assert function.args.args[position].arg == name


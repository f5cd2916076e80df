import pytest

from evpolicy.market import PriceForecast, synthetic_trace
from evpolicy.simulation import (BatteryConfig, ConnectionSession, Observation,
                                 default_sessions)


@pytest.fixture
def battery():
    return BatteryConfig()


@pytest.fixture(scope="session")
def fixture_trace():
    return synthetic_trace(days=1, seed=7)


@pytest.fixture(scope="session")
def fixture_sessions(fixture_trace):
    return default_sessions(fixture_trace)


def make_obs(step_index=0, charge_price=0.15, discharge_price=None, soc=0.5,
             ttd_minutes=120.0, load_kw=0.5, pv_kw=0.0, max_charge_kw=7.0,
             max_discharge_kw=7.0, forecast=None, plugged_in=True):
    if discharge_price is None:
        discharge_price = charge_price
    if forecast is None:
        forecast = PriceForecast((charge_price,) * 4)
    return Observation(step_index=step_index, charge_price=charge_price,
                       discharge_price=discharge_price, soc=soc,
                       ttd_minutes=ttd_minutes, load_kw=load_kw, pv_kw=pv_kw,
                       max_charge_kw=max_charge_kw,
                       max_discharge_kw=max_discharge_kw, forecast=forecast,
                       plugged_in=plugged_in)


@pytest.fixture
def obs_factory():
    return make_obs

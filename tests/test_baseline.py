import random

import pytest

from evpolicy.baseline import BaselineConfig, baseline_decide, per_step_energy_cap
from evpolicy.simulation import BatteryConfig, apply_action
from tests.conftest import make_obs

CFG = BaselineConfig()


class TestPerStepEnergyCap:
    def test_discharge_cap_near_reserve(self):
        # 0.01 * 40 * 0.95 / (5/60) = 4.56 kW, evaluated by hand
        cap = per_step_energy_cap(0.21, 0.20, 40.0, "discharge", 0.95)
        assert cap == pytest.approx(4.56, abs=1e-12)

    def test_charge_at_ceiling_is_zero(self):
        assert per_step_energy_cap(1.0, 1.0, 40.0, "charge", 0.95) == 0.0

    def test_huge_capacity_not_binding(self):
        cap = per_step_energy_cap(0.50, 0.20, 1e6, "discharge", 0.95)
        assert cap >= 7.0


class TestBaselineDecide:
    def test_peak_price_discharges_at_full_rate(self, battery):
        obs = make_obs(charge_price=0.40, discharge_price=0.40, soc=0.80)
        assert baseline_decide(obs, CFG, battery) == -7.0

    def test_pv_surplus_charging(self, battery):
        # PV-surplus rule outranks cheap-price charging, so surplus wins
        obs = make_obs(charge_price=0.10, discharge_price=0.10, soc=0.50,
                       pv_kw=2.1, load_kw=0.6)
        assert baseline_decide(obs, CFG, battery) == pytest.approx(1.5)

    def test_reserve_boundary_idles(self, battery):
        # soc == reserve: not below (no forced charge), not above (no discharge)
        obs = make_obs(charge_price=0.40, discharge_price=0.40, soc=0.20,
                       pv_kw=0.0, load_kw=1.0)
        assert baseline_decide(obs, CFG, battery) == 0.0

    def test_below_reserve_charges_regardless_of_price(self, battery):
        obs = make_obs(charge_price=0.90, discharge_price=0.90, soc=0.10)
        assert baseline_decide(obs, CFG, battery) > 0

    def test_cheap_price_charges_toward_target(self, battery):
        obs = make_obs(charge_price=0.10, discharge_price=0.10, soc=0.50)
        assert baseline_decide(obs, CFG, battery) == 7.0

    def test_unplugged_idles(self, battery):
        obs = make_obs(charge_price=0.40, soc=0.5, plugged_in=False)
        assert baseline_decide(obs, CFG, battery) == 0.0

    def test_determinism(self, battery):
        obs = make_obs(charge_price=0.22, discharge_price=0.22, soc=0.44,
                       pv_kw=1.2, load_kw=0.8)
        outs = {baseline_decide(obs, CFG, battery) for _ in range(5)}
        assert len(outs) == 1

    def test_never_exceeds_power_envelope_or_soc_bounds(self, battery):
        rng = random.Random(42)
        for _ in range(10_000):
            obs = make_obs(
                charge_price=rng.uniform(0.01, 1.0),
                discharge_price=rng.uniform(0.01, 1.0),
                soc=rng.uniform(battery.soc_min, battery.soc_max),
                pv_kw=rng.uniform(0, 6), load_kw=rng.uniform(0, 4),
                ttd_minutes=rng.uniform(0, 600))
            kw = baseline_decide(obs, CFG, battery)
            assert -battery.max_discharge_kw <= kw <= battery.max_charge_kw
            _, soc_after, _, _ = apply_action(obs, kw, battery)
            assert CFG.min_soc_reserve - 1e-9 <= soc_after <= battery.soc_max + 1e-9

    def test_safety_rule_has_priority(self):
        battery = BatteryConfig(soc_min=0.05)
        rng = random.Random(7)
        for _ in range(500):
            obs = make_obs(charge_price=rng.uniform(0.01, 1.0),
                           discharge_price=rng.uniform(0.01, 1.0),
                           soc=rng.uniform(battery.soc_min,
                                           CFG.min_soc_reserve - 1e-6),
                           pv_kw=rng.uniform(0, 6), load_kw=rng.uniform(0, 4))
            assert baseline_decide(obs, CFG, battery) > 0

"""Acceptance gate: one test per release criterion, one PASS line each."""
import json
import math
import random
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from evpolicy.errors import PolicyFault
from evpolicy.evolve import run_evolution
from evpolicy.ledgers import QUADRANTS, quadrant_sample
from evpolicy.market import EnvTrace, TracePoint, synthetic_trace
from evpolicy.operators import MockOperator
from evpolicy.prompts import SIGNATURE_BLOCK, build_prompt
from evpolicy.rewards import (FIT_TOLERANCE_KW, RewardConfig,
                              behavioral_metrics, fit_score)
from evpolicy.runtime import (ExternalProcessPolicy, GuardrailPolicy,
                              NativePolicy, PolicyProgram, make_policy,
                              policy_from_program)
from evpolicy.simulation import (BatteryConfig, ConnectionSession,
                                 default_sessions, run_episode)
from tests.conftest import make_obs
from tests.test_evolve import REPLIES
from tests.test_ledger import synthetic_ledger
from tests.test_prompts import STATS

HELPERS = Path(__file__).parent / "helpers"


def _pass(line: str) -> None:
    print(f"\nPASS: {line}")


def build_trace(price_fn, load_fn, pv_fn, n=288):
    t0 = datetime(2024, 3, 1)
    points = tuple(TracePoint(timestamp=t0 + timedelta(minutes=5 * i),
                              load_kw=load_fn(i), pv_kw=pv_fn(i),
                              buy_price=price_fn(i), sell_price=price_fn(i))
                   for i in range(n))
    return EnvTrace(points=points)


def test_01_safety_invariants_under_adversarial_policies():
    battery = BatteryConfig()
    trace = synthetic_trace(days=35, seed=17)  # 10,080 steps
    sessions = [ConnectionSession(0, len(trace), 0.5)]
    rng = random.Random(99)
    hostile = [float("nan"), float("inf"), -float("inf"), 1e6, -1e6]
    adversary = NativePolicy(
        lambda obs: rng.choice(hostile + [rng.uniform(-50, 50)]))
    policy = GuardrailPolicy(adversary, battery)
    started = time.perf_counter()
    report = run_episode(trace, sessions, battery, policy, RewardConfig(),
                         0, 10_000)
    elapsed = time.perf_counter() - started
    assert len(report.records) == 10_000
    for r in report.records:
        assert battery.soc_min - 1e-9 <= r.soc_after <= battery.soc_max + 1e-9
        assert -7.0 <= r.applied_kw <= 7.0
    assert elapsed < 10.0
    _pass(f"safety invariants held over 10,000 adversarial steps "
          f"(zero SoC/power excursions, {elapsed:.2f} s < 10 s)")


def test_02_reward_oracle_idle_and_random_policies():
    battery = BatteryConfig()
    cfg = RewardConfig()
    dt = 5 / 60

    for seed in (1, 9):
        trace = synthetic_trace(days=2, seed=seed)
        report = run_episode(trace, default_sessions(trace), battery,
                             make_policy("idle", battery), cfg, 0, len(trace))
        oracle = 0.0
        for p in trace.points:
            oracle += max(0.0, p.load_kw - p.pv_kw) * dt * p.buy_price
            oracle -= max(0.0, p.pv_kw - p.load_kw) * dt * p.sell_price
        assert report.total_cost == pytest.approx(oracle, abs=1e-9)

    trace = synthetic_trace(days=1, seed=4)
    sessions = [ConnectionSession(0, len(trace), 0.5, 0.8)]
    rng = random.Random(2024)
    for _ in range(100):
        src = (f"if charge_price <= {rng.uniform(0.05, 0.3):.3f} and "
               f"soc < {rng.uniform(0.5, 1.0):.2f} then "
               f"{rng.uniform(0.5, 7):.2f}\n"
               f"if discharge_price >= {rng.uniform(0.2, 0.5):.3f} and "
               f"soc > {rng.uniform(0.2, 0.5):.2f} then "
               f"-{rng.uniform(0.5, 7):.2f}")
        program = PolicyProgram(name="rand", source_text=src,
                                mode="builtin_rules")
        policy = policy_from_program(program, battery)
        report = run_episode(trace, sessions, battery, policy, cfg,
                             0, len(trace))
        penalties = 0.0
        for _, deficit in report.departure_deficits:
            if deficit > 0:
                penalties -= 10 * deficit + (math.exp(4 * deficit) - 1)
        recomputed = sum(r.step_reward for r in report.records) + penalties
        assert report.total_reward == pytest.approx(recomputed, abs=1e-9)
    _pass("reward oracle: idle cost equals household-only recomputation and "
          "100 random rule policies match their step-log totals within 1e-9")


def test_03_baseline_behavior_on_constructed_day():
    battery = BatteryConfig()
    trace = build_trace(
        price_fn=lambda i: 0.50 if 252 <= i < 276 else 0.18,
        load_fn=lambda i: 0.5,
        pv_fn=lambda i: 3.0 if 132 <= i < 168 else 0.0)
    sessions = [ConnectionSession(0, 288, 0.5, 0.8)]
    policy = make_policy("baseline", battery, options={"step_minutes": 5})
    report = run_episode(trace, sessions, battery, policy, RewardConfig(),
                         0, 288)
    spike = [r.applied_kw for r in report.records
             if 252 <= r.observation.step_index < 276]
    surplus = [r.applied_kw for r in report.records
               if 132 <= r.observation.step_index < 168]
    assert min(spike) < 0
    assert max(surplus) > 0
    assert report.soc_violations == 0
    examples = [(r.observation, r.applied_kw) for r in report.records]
    assert fit_score(policy, examples).fit_score == 1.0
    _pass("baseline discharges through the price spike, charges from PV "
          "surplus, zero guardrail violations, self-fit exactly 1.0")


def test_04_anticipatory_arbitrage_beats_baseline():
    battery = BatteryConfig()
    trace = build_trace(
        price_fn=lambda i: (0.08 if 150 <= i < 210 else
                            0.50 if 230 <= i < 286 else 0.20),
        load_fn=lambda i: 0.3,
        pv_fn=lambda i: 0.0)
    sessions = [ConnectionSession(0, 288, 0.5, 0.25)]
    started = time.perf_counter()
    base = run_episode(trace, sessions, battery,
                       make_policy("baseline", battery,
                                   options={"step_minutes": 5}),
                       RewardConfig(), 0, 288)
    program = PolicyProgram(
        name="anticipatory", mode="builtin_rules",
        source_text=(
            "if discharge_price >= 0.45 and soc > 0.2 then -max_discharge_kw\n"
            "if fc_max(72) >= 2 * charge_price and soc < 0.95 then "
            "max_charge_kw"))
    anticipatory = run_episode(trace, sessions, battery,
                               policy_from_program(program, battery),
                               RewardConfig(), 0, 288)
    elapsed = time.perf_counter() - started
    assert anticipatory.total_reward > base.total_reward
    assert elapsed < 1.0
    _pass(f"forecast-aware policy out-earns the baseline on the spike day "
          f"({anticipatory.total_reward:.3f} > {base.total_reward:.3f}, "
          f"{elapsed:.3f} s < 1 s)")


def test_05_flicker_and_cycle_metrics():
    oscillation = [7.0, -7.0] * 50
    m = behavioral_metrics(oscillation)
    assert m.flicker_count == 99

    padded = []
    for kw in oscillation:
        padded.extend([kw, 0.0])
    m2 = behavioral_metrics(padded)
    assert m2.flicker_count == 0
    assert m2.cycle_count == 99
    _pass("flicker metric: [+7,-7]x50 gives flicker 99; idle-padded variant "
          "gives flicker 0 and cycles 99")


def test_06_mock_evolution_selects_best_and_is_deterministic(tmp_path):
    battery = BatteryConfig()
    trace = synthetic_trace(days=1, seed=3)
    sessions = default_sessions(trace)
    started = time.perf_counter()
    dumps = []
    for name in ("first", "second"):
        out = tmp_path / name
        run = run_evolution("reasoning", 5, trace, sessions, battery,
                            MockOperator(REPLIES), RewardConfig(), seed=42,
                            out_dir=out, retry_base_delay=0.0)
        rewards = [it.report.total_reward for it in run.iterations]
        assert rewards[0] < rewards[1] < rewards[2]
        assert rewards[3] < rewards[2] and rewards[4] < rewards[2]
        assert run.best_index == 2
        for k in range(5):
            for artifact in ("prompt.txt", "reply.txt", "policy.txt",
                             "report.json"):
                assert (out / f"iter_{k}" / artifact).exists()
        dumps.append((out / "run.json").read_bytes())
    elapsed = time.perf_counter() - started
    assert dumps[0] == dumps[1]
    assert elapsed < 5.0
    _pass(f"mock evolution picks best_index=2 from r1<r2<r3 then two worse, "
          f"persists 5 artifact sets, bit-identical run.json twice "
          f"({elapsed:.2f} s < 5 s)")


def test_07_quadrant_sampler_balance_and_determinism():
    entries = synthetic_ledger({q: 1000 for q in QUADRANTS})
    sample = quadrant_sample(entries, 1500, seed=8)
    counts = {q: sum(1 for e in sample if e.quadrant == q) for q in QUADRANTS}
    assert counts == {q: 375 for q in QUADRANTS}
    assert sample == quadrant_sample(entries, 1500, seed=8)
    _pass("quadrant sampler draws exactly 375 per quadrant for n=1500 and is "
          "deterministic under a fixed seed")


def test_08_fit_tolerance_boundary():
    class Fixed:
        def __init__(self, kw):
            self.kw = kw

        def decide(self, obs):
            return self.kw

    examples = [(make_obs(), 2.0)]
    at_tolerance = fit_score(Fixed(2.0 + FIT_TOLERANCE_KW), examples)
    past_tolerance = fit_score(Fixed(2.0 + FIT_TOLERANCE_KW + 1e-6), examples)
    assert at_tolerance.fit_score == 1.0
    assert past_tolerance.fit_score == 0.0
    _pass("fit tolerance: |delta| = 0.5 kW matches, 0.5 kW + 1e-6 does not")


def test_09_prompt_fidelity():
    entries = synthetic_ledger({
        "low_price_high_solar": 630,   # charge actions
        "high_price_no_solar": 345,    # discharge actions
        "low_price_no_solar": 525,     # idle actions
    })
    from dataclasses import replace
    action_for = {"low_price_high_solar": 7.0, "high_price_no_solar": -7.0,
                  "low_price_no_solar": 0.0}
    entries = [replace(e, action_kw=action_for[e.quadrant]) for e in entries]
    hybrid = build_prompt("hybrid", 1, entries, STATS)
    assert "Charge actions: 630 (42.0%)" in hybrid.user_text
    assert "Discharge actions: 345 (23.0%)" in hybrid.user_text
    assert "Idle actions: 525 (35.0%)" in hybrid.user_text
    assert SIGNATURE_BLOCK in hybrid.user_text

    reasoning = build_prompt("reasoning", 1, entries, STATS)
    assert "{SoC:" not in reasoning.user_text
    assert reasoning.examples_block == ""
    _pass("hybrid prompt carries exact action-count lines and the "
          "decide_power signature; reasoning prompt has no example lines")


def test_10_external_process_protocol_conformance():
    battery = BatteryConfig()
    trace = synthetic_trace(days=1, seed=5)
    sessions = [ConnectionSession(0, len(trace), 0.5, 0.8)]

    handle = GuardrailPolicy(
        ExternalProcessPolicy([sys.executable,
                               str(HELPERS / "ref_child.py")],
                              timeout_ms=5000), battery)
    try:
        report = run_episode(trace, sessions, battery, handle, RewardConfig(),
                             0, 288)
    finally:
        handle.close()
    assert len(report.records) == 288
    assert handle.fault_log == []

    silent = ExternalProcessPolicy([sys.executable,
                                    str(HELPERS / "silent_child.py")],
                                   timeout_ms=50)
    try:
        assert silent.decide(make_obs(step_index=0)) == 0.0
        assert silent.decide(make_obs(step_index=1)) == 0.0
        with pytest.raises(PolicyFault):
            silent.decide(make_obs(step_index=2))
        assert len(silent.fault_log) == 3
    finally:
        silent.close()
    _pass("reference child completes a 288-step episode fault-free; a silent "
          "child idles twice then aborts on the third consecutive timeout")

import math
import random
import sys
from pathlib import Path

import pytest

from evpolicy.errors import PolicyFault, PolicySpawnError
from evpolicy.market import synthetic_trace
from evpolicy.rewards import RewardConfig
from evpolicy.runtime import (ExternalProcessPolicy, GuardrailPolicy,
                              NativePolicy, PolicyProgram, RuleScriptPolicy,
                              STDERR_TAIL_BYTES, make_policy)
from evpolicy.simulation import (BatteryConfig, ConnectionSession,
                                 run_episode)
from tests.conftest import make_obs

HELPERS = Path(__file__).parent / "helpers"


def child_cmd(name):
    return [sys.executable, str(HELPERS / name)]


class TestGuardrails:
    def test_floor_blocks_discharge(self, battery):
        wrapped = GuardrailPolicy(NativePolicy(lambda o: -5.0), battery)
        assert wrapped.decide(make_obs(soc=0.20)) == 0.0
        assert wrapped.violation_counter == 1

    def test_in_bounds_passthrough(self, battery):
        wrapped = GuardrailPolicy(NativePolicy(lambda o: 3.0), battery)
        assert wrapped.decide(make_obs(soc=0.50)) == 3.0
        assert wrapped.violation_counter == 0

    def test_envelope_clamp(self, battery):
        wrapped = GuardrailPolicy(NativePolicy(lambda o: 12.0), battery)
        assert wrapped.decide(make_obs(soc=0.50)) == 7.0
        assert wrapped.violation_counter == 1

    def test_ceiling_blocks_charge(self, battery):
        wrapped = GuardrailPolicy(NativePolicy(lambda o: 5.0), battery)
        assert wrapped.decide(make_obs(soc=1.0)) == 0.0

    def test_fuzzer_inner_policy_always_finite_and_bounded(self, battery):
        rng = random.Random(13)
        outputs = [float("nan"), float("inf"), -float("inf"), 1e9, -1e9]
        fuzzer = NativePolicy(
            lambda o: rng.choice(outputs + [rng.uniform(-20, 20)]))
        wrapped = GuardrailPolicy(fuzzer, battery)
        for _ in range(2000):
            soc = rng.uniform(0.0, 1.0)
            value = wrapped.decide(make_obs(soc=soc))
            assert math.isfinite(value)
            assert -battery.max_discharge_kw <= value <= battery.max_charge_kw
            if soc <= battery.soc_min:
                assert value >= 0.0
            if soc >= battery.soc_max:
                assert value <= 0.0


class TestExternalProcess:
    def test_constant_idle_child(self, battery):
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "for line in sys.stdin:\n"
             "    if 'end' in line: break\n"
             "    if 'protocol' in line: continue\n"
             "    print('0', flush=True)"], timeout_ms=5000)
        try:
            assert handle.decide(make_obs()) == 0.0
            assert handle.decide(make_obs()) == 0.0
        finally:
            handle.close()

    def test_soc_conditional_child_in_rollout(self, battery):
        trace = synthetic_trace(days=1, seed=2)
        sessions = [ConnectionSession(0, len(trace), arrival_soc=0.22,
                                      target_soc=0.25)]
        handle = GuardrailPolicy(
            ExternalProcessPolicy(child_cmd("soc_child.py"), timeout_ms=5000),
            battery)
        try:
            report = run_episode(trace, sessions, battery, handle,
                                 RewardConfig(), 0, 50)
        finally:
            handle.close()
        # charges while below 30%, idles afterwards; matches the child source
        assert report.records[0].applied_kw > 0
        assert report.records[-1].applied_kw == 0.0
        assert max(r.soc_after for r in report.records) >= 0.3

    def test_silent_child_faults_then_aborts(self, battery):
        handle = ExternalProcessPolicy(child_cmd("silent_child.py"),
                                       timeout_ms=50)
        try:
            assert handle.decide(make_obs(step_index=0)) == 0.0
            assert handle.decide(make_obs(step_index=1)) == 0.0
            with pytest.raises(PolicyFault):
                handle.decide(make_obs(step_index=2))
            assert len(handle.fault_log) == 3
        finally:
            handle.close()

    def test_malformed_reply_is_fault_not_crash(self, battery):
        handle = ExternalProcessPolicy(
            [sys.executable, "-c",
             "import sys\n"
             "for line in sys.stdin:\n"
             "    if 'protocol' in line: continue\n"
             "    if 'end' in line: break\n"
             "    print('sell everything!!', flush=True)"], timeout_ms=5000)
        try:
            assert handle.decide(make_obs()) == 0.0
            assert handle.fault_log
        finally:
            handle.close()

    def test_spawn_failure(self):
        with pytest.raises(PolicySpawnError):
            ExternalProcessPolicy(["/nonexistent/policy-binary"])

    def test_episode_abort_carries_step_index(self, battery):
        trace = synthetic_trace(days=1, seed=2)
        sessions = [ConnectionSession(0, len(trace), 0.5)]
        handle = ExternalProcessPolicy(child_cmd("silent_child.py"),
                                       timeout_ms=50)
        try:
            with pytest.raises(PolicyFault) as err:
                run_episode(trace, sessions, battery, handle, RewardConfig(),
                            0, 20)
            assert err.value.step_index == 2
        finally:
            handle.close()


    def test_stderr_flood_does_not_stall_episode(self, battery, tmp_path):
        # A candidate that raises with a 2 KB message every step fills the
        # 64 KB stderr pipe within a few dozen steps unless it is drained.
        candidate = tmp_path / "raiser.py"
        candidate.write_text(
            "def decide_power(charge_price, discharge_price, soc, ttd,\n"
            "                 load_kw, pv_kw, max_charge_kw,\n"
            "                 max_discharge_kw):\n"
            "    raise RuntimeError('x' * 2048)\n")
        trace = synthetic_trace(days=6, seed=2)
        sessions = [ConnectionSession(0, len(trace), 0.5)]
        handle = ExternalProcessPolicy(
            [sys.executable, "-m", "evpolicy.pydriver", str(candidate)],
            timeout_ms=5000)
        try:
            report = run_episode(trace, sessions, battery, handle,
                                 RewardConfig(), 0, 1500)
            tail = handle._stderr_tail()
        finally:
            handle.close()
        assert len(report.records) == 1500
        assert handle.fault_log == []
        assert all(r.applied_kw == 0.0 for r in report.records)
        assert "x" in tail and len(tail) <= STDERR_TAIL_BYTES


class TestMakePolicy:
    def test_registry_names(self, battery):
        for name in ("baseline", "idle"):
            handle = make_policy(name, battery)
            assert math.isfinite(handle.decide(make_obs()))

    def test_rules_file(self, tmp_path, battery):
        f = tmp_path / "p.rules"
        f.write_text("if charge_price <= 0.12 then max_charge_kw\n")
        handle = make_policy(str(f), battery)
        assert handle.decide(make_obs(charge_price=0.10)) == 7.0

    def test_unknown_spec(self, battery):
        with pytest.raises(ValueError):
            make_policy("definitely-not-a-policy", battery)


class TestPolicyProgram:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            PolicyProgram(name="x", source_text="y", mode="nope")

    def test_external_needs_source(self):
        with pytest.raises(ValueError):
            PolicyProgram(name="x", source_text="  ", mode="external_process")

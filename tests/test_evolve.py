import json

import pytest

from evpolicy.errors import ConfigError, OperatorTransportError
from evpolicy.evolve import (DEFAULT_QUERY_CADENCE, EvolutionRun,
                             RuntimeLLMPolicy, extract_program, make_feedback,
                             run_evolution, run_runtime_agent)
from evpolicy.market import synthetic_trace
from evpolicy.operators import MockOperator, MutationOperator, make_operator
from evpolicy.rewards import RewardConfig, fit_score
from evpolicy.runtime import PolicyProgram, make_policy, policy_from_program
from evpolicy.simulation import (BatteryConfig, ConnectionSession,
                                 default_sessions, run_episode)
from tests.conftest import make_obs

# Five canned candidates: rewards strictly increase for the first three,
# then the last two are strictly worse (verified inside the tests below).
CANDIDATES = [
    "if soc < 0.25 then max_charge_kw",

    "if soc < 0.25 then max_charge_kw\n"
    "if discharge_price >= 0.35 and soc > 0.25 then -max_discharge_kw\n"
    "if charge_price <= 0.12 and soc < 0.8 then max_charge_kw",

    "if soc < 0.25 then max_charge_kw\n"
    "if discharge_price >= 0.35 and soc > 0.25 then -max_discharge_kw\n"
    "if charge_price <= 0.14 and soc < 0.95 then max_charge_kw",

    "if soc > 0 then max_charge_kw",

    "if charge_price >= 0 then -max_discharge_kw",
]
REPLIES = [f"Here is my policy:\n```\n{src}\n```\nGood luck!"
           for src in CANDIDATES]


class TestExtractProgram:
    def test_fenced_block_wins(self):
        reply = "notes\n```python\nif soc < 0.3 then 7\n```\ntrailing text"
        program = extract_program(reply)
        assert program.source_text == "if soc < 0.3 then 7"
        assert program.mode == "builtin_rules"

    def test_first_of_several_fences(self):
        reply = "```\nif soc < 0.1 then 1\n```\nor\n```\nif soc < 0.2 then 2\n```"
        assert extract_program(reply).source_text == "if soc < 0.1 then 1"

    def test_unfenced_longest_keyword_chunk(self):
        reply = ("I considered several options.\n\n"
                 "if soc < 0.3 then 7\n\n"
                 "if soc < 0.3 then max_charge_kw\nif soc > 0.9 then -1\n\n"
                 "Hope that helps.")
        program = extract_program(reply)
        assert program.source_text.startswith("if soc < 0.3 then max_charge_kw")

    def test_python_mode_looks_for_def(self):
        reply = ("def decide_power(charge_price, discharge_price, soc, ttd,\n"
                 "                 load_kw, pv_kw, max_charge_kw, max_discharge_kw):\n"
                 "    return 0.0")
        program = extract_program(reply, mode="external_process")
        assert program.source_text.startswith("def decide_power")

    def test_no_code_returns_none(self):
        assert extract_program("I am unable to help with that.") is None

    def test_empty_fence_returns_none(self):
        assert extract_program("```\n```") is None


class TestMakeFeedback:
    def run_policy(self, spec, battery, trace, sessions):
        policy = make_policy(spec, battery, options={"step_minutes": 5})
        return run_episode(trace, sessions, battery, policy, RewardConfig(),
                           0, len(trace))

    def test_benign_baseline_has_no_issues(self, battery):
        trace = synthetic_trace(days=1, seed=3)
        report = self.run_policy("baseline", battery, trace,
                                 default_sessions(trace))
        fb = make_feedback(report, None, battery)
        assert fb.issues == []
        assert fb.total_reward == report.total_reward

    def test_idle_policy_misses_the_spike(self, battery):
        trace = synthetic_trace(days=1, seed=3)
        report = self.run_policy("idle", battery, trace,
                                 default_sessions(trace))
        fb = make_feedback(report, None, battery)
        texts = [i.text for i in fb.issues]
        assert any("Missed arbitrage" in t for t in texts)
        missed = next(i for i in fb.issues if "Missed arbitrage" in i.text)
        assert missed.step_indices
        for idx in missed.step_indices:
            rec = next(r for r in report.records
                       if r.observation.step_index == idx)
            assert rec.observation.discharge_price >= 0.35

    def test_floor_breach_attempts_reported(self, battery):
        trace = synthetic_trace(days=1, seed=3)
        sessions = [ConnectionSession(0, len(trace), arrival_soc=0.20)]
        program = PolicyProgram(name="dump", mode="builtin_rules",
                                source_text="if soc <= 1 then -max_discharge_kw")
        policy = policy_from_program(program, battery)
        report = run_episode(trace, sessions, battery, policy, RewardConfig(),
                             0, 50)
        fb = make_feedback(report, None, battery)
        assert any("SoC floor" in i.text for i in fb.issues)

    def test_fit_mismatches_sorted_by_gap(self, battery):
        trace = synthetic_trace(days=1, seed=3)
        report = self.run_policy("baseline", battery, trace,
                                 default_sessions(trace))
        examples = [(r.observation, r.applied_kw) for r in report.records[:40]]
        fit = fit_score(make_policy("idle", battery), examples)
        fb = make_feedback(report, fit, battery, top_k=5)
        gaps = [abs(got - ref) for _, ref, got in fb.top_mismatches]
        assert gaps == sorted(gaps, reverse=True)
        assert len(fb.top_mismatches) <= 5


class _FlakyOperator(MutationOperator):
    """Fails with a transport error a set number of times, then succeeds."""

    def __init__(self, failures, reply):
        self.failures = failures
        self.reply = reply
        self.request_count = 0

    def complete(self, bundle):
        self.request_count += 1
        if self.request_count <= self.failures:
            raise OperatorTransportError("connection reset")
        return self.reply


class TestRunEvolution:
    def setup_method(self):
        self.trace = synthetic_trace(days=1, seed=3)
        self.battery = BatteryConfig()
        self.sessions = default_sessions(self.trace)
        self.reward_cfg = RewardConfig()

    def evolve(self, operator, **kw):
        return run_evolution("reasoning", 5, self.trace, self.sessions,
                             self.battery, operator, self.reward_cfg,
                             seed=0, retry_base_delay=0.0, **kw)

    def test_selects_peak_candidate(self):
        run = self.evolve(MockOperator(REPLIES))
        rewards = [it.report.total_reward for it in run.iterations]
        assert rewards[0] < rewards[1] < rewards[2]
        assert rewards[3] < rewards[2] and rewards[4] < rewards[2]
        assert run.best_index == 2

    def test_persists_artifacts_and_serializes_identically(self, tmp_path):
        dumps = []
        for name in ("a", "b"):
            out = tmp_path / name
            self.evolve(MockOperator(REPLIES), out_dir=out)
            for k in range(5):
                for artifact in ("prompt.txt", "reply.txt", "policy.txt",
                                 "report.json"):
                    assert (out / f"iter_{k}" / artifact).exists()
            dumps.append((out / "run.json").read_bytes())
        assert dumps[0] == dumps[1]

    def test_extraction_failure_recorded_and_skipped(self):
        replies = ["no code here, sorry"] + REPLIES[:2]
        run = run_evolution("reasoning", 3, self.trace, self.sessions,
                            self.battery, MockOperator(replies),
                            self.reward_cfg, retry_base_delay=0.0)
        assert run.iterations[0].failure.startswith("extraction failure")
        assert run.best_index == 2

    def test_parse_error_recorded_and_skipped(self):
        replies = ["```\nif soc > bogus_field then 7\n```"] + REPLIES[:1]
        run = run_evolution("reasoning", 2, self.trace, self.sessions,
                            self.battery, MockOperator(replies),
                            self.reward_cfg, retry_base_delay=0.0)
        assert "policy construction failed" in run.iterations[0].failure
        assert run.best_index == 1

    def test_transport_retry_then_success(self):
        operator = _FlakyOperator(2, REPLIES[0])
        run = run_evolution("reasoning", 1, self.trace, self.sessions,
                            self.battery, operator, self.reward_cfg,
                            retry_base_delay=0.0)
        assert operator.request_count == 3
        assert run.iterations[0].failure is None

    def test_transport_exhaustion_marks_iteration(self):
        operator = _FlakyOperator(99, REPLIES[0])
        run = run_evolution("reasoning", 1, self.trace, self.sessions,
                            self.battery, operator, self.reward_cfg,
                            retry_base_delay=0.0)
        assert "transport" in run.iterations[0].failure
        assert run.best_index is None

    def baseline_report(self):
        policy = make_policy("baseline", self.battery,
                             options={"step_minutes": 5})
        return run_episode(self.trace, self.sessions, self.battery, policy,
                           self.reward_cfg, 0, len(self.trace))

    def baseline_ledger(self, report, n=40):
        from evpolicy.ledgers import build_ledger, quadrant_sample
        return quadrant_sample(build_ledger(report.step_rows()), n, seed=0)

    def test_min_fit_floor_filters_selection(self):
        report = self.baseline_report()
        run = run_evolution("hybrid", 2, self.trace, self.sessions,
                            self.battery, MockOperator(REPLIES[:2]),
                            self.reward_cfg, retry_base_delay=0.0,
                            ledger_entries=self.baseline_ledger(report),
                            min_fit=2.0, reference=report)
        # an impossible fit floor leaves nothing selectable
        assert all(it.fit is not None for it in run.iterations)
        assert run.best_index is None

    def test_imitation_selects_on_fit(self):
        baseline_like = ("if soc < 0.2 then max_charge_kw\n"
                         "if discharge_price >= 0.35 and soc > 0.2 then "
                         "-max_discharge_kw\n"
                         "if pv_kw > load_kw then min(pv_kw - load_kw, "
                         "max_charge_kw)\n"
                         "if charge_price <= 0.12 and soc < 0.8 then "
                         "max_charge_kw")
        replies = [f"```\n{CANDIDATES[4]}\n```", f"```\n{baseline_like}\n```"]
        report = self.baseline_report()
        run = run_evolution("imitation", 2, self.trace, self.sessions,
                            self.battery, MockOperator(replies),
                            self.reward_cfg, retry_base_delay=0.0,
                            ledger_entries=self.baseline_ledger(report),
                            reference=report)
        fits = [it.fit.fit_score for it in run.iterations]
        assert fits[1] > fits[0]
        assert run.best_index == 1
        assert run.iterations[1].criterion == fits[1]

    def test_fit_strategies_need_a_reference(self):
        with pytest.raises(ConfigError, match="reference"):
            run_evolution("hybrid", 1, self.trace, self.sessions,
                          self.battery, MockOperator(REPLIES[:1]),
                          self.reward_cfg, retry_base_delay=0.0,
                          ledger_entries=self.baseline_ledger(
                              self.baseline_report()))

    def test_reference_window_must_match(self):
        report = self.baseline_report()
        with pytest.raises(ConfigError, match="window"):
            run_evolution("imitation", 1, self.trace, self.sessions,
                          self.battery, MockOperator(REPLIES[:1]),
                          self.reward_cfg, retry_base_delay=0.0,
                          ledger_entries=self.baseline_ledger(report),
                          n_steps=report.n_steps - 1, reference=report)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            run_evolution("reasoning", 0, self.trace, self.sessions,
                          self.battery, MockOperator(REPLIES),
                          self.reward_cfg)

    def test_feedback_prompt_references_previous_reward(self, tmp_path):
        out = tmp_path / "run"
        self.evolve(MockOperator(REPLIES), out_dir=out)
        second_prompt = (out / "iter_1" / "prompt.txt").read_text()
        assert "EVALUATION RESULTS (Iteration 1):" in second_prompt
        assert "PREVIOUS FUNCTION:" in second_prompt
        assert CANDIDATES[0] in second_prompt


class TestMockOperatorLoading:
    def test_from_jsonl_and_exhaustion(self, tmp_path):
        path = tmp_path / "replies.jsonl"
        path.write_text(json.dumps({"reply": "first"}) + "\n"
                        + json.dumps("second") + "\n")
        op = make_operator(f"mock:{path}")
        assert [op.complete(None) for _ in range(4)] == \
               ["first", "second", "second", "second"]

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            make_operator("mock:/does/not/exist.jsonl")

    def test_http_requires_settings(self):
        with pytest.raises(ConfigError):
            make_operator("http", http_config={})


class TestRuntimeAgent:
    def test_query_cadence(self, battery):
        op = MockOperator(["3.5"])
        policy = RuntimeLLMPolicy(op, cadence=12, battery=battery)
        for i in range(36):
            assert policy.decide(make_obs(step_index=i)) == 3.5
        assert op.request_count == 3
        assert len(policy.decision_log) == 3

    def test_parse_failure_keeps_cached_action(self, battery):
        op = MockOperator(["2.0", "cannot comply"])
        policy = RuntimeLLMPolicy(op, cadence=1, battery=battery)
        assert policy.decide(make_obs(step_index=0)) == 2.0
        assert policy.decide(make_obs(step_index=1)) == 2.0
        assert policy.fault_log
        assert policy.decision_log[1]["fault"]

    def test_negative_decimal_parsed(self, battery):
        op = MockOperator(["I would discharge at -4.2 kW here."])
        policy = RuntimeLLMPolicy(op, cadence=1, battery=battery)
        assert policy.decide(make_obs()) == -4.2

    def test_zero_cadence_rejected(self, battery):
        with pytest.raises(ConfigError):
            RuntimeLLMPolicy(MockOperator(["0"]), cadence=0, battery=battery)

    def test_constant_idle_agent_matches_idle_policy(self, battery):
        trace = synthetic_trace(days=1, seed=3)
        sessions = default_sessions(trace)
        agent = run_runtime_agent(trace, sessions, battery,
                                  MockOperator(["0"]), RewardConfig(),
                                  query_cadence_steps=DEFAULT_QUERY_CADENCE,
                                  retry_base_delay=0.0)
        idle = run_episode(trace, sessions, battery,
                           make_policy("idle", battery), RewardConfig(),
                           0, len(trace))
        assert agent.total_reward == pytest.approx(idle.total_reward, abs=1e-12)
        assert agent.decision_log
        assert all(e["parsed_kw"] == 0.0 for e in agent.decision_log)

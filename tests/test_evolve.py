import gc
import json
import math
import tracemalloc
from types import SimpleNamespace

import pytest

from evpolicy.errors import ConfigError, OperatorTransportError
from evpolicy.evolve import (MIN_FIT_EXAMPLES, EpisodeTotals, EvolutionRun,
                             Issue, _reference_examples, extract_program,
                             make_feedback, run_evolution)
from evpolicy.market import EnvTrace, synthetic_trace
from evpolicy.operators import MockOperator, MutationOperator, make_operator
from evpolicy.rewards import RewardConfig
from evpolicy.runtime import (GuardrailPolicy, NativePolicy, RuleScriptPolicy,
                              make_policy)
from evpolicy.simulation import (BatteryConfig, ConnectionSession,
                                 default_sessions, run_episode)

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
        assert extract_program(reply) == "if soc < 0.3 then 7"

    def test_first_of_several_fences(self):
        reply = "```\nif soc < 0.1 then 1\n```\nor\n```\nif soc < 0.2 then 2\n```"
        assert extract_program(reply) == "if soc < 0.1 then 1"

    def test_unfenced_longest_keyword_chunk(self):
        reply = ("I considered several options.\n\n"
                 "if soc < 0.3 then 7\n\n"
                 "if soc < 0.3 then max_charge_kw\nif soc > 0.9 then -1\n\n"
                 "Hope that helps.")
        assert extract_program(reply).startswith(
            "if soc < 0.3 then max_charge_kw")

    def test_python_mode_looks_for_def(self):
        reply = ("def decide_power(charge_price, discharge_price, soc, ttd,\n"
                 "                 load_kw, pv_kw, max_charge_kw, max_discharge_kw):\n"
                 "    return 0.0")
        assert extract_program(reply, mode="external_process").startswith(
            "def decide_power")

    def test_no_code_returns_none(self):
        assert extract_program("I am unable to help with that.") is None

    def test_empty_fence_returns_none(self):
        assert extract_program("```\n```") is None


class TestMakeFeedback:
    def run_policy(self, spec, battery, trace, sessions):
        policy = make_policy(spec, battery)
        return run_episode(trace, sessions, battery, policy, RewardConfig(),
                           0, len(trace))

    def test_benign_baseline_has_no_issues(self, battery):
        trace = synthetic_trace(days=1, seed=3)
        report = self.run_policy("baseline", battery, trace,
                                 default_sessions(trace))
        assert make_feedback(report, battery) == []

    def test_idle_policy_misses_the_spike(self, battery):
        trace = synthetic_trace(days=1, seed=3)
        report = self.run_policy("idle", battery, trace,
                                 default_sessions(trace))
        issues = make_feedback(report, battery)
        texts = [i.text for i in issues]
        assert any("Missed arbitrage" in t for t in texts)
        missed = next(i for i in issues if "Missed arbitrage" in i.text)
        assert missed.step_indices
        for idx in missed.step_indices:
            rec = next(r for r in report.records
                       if r.observation.step_index == idx)
            assert rec.observation.discharge_price >= 0.35

    def test_floor_breach_attempts_reported(self, battery):
        trace = synthetic_trace(days=1, seed=3)
        sessions = [ConnectionSession(0, len(trace), arrival_soc=0.20)]
        policy = GuardrailPolicy(
            RuleScriptPolicy("if soc <= 1 then -max_discharge_kw"), battery)
        report = run_episode(trace, sessions, battery, policy, RewardConfig(),
                             0, 50)
        issues = make_feedback(report, battery)
        assert any("SoC floor" in i.text for i in issues)

    def test_alternating_policy_is_told_to_add_hysteresis(self, battery):
        trace = synthetic_trace(days=1, seed=1)
        sessions = [ConnectionSession(10, 200, 0.5, 0.8)]
        flip = NativePolicy(lambda obs: 3.0 if obs.step_index % 2 else -3.0)
        report = run_episode(trace, sessions, battery,
                             GuardrailPolicy(flip, battery), RewardConfig(),
                             5, 100)
        assert report.flicker_count == 94
        flicker = [i for i in make_feedback(report, battery)
                   if i.text.startswith("Policy flicker")]
        assert flicker == [Issue(
            "Policy flicker: 94 adjacent charge/discharge reversals (first "
            "at step 11). Add hysteresis.", (11,))]


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

    def test_selects_peak_candidate(self, tmp_path):
        run = self.evolve(MockOperator(REPLIES), out_dir=tmp_path)
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

    def test_extraction_failure_recorded_and_skipped(self, tmp_path):
        replies = ["no code here, sorry"] + REPLIES[:2]
        run = run_evolution("reasoning", 3, self.trace, self.sessions,
                            self.battery, MockOperator(replies),
                            self.reward_cfg, retry_base_delay=0.0,
                            out_dir=tmp_path)
        assert run.iterations[0].failure.startswith("extraction failure")
        assert run.best_index == 2

    def test_parse_error_recorded_and_skipped(self, tmp_path):
        replies = ["```\nif soc > bogus_field then 7\n```"] + REPLIES[:1]
        run = run_evolution("reasoning", 2, self.trace, self.sessions,
                            self.battery, MockOperator(replies),
                            self.reward_cfg, retry_base_delay=0.0,
                            out_dir=tmp_path)
        assert "policy construction failed" in run.iterations[0].failure
        assert run.best_index == 1

    def test_transport_retry_then_success(self, tmp_path):
        operator = _FlakyOperator(2, REPLIES[0])
        run = run_evolution("reasoning", 1, self.trace, self.sessions,
                            self.battery, operator, self.reward_cfg,
                            retry_base_delay=0.0, out_dir=tmp_path)
        assert operator.request_count == 3
        assert run.iterations[0].failure is None

    def test_transport_exhaustion_marks_iteration(self, tmp_path):
        # The first iteration whose retries run out ends the run: it is
        # recorded in run.json, then the transport error is raised.
        operator = _FlakyOperator(99, REPLIES[0])
        with pytest.raises(OperatorTransportError):
            run_evolution("reasoning", 3, self.trace, self.sessions,
                          self.battery, operator, self.reward_cfg,
                          retry_base_delay=0.0, out_dir=tmp_path)
        assert operator.request_count == 3
        run = json.loads((tmp_path / "run.json").read_text())
        [iteration] = run["iterations"]
        assert "transport" in iteration["failure"]
        assert run["best_index"] is None

    def test_transport_retries_back_off_doubling(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr("evpolicy.evolve.time.sleep", sleeps.append)
        with pytest.raises(OperatorTransportError):
            run_evolution("reasoning", 1, self.trace, self.sessions,
                          self.battery, _FlakyOperator(99, REPLIES[0]),
                          self.reward_cfg, retry_base_delay=0.5,
                          out_dir=tmp_path)
        # No sleep after the last try: the error is raised at once.
        assert sleeps == [0.5, 1.0]
        assert (tmp_path / "run.json").exists()

    def test_unknown_program_mode_fails_before_any_write(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown program mode 'nope'"):
            self.evolve(MockOperator(REPLIES), out_dir=tmp_path,
                        program_mode="nope")
        assert not (tmp_path / "iter_0").exists()

    def baseline_report(self):
        policy = make_policy("baseline", self.battery)
        return run_episode(self.trace, self.sessions, self.battery, policy,
                           self.reward_cfg, 0, len(self.trace))

    def test_min_fit_floor_filters_selection(self, tmp_path):
        report = self.baseline_report()
        run = run_evolution("hybrid", 2, self.trace, self.sessions,
                            self.battery, MockOperator(REPLIES[:2]),
                            self.reward_cfg, out_dir=tmp_path,
                            retry_base_delay=0.0, min_fit=2.0,
                            reference=report)
        # an impossible fit floor leaves nothing selectable
        assert all(it.fit is not None for it in run.iterations)
        assert run.best_index is None

    def test_imitation_selects_on_fit(self, tmp_path):
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
                            self.reward_cfg, out_dir=tmp_path,
                            retry_base_delay=0.0, reference=report)
        fits = [it.fit.fit_score for it in run.iterations]
        assert fits[1] > fits[0]
        assert run.best_index == 1
        assert run.iterations[1].criterion == fits[1]

    def test_records_keep_the_totals_of_the_episode(self, tmp_path):
        run = self.evolve(MockOperator(REPLIES), out_dir=tmp_path)
        for it in run.iterations:
            summary = json.loads(
                (tmp_path / f"iter_{it.index}" / "report.json").read_text())
            assert it.report == EpisodeTotals(**{
                field: summary[field] for field in EpisodeTotals._fields})

    def test_fit_strategies_need_a_reference(self, tmp_path):
        with pytest.raises(ConfigError, match="reference"):
            run_evolution("hybrid", 1, self.trace, self.sessions,
                          self.battery, MockOperator(REPLIES[:1]),
                          self.reward_cfg, out_dir=tmp_path,
                          retry_base_delay=0.0)

    def test_reference_window_must_match(self, tmp_path):
        report = self.baseline_report()
        with pytest.raises(ConfigError, match="window"):
            run_evolution("imitation", 1, self.trace, self.sessions,
                          self.battery, MockOperator(REPLIES[:1]),
                          self.reward_cfg, out_dir=tmp_path,
                          retry_base_delay=0.0,
                          n_steps=report.n_steps - 1, reference=report)

    def test_hybrid_prompt_ignores_data_after_the_window(self, tmp_path):
        # A second day with doubled prices lies outside the evaluated first
        # day, so the thresholds the prompt recommends must not move.
        t = self.trace
        longer = EnvTrace(t.start, t.load_kw * 2, t.pv_kw * 2,
                          t.buy_price + tuple(2 * p for p in t.buy_price),
                          t.sell_price + tuple(2 * p for p in t.sell_price))
        prompts = []
        for trace in (t, longer):
            reference = run_episode(trace, self.sessions, self.battery,
                                    make_policy("baseline", self.battery),
                                    self.reward_cfg, 0, len(t))
            run_evolution("hybrid", 1, trace, self.sessions,
                          self.battery, MockOperator(REPLIES[:1]),
                          self.reward_cfg, out_dir=tmp_path,
                          retry_base_delay=0.0, n_steps=len(t),
                          reference=reference)
            prompts.append((tmp_path / "iter_0" / "prompt.txt").read_text())
        assert "RECOMMENDED THRESHOLDS" in prompts[0]
        assert prompts[1] == prompts[0]

    def test_rejects_zero_iterations(self, tmp_path):
        with pytest.raises(ConfigError):
            run_evolution("reasoning", 0, self.trace, self.sessions,
                          self.battery, MockOperator(REPLIES),
                          self.reward_cfg, out_dir=tmp_path)

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

    @pytest.mark.parametrize("setting,match", [
        ({"timeout_s": "x"}, "timeout_s: expected a number"),
        ({"timeout_s": True}, "timeout_s: expected a number"),
        ({"timeout_s": 0}, "timeout_s: expected a number > 0"),
        ({"timeout_s": math.nan}, "timeout_s: expected a number > 0"),
        ({"temperature": "hot"}, "temperature: expected a number"),
        ({"temperature": False}, "temperature: expected a number"),
        ({"url": 5}, "url: expected an http"),
        ({"url": "localhost:8000/v1"}, "url: expected an http"),
        ({"timeout_s": 1e10}, "timeout_s: expected at most 2147483.647"),
    ])
    def test_http_settings_are_checked(self, setting, match):
        # Built, not sent: the check runs before any request.
        config = {"url": "http://127.0.0.1:9/v1", "model": "m", **setting}
        with pytest.raises(ConfigError, match=match):
            make_operator("http", http_config=config)

    def test_http_settings_reach_the_operator(self):
        op = make_operator("http", http_config={
            "url": "https://example.invalid/v1", "model": "m",
            "temperature": 0, "timeout_s": 2.5})
        assert (op.url, op.model, op.temperature, op.timeout_s) == (
            "https://example.invalid/v1", "m", 0, 2.5)


class TestReferenceExamples:
    @pytest.mark.parametrize("n_plugged", [1, 150, 199, 200, 201, 399, 400,
                                           401, 599, 600, 780, 1000, 10_000])
    def test_count_stays_between_the_minimum_and_twice_it(self, n_plugged):
        # Every other step is plugged in, so the strides skip idle steps.
        sessions = [None, object()] * n_plugged
        report = SimpleNamespace(step_sessions=sessions,
                                 applied_kw=[0.0] * len(sessions),
                                 observation=lambda i: i)
        examples = _reference_examples(report)
        assert (min(n_plugged, MIN_FIT_EXAMPLES) <= len(examples)
                <= 2 * MIN_FIT_EXAMPLES - 1)
        assert all(sessions[i] is not None for i, _ in examples)


def test_memory_held_after_a_run_does_not_grow_with_iterations(tmp_path):
    # Eight more iterations must not keep eight more episodes. Run alone in
    # CI, so that tracemalloc sees only this test's objects.
    trace = synthetic_trace(days=7, seed=3)
    battery, reward_cfg = BatteryConfig(), RewardConfig()
    sessions = default_sessions(trace)

    def baseline_episode():
        return run_episode(trace, sessions, battery,
                           make_policy("baseline", battery), reward_cfg)

    reference = baseline_episode()

    def held(make):
        """Bytes still allocated after ``make()`` returns, its result alive."""
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
        del kept
        return size

    def evolve(n_iterations):
        return lambda: run_evolution(
            "hybrid", n_iterations, trace, sessions, battery,
            MockOperator(REPLIES[1:2]), reward_cfg,
            tmp_path / str(n_iterations), retry_base_delay=0.0,
            reference=reference)

    # The least of three runs each: a one-off resize of an interpreter-wide
    # table, such as the one compile() can trigger, shows in one run only.
    tracemalloc.start()
    try:
        held(evolve(1))  # fills the trace's memos
        held_2, held_10 = [], []
        for _ in range(3):
            held_2.append(held(evolve(2)))
            held_10.append(held(evolve(10)))
        episode = min(held(baseline_episode) for _ in range(3))
    finally:
        tracemalloc.stop()
    assert min(held_10) - min(held_2) < episode

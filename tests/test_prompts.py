import pytest

from evpolicy.errors import ConfigError
from evpolicy.evolve import FeedbackSummary, Issue
from evpolicy.ledgers import render_examples
from evpolicy.market import TraceStats
from evpolicy.prompts import (SIGNATURE_BLOCK, PromptBundle, build_prompt,
                              build_state_prompt, render_feedback)
from evpolicy.runtime import PolicyProgram
from evpolicy.simulation import BatteryConfig
from tests.conftest import make_obs
from tests.test_ledger import entry

STATS = TraceStats(buy_median=0.12, sell_median=0.25)


def some_entries(n_charge=3, n_discharge=1, n_idle=2):
    entries = []
    step = 0
    for kw, count in ((7.0, n_charge), (-5.0, n_discharge), (0.0, n_idle)):
        for _ in range(count):
            entries.append(entry(step, "low_price_no_solar", action_kw=kw))
            step += 1
    return entries


class TestSystemText:
    def test_safety_sentence_present(self):
        bundle = build_prompt("reasoning", 1, "", None)
        assert ("If the SoC is below 20%, prioritize charging regardless "
                "of price.") in bundle.system_text

    def test_limits_reflect_battery(self):
        battery = BatteryConfig(max_charge_kw=11.0, max_discharge_kw=9.0,
                                soc_min=0.15)
        bundle = build_prompt("reasoning", 1, "", None, battery=battery)
        assert "-9 kW" in bundle.system_text
        assert "+11 kW" in bundle.system_text
        assert "below 15%" in bundle.system_text


class TestStrategies:
    def test_reasoning_has_no_examples(self):
        bundle = build_prompt("reasoning", 1, render_examples(some_entries()),
                              STATS)
        assert bundle.examples_block == ""
        assert "SoC: 45%" not in bundle.user_text
        assert SIGNATURE_BLOCK in bundle.user_text

    def test_imitation_requires_examples(self):
        with pytest.raises(ConfigError):
            build_prompt("imitation", 1, "", STATS)

    def test_imitation_includes_examples_and_goal(self):
        bundle = build_prompt("imitation", 1, render_examples(some_entries()),
                              None)
        assert "Total examples: 6" in bundle.user_text
        assert "MATCHES these training examples" in bundle.user_text

    def test_hybrid_requires_stats(self):
        with pytest.raises(ConfigError):
            build_prompt("hybrid", 1, render_examples(some_entries()),
                         None)

    def test_hybrid_threshold_lines(self):
        bundle = build_prompt("hybrid", 1, render_examples(some_entries()),
                              STATS)
        assert ("CHARGE when: charge_price <= 0.120 (runtime median)"
                in bundle.stats_block)
        assert ("DISCHARGE when: discharge_price >= 0.250 (runtime median)"
                in bundle.stats_block)
        assert bundle.stats_block in bundle.user_text

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            build_prompt("telepathy", 1, "", None)

    def test_runtime_strategy_redirects(self):
        with pytest.raises(ConfigError):
            build_prompt("runtime", 1, "", None)

    def test_rules_alternative_documented(self):
        bundle = build_prompt("reasoning", 1, "", None)
        assert "fc_max(h)" in bundle.user_text


class TestFeedbackRound:
    def make_feedback(self):
        return FeedbackSummary(
            iteration=2, total_reward=4.5178, avg_reward_per_step=0.0157,
            fit_score=0.912, soc_violation_count=3, clamp_count=0,
            issues=[Issue("Missed arbitrage window at step 210.", (210, 211))],
            top_mismatches=[(make_obs(step_index=8, soc=0.62,
                                      charge_price=0.41), -7.0, 0.0)])

    def test_render_feedback_fields(self):
        text = render_feedback(self.make_feedback())
        assert "EVALUATION RESULTS (Iteration 2):" in text
        assert "Total reward: 4.52" in text
        assert "Fit score: 0.912" in text
        assert "Guardrail violations: 3" in text
        assert "- Missed arbitrage window at step 210." in text
        assert "expected -7.0 kW, got +0.0 kW" in text

    def test_no_issues_renders_none(self):
        fb = self.make_feedback()
        fb.issues = []
        fb.top_mismatches = []
        assert "- None." in render_feedback(fb)

    def test_second_iteration_carries_prior_and_repair_task(self):
        prior = PolicyProgram(name="p", mode="builtin_rules",
                              source_text="if soc < 0.3 then 7")
        bundle = build_prompt("reasoning", 2, "", None, prior=prior,
                              feedback=self.make_feedback())
        assert "PREVIOUS FUNCTION:" in bundle.user_text
        assert "if soc < 0.3 then 7" in bundle.user_text
        assert ("TASK: Rewrite the function to fix the identified issues."
                in bundle.user_text)
        assert bundle.user_text.index("PREVIOUS FUNCTION:") < \
               bundle.user_text.index("EVALUATION RESULTS")


class TestStatePrompt:
    def test_contains_state_and_instruction(self):
        obs = make_obs(soc=0.62, charge_price=0.1234, ttd_minutes=95.0,
                       load_kw=0.8, pv_kw=1.5)
        bundle = build_state_prompt(obs)
        assert isinstance(bundle, PromptBundle)
        assert "SoC: 62.0%" in bundle.user_text
        assert "Time to departure: 95 min" in bundle.user_text
        assert "Buy price: 0.1234" in bundle.user_text
        assert "Reply with the number only." in bundle.user_text

    def test_forecast_aggregates(self):
        from evpolicy.market import PriceForecast
        fc = PriceForecast((0.1, 0.2, 0.3, 0.4))
        bundle = build_state_prompt(make_obs(forecast=fc))
        assert "min 0.1000, mean 0.2500, max 0.4000" in bundle.user_text

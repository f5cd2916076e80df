from types import SimpleNamespace

import pytest

from evpolicy.errors import ConfigError
from evpolicy.evolve import IterationRecord, Issue
from evpolicy.ledgers import render_examples
from evpolicy.market import TraceStats
from evpolicy.prompts import (SIGNATURE_BLOCK, TOP_MISMATCHES, build_prompt,
                              render_feedback)
from evpolicy.rewards import FitReport
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
        assert "BASELINE BEHAVIOR SUMMARY" not in bundle.user_text
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
        assert ("RECOMMENDED THRESHOLDS (based on runtime environment):\n"
                "CHARGE when: charge_price <= 0.120 (runtime median)\n"
                "DISCHARGE when: discharge_price >= 0.250 (runtime median)"
                in bundle.user_text)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            build_prompt("telepathy", 1, "", None)

    def test_runtime_strategy_redirects(self):
        with pytest.raises(ConfigError):
            build_prompt("runtime", 1, "", None)

    def test_rules_alternative_documented(self):
        bundle = build_prompt("reasoning", 1, "", None)
        assert "fc_max(h)" in bundle.user_text
        assert "trailing forecast parameter" not in bundle.user_text

    def test_python_mode_names_the_forecast_not_the_rules(self):
        # A Python candidate cannot answer with rules; it can take the
        # forecast as a ninth argument.
        bundle = build_prompt("reasoning", 1, "", None,
                              program_mode="external_process")
        assert ("decide_power may take a trailing forecast parameter: a list "
                "of the next 288 buy prices") in bundle.user_text
        assert "threshold rules" not in bundle.user_text
        assert "fc_max(h)" not in bundle.user_text
        assert SIGNATURE_BLOCK in bundle.user_text


class TestFeedbackRound:
    def make_record(self, mismatches=None):
        """An iteration that ran a 288-step episode and was fit-scored."""
        if mismatches is None:
            mismatches = [(make_obs(step_index=8, soc=0.62,
                                    charge_price=0.41), -7.0, 0.0)]
        report = SimpleNamespace(total_reward=4.5178, total_profit=4.5216,
                                 n_steps=288, soc_violations=3,
                                 clamp_events=0)
        return IterationRecord(
            index=0, report=report,
            fit=FitReport(fit_score=0.912, mismatches=mismatches),
            issues=[Issue("Missed arbitrage window at step 210.", (210, 211))])

    def test_render_feedback_fields(self):
        text = render_feedback(self.make_record(), 2)
        assert "EVALUATION RESULTS (Iteration 2):" in text
        assert "Total reward: 4.52" in text
        assert "Average profit per step: 0.0157" in text
        assert "Fit score: 0.912" in text
        assert "Guardrail violations: 3" in text
        assert "Physical clamp events" not in text
        assert "- Missed arbitrage window at step 210." in text
        assert "expected -7.0 kW, got +0.0 kW" in text

    def test_no_issues_renders_none(self):
        record = self.make_record(mismatches=[])
        record.issues = []
        text = render_feedback(record, 2)
        assert "- None." in text
        assert "TOP MISMATCHES" not in text

    def test_fit_mismatches_sorted_by_gap(self):
        gaps = [0.5 * (i % 7) + 1.0 for i in range(25)]
        record = self.make_record(mismatches=[
            (make_obs(step_index=i), 0.0, gap) for i, gap in enumerate(gaps)])
        text = render_feedback(record, 2)
        lines = text.split("TOP MISMATCHES vs. the baseline examples:\n")[1]
        got = [float(line.split("got ")[1].split(" kW")[0])
               for line in lines.splitlines()]
        assert len(got) == TOP_MISMATCHES == 10
        assert got == sorted(gaps, reverse=True)[:10]

    def test_second_iteration_carries_prior_and_repair_task(self):
        bundle = build_prompt("reasoning", 2, "", None,
                              prior="if soc < 0.3 then 7",
                              feedback=self.make_record())
        assert "PREVIOUS FUNCTION:" in bundle.user_text
        assert "if soc < 0.3 then 7" in bundle.user_text
        assert ("TASK: Rewrite the function to fix the identified issues."
                in bundle.user_text)
        assert bundle.user_text.index("PREVIOUS FUNCTION:") < \
               bundle.user_text.index("EVALUATION RESULTS")
        assert "EVALUATION RESULTS (Iteration 1):" in bundle.user_text

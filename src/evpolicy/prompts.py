"""Strategy-specific prompt assembly for the mutation operator."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError
from .ledgers import LedgerEntry, render_examples
from .market import TraceStats
from .simulation import BatteryConfig, Observation

STRATEGIES = ("reasoning", "imitation", "hybrid")

SIGNATURE_BLOCK = '''def decide_power(charge_price, discharge_price, soc, ttd,
                 load_kw, pv_kw, max_charge_kw, max_discharge_kw):
    """Return signed kW: +charge, -discharge, 0=idle."""
    # Your code here
    return power_kw'''

RULES_FORMAT_NOTE = (
    "Alternatively, you may answer with threshold rules, one per line:\n"
    "if <condition> then <signed power kW>\n"
    "Conditions may use the same variable names, comparisons, and/or/not,\n"
    "arithmetic, min/max, and the forecast aggregates fc_max(h), fc_min(h),\n"
    "fc_mean(h) over the next h steps of the 24-hour price forecast.")


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_text: str
    examples_block: str = ""
    stats_block: str = ""
    prior_source: str = ""
    feedback_block: str = ""


def _system_text(battery: BatteryConfig) -> str:
    floor_pct = round(battery.soc_min * 100)
    return (
        "You are an expert residential energy-management engineer. You design "
        "control policies for a home EV battery with bidirectional charging.\n"
        "Objectives: maximize household profit through price-aware arbitrage, "
        "prefer local solar use, and keep the vehicle ready for departure.\n"
        "Hard constraints:\n"
        f"- Power setpoints must stay within -{battery.max_discharge_kw:g} kW "
        f"(discharge) to +{battery.max_charge_kw:g} kW (charge).\n"
        f"- Keep the battery state of charge between {floor_pct}% and "
        f"{round(battery.soc_max * 100)}%.\n"
        f"- If the SoC is below {floor_pct}%, prioritize charging regardless "
        "of price.")


def _stats_block(stats: TraceStats) -> str:
    return ("RECOMMENDED THRESHOLDS (based on runtime environment):\n"
            f"CHARGE when: charge_price <= {stats.buy_median:.3f} (runtime median)\n"
            f"DISCHARGE when: discharge_price >= {stats.sell_median:.3f} (runtime median)")


def render_feedback(feedback) -> str:
    lines = [f"EVALUATION RESULTS (Iteration {feedback.iteration}):",
             f"Total reward: {feedback.total_reward:.2f}",
             f"Average reward per step: {feedback.avg_reward_per_step:.4f}"]
    if feedback.fit_score is not None:
        lines.append(f"Fit score: {feedback.fit_score:.3f}")
    if feedback.soc_violation_count:
        lines.append(f"Guardrail violations: {feedback.soc_violation_count}")
    if feedback.clamp_count:
        lines.append(f"Physical clamp events: {feedback.clamp_count}")
    lines.append("")
    lines.append("ISSUES IDENTIFIED:")
    if feedback.issues:
        lines.extend(f"- {issue.text}" for issue in feedback.issues)
    else:
        lines.append("- None.")
    if feedback.top_mismatches:
        lines.append("")
        lines.append("TOP MISMATCHES vs. the baseline examples:")
        for obs, ref_kw, got_kw in feedback.top_mismatches:
            lines.append(
                f"- step {obs.step_index}: SoC {obs.soc * 100:.0f}%, "
                f"price {obs.charge_price:.2f}, expected {ref_kw:+.1f} kW, "
                f"got {got_kw:+.1f} kW")
    return "\n".join(lines)


def build_prompt(strategy: str, iteration: int,
                 ledger_examples: Sequence[LedgerEntry] | None,
                 stats: TraceStats | None,
                 prior=None, feedback=None,
                 battery: BatteryConfig | None = None) -> PromptBundle:
    """Deterministic prompt assembly for one evolution iteration.

    ``prior`` is the previous iteration's policy program and ``feedback`` its
    evaluation summary; both are required from iteration 2 onward.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    battery = battery or BatteryConfig()
    needs_examples = strategy in ("imitation", "hybrid")
    if needs_examples and not ledger_examples:
        raise ConfigError(f"{strategy} strategy needs ledger examples")
    if strategy == "hybrid" and stats is None:
        raise ConfigError("hybrid strategy needs trace statistics")

    examples_block = ""
    if needs_examples:
        examples_block = render_examples(ledger_examples, style="narrative")
    stats_block = _stats_block(stats) if strategy == "hybrid" and stats else ""
    prior_source = prior.source_text if prior is not None else ""
    feedback_block = render_feedback(feedback) if feedback is not None else ""

    parts = ["TASK: Generate a decide_power program to control EV charging."]
    if examples_block:
        parts.append("BASELINE BEHAVIOR SUMMARY:\n" + examples_block)
    if stats_block:
        parts.append(stats_block)
    if strategy == "imitation":
        parts.append("YOUR GOAL: Write a function that MATCHES these training "
                     "examples as closely as possible.")
    elif strategy == "hybrid":
        parts.append("YOUR GOAL: Maximize total household profit over the "
                     "episode while staying consistent with the examples "
                     "above where they are profitable.")
    else:
        parts.append("YOUR GOAL: Maximize household profit while maintaining "
                     "readiness for departure. Derive the control logic from "
                     "the objectives and constraints alone.")
    parts.append("REQUIRED FUNCTION SIGNATURE:\n" + SIGNATURE_BLOCK)
    parts.append(RULES_FORMAT_NOTE)
    if prior_source:
        parts.append("PREVIOUS FUNCTION:\n```\n" + prior_source + "\n```")
    if feedback_block:
        parts.append(feedback_block)
        parts.append("TASK: Rewrite the function to fix the identified issues.")

    return PromptBundle(
        system_text=_system_text(battery),
        user_text="\n\n".join(parts),
        examples_block=examples_block,
        stats_block=stats_block,
        prior_source=prior_source,
        feedback_block=feedback_block,
    )


def build_state_prompt(obs: Observation,
                       battery: BatteryConfig | None = None) -> PromptBundle:
    """Per-query prompt for the runtime agent: current state, one number back."""
    battery = battery or BatteryConfig()
    fc = obs.forecast.values
    user = "\n".join([
        "CURRENT STATE:",
        f"SoC: {obs.soc * 100:.1f}%",
        f"Time to departure: {obs.ttd_minutes:.0f} min",
        f"Buy price: {obs.charge_price:.4f} /kWh",
        f"Sell price: {obs.discharge_price:.4f} /kWh",
        f"Load: {obs.load_kw:.2f} kW, PV: {obs.pv_kw:.2f} kW",
        f"24h forecast: min {min(fc):.4f}, mean {sum(fc) / len(fc):.4f}, "
        f"max {max(fc):.4f}",
        "",
        f"Reply with a single signed power setpoint in kW between "
        f"-{obs.max_discharge_kw:g} and +{obs.max_charge_kw:g}. "
        "Positive charges, negative discharges, 0 idles. Reply with the "
        "number only.",
    ])
    return PromptBundle(system_text=_system_text(battery), user_text=user)

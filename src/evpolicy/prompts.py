"""Strategy-specific prompt assembly for the mutation operator."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .market import FORECAST_STEPS, TraceStats
from .pydriver import DECISION_INPUTS
from .simulation import BatteryConfig

STRATEGIES = ("reasoning", "imitation", "hybrid")
EXAMPLE_STRATEGIES = ("imitation", "hybrid")  # use the ledger examples
TOP_MISMATCHES = 10
NO_CODE_FAILURE = "extraction failure: no code block found"

_NAMES = [name for name, _ in DECISION_INPUTS]
SIGNATURE_BLOCK = (
    f"def decide_power({', '.join(_NAMES[:4])},\n"
    f"{' ' * len('def decide_power(')}{', '.join(_NAMES[4:])}):\n"
    '    """Return signed kW: +charge, -discharge, 0=idle."""\n'
    "    # Your code here\n"
    "    return power_kw")

RULES_FORMAT_NOTE = (
    "Alternatively, you may answer with threshold rules, one per line:\n"
    "if <condition> then <signed power kW>\n"
    "Conditions may use the same variable names, comparisons, and/or/not,\n"
    "arithmetic, min/max, and the forecast aggregates fc_max(h), fc_min(h),\n"
    "fc_mean(h) over the next h steps of the 24-hour price forecast.")
# What a Python candidate may add to the signature, in place of the note above.
FORECAST_NOTE = (
    "decide_power may take a trailing forecast parameter: a list of the next "
    f"{FORECAST_STEPS} buy prices, one per 5-minute step (24 hours).")


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_text: str


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


def render_feedback(record, iteration: int) -> str:
    """The evaluation block on iteration ``iteration`` (1-based) about
    ``record``, an :class:`~evpolicy.evolve.IterationRecord`.

    An iteration that ran no episode shows only its ``failure``, as
    ``run.json`` records it; one that did shows its figures, its issues and
    at most ``TOP_MISMATCHES`` fit mismatches, largest gap first.
    """
    lines = [f"EVALUATION RESULTS (Iteration {iteration}):"]
    report, fit = record.report, record.fit
    if record.failure == NO_CODE_FAILURE:
        issues = ["Your previous reply contained no usable code block. "
                  "Regenerate and put the policy in a fenced code block."]
    elif report is None:
        issues = ["The previous function failed; fix this failure:\n"
                  + record.failure]
    else:
        issues = [issue.text for issue in record.issues]
        lines.append(f"Total reward: {report.total_reward:.2f}")
        lines.append("Average profit per step: "
                     f"{report.total_profit / report.n_steps:.4f}")
        if fit is not None:
            lines.append(f"Fit score: {fit.fit_score:.3f}")
        if report.soc_violations:
            lines.append(f"Guardrail violations: {report.soc_violations}")
        if report.clamp_events:
            lines.append(f"Physical clamp events: {report.clamp_events}")
    lines.append("")
    lines.append("ISSUES IDENTIFIED:")
    lines.extend([f"- {text}" for text in issues] or ["- None."])
    mismatches = sorted(fit.mismatches if fit else (),
                        key=lambda m: -abs(m[2] - m[1]))[:TOP_MISMATCHES]
    if mismatches:
        lines.append("")
        lines.append("TOP MISMATCHES vs. the baseline examples:")
        for obs, ref_kw, got_kw in mismatches:
            lines.append(
                f"- step {obs.step_index}: SoC {obs.soc * 100:.0f}%, "
                f"price {obs.charge_price:.2f}, expected {ref_kw:+.1f} kW, "
                f"got {got_kw:+.1f} kW")
    return "\n".join(lines)


def build_prompt(strategy: str, iteration: int, examples_block: str,
                 stats: TraceStats | None,
                 prior: str | None = None, feedback=None,
                 battery: BatteryConfig | None = None,
                 program_mode: str = "builtin_rules") -> PromptBundle:
    """Deterministic prompt assembly for one evolution iteration.

    ``examples_block`` is the ledger examples as
    :func:`~evpolicy.ledgers.render_examples` renders them, once per run;
    only the imitation and hybrid strategies use it. ``prior`` is the source
    text of the last candidate extracted and ``feedback`` the previous
    iteration's record, reported as iteration ``iteration - 1``. A rule
    script may answer in ``builtin_rules`` mode; in ``external_process`` mode
    the prompt names the optional ``forecast`` parameter instead.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    battery = battery or BatteryConfig()
    needs_examples = strategy in EXAMPLE_STRATEGIES
    if needs_examples and not examples_block:
        raise ConfigError(f"{strategy} strategy needs ledger examples")
    if strategy == "hybrid" and stats is None:
        raise ConfigError("hybrid strategy needs trace statistics")

    parts = ["TASK: Generate a decide_power program to control EV charging."]
    if needs_examples:
        parts.append("BASELINE BEHAVIOR SUMMARY:\n" + examples_block)
    if strategy == "imitation":
        parts.append("YOUR GOAL: Write a function that MATCHES these training "
                     "examples as closely as possible.")
    elif strategy == "hybrid":
        parts.append(_stats_block(stats))
        parts.append("YOUR GOAL: Maximize total household profit over the "
                     "episode while staying consistent with the examples "
                     "above where they are profitable.")
    else:
        parts.append("YOUR GOAL: Maximize household profit while maintaining "
                     "readiness for departure. Derive the control logic from "
                     "the objectives and constraints alone.")
    parts.append("REQUIRED FUNCTION SIGNATURE:\n" + SIGNATURE_BLOCK)
    parts.append(FORECAST_NOTE if program_mode == "external_process"
                 else RULES_FORMAT_NOTE)
    if prior:
        parts.append("PREVIOUS FUNCTION:\n```\n" + prior + "\n```")
    if feedback is not None:
        parts.append(render_feedback(feedback, iteration - 1))
        parts.append("TASK: Rewrite the function to fix the identified issues.")

    return PromptBundle(
        system_text=_system_text(battery),
        user_text="\n\n".join(parts),
    )

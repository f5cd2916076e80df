"""Prompt-evaluate-repair loop: candidate extraction, evaluation, selection."""
from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, OperatorTransportError, PolicyFault
from .ledgers import LedgerEntry, render_examples
from .market import FORECAST_STEPS, EnvTrace, trace_stats
from .operators import MutationOperator
from .prompts import (EXAMPLE_STRATEGIES, NO_CODE_FAILURE, PromptBundle,
                      build_prompt)
from .rewards import FitReport, RewardConfig, fit_score
from .runtime import (DECISION_TIMEOUT_MS, PROGRAM_MODES,
                      ExternalProcessPolicy, GuardrailPolicy, RuleScriptPolicy)
from .simulation import (BatteryConfig, ConnectionSession, EpisodeReport,
                         episode_window, run_episode)

TRANSPORT_RETRIES = 3
RETRY_BASE_DELAY_S = 0.5  # before the second try; doubled before each next
FLICKER_ISSUE_DIVISOR = 50
PEAK_PRICE_THRESHOLD = 0.35  # a sell price at least this high is a spike
# _reference_examples keeps between min(P, 200) and 399 of P plugged-in steps.
MIN_FIT_EXAMPLES = 200
_FENCED_RE = re.compile(r"```[a-zA-Z0-9_+-]*\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class Issue:
    text: str
    step_indices: tuple[int, ...]


@dataclass
class IterationRecord:
    index: int
    failure: str | None = None
    report: EpisodeReport | None = None
    fit: FitReport | None = None
    issues: list[Issue] = field(default_factory=list)
    criterion: float | None = None


@dataclass
class EvolutionRun:
    strategy: str
    iterations: list[IterationRecord]
    best_index: int | None
    config: dict
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "config": self.config,
            "best_index": self.best_index,
            "iterations": [{
                "index": it.index,
                "failure": it.failure,
                "total_reward": (it.report.total_reward if it.report else None),
                "fit_score": (it.fit.fit_score if it.fit else None),
                "criterion": it.criterion,
                "issues": [{"text": i.text, "steps": list(i.step_indices)}
                           for i in it.issues],
            } for it in self.iterations],
        }


def extract_program(model_reply: str,
                    mode: str = "builtin_rules") -> str | None:
    """Pull candidate source text out of a model reply.

    First fenced code block wins; failing that, the longest blank-line
    delimited chunk starting with the mode's signature keyword (``if`` for
    rule scripts, ``def`` for Python candidates). Returns None when nothing
    usable is found.
    """
    match = _FENCED_RE.search(model_reply)
    if match:
        source = match.group(1).strip()
    else:
        keyword = "if" if mode == "builtin_rules" else "def"
        chunks = [c.strip() for c in re.split(r"\n\s*\n", model_reply)]
        candidates = [c for c in chunks
                      if c.startswith(keyword + " ") or c.startswith(keyword + "\n")]
        if not candidates:
            return None
        source = max(candidates, key=len)
    return source or None


def make_feedback(report: EpisodeReport, battery: BatteryConfig,
                  fault_log: Sequence[str] = ()) -> list[Issue]:
    """The issues of an episode, as prompt-ready critique with step citations.

    ``fault_log`` holds the policy's faults (``step <i>: <message>``), over
    the episode and fit scoring; the first is cited.
    """
    n = report.n_steps
    start = report.start_step
    issues: list[Issue] = []

    if fault_log:
        issues.append(Issue(
            text=(f"The policy faulted on {len(fault_log)} decision(s), "
                  f"each taken as idle (0 kW); the first at {fault_log[0]}. "
                  "Fix the fault."),
            step_indices=()))

    if n:
        sell = report.trace.sell_price[start:start + n]
        soc, applied = report.soc, report.applied_kw
        top_decile = sorted(sell)[int(0.9 * (n - 1))]
        spike_threshold = max(PEAK_PRICE_THRESHOLD, top_decile)
        reserve = battery.soc_min

        missed = [i for i, session in enumerate(report.step_sessions)
                  if session is not None
                  and sell[i] >= spike_threshold
                  and soc[i] > reserve + 0.05
                  and applied[i] >= 0.0]
        if missed:
            first = missed[0]
            issues.append(Issue(
                text=(f"Missed arbitrage window at step "
                      f"{start + first} (sell price "
                      f"{sell[first]:.2f}, SoC "
                      f"{soc[first] * 100:.0f}%); "
                      f"{len(missed)} such step(s) in total."),
                step_indices=tuple(start + i for i in missed[:20])))

        floor_hits = [i for i, requested in enumerate(report.requested_kw)
                      if requested < -1e-9
                      and soc[i] <= battery.soc_min + 1e-9]
        if floor_hits:
            issues.append(Issue(
                text=(f"Attempted to discharge below the "
                      f"{round(battery.soc_min * 100)}% SoC floor at step "
                      f"{start + floor_hits[0]} "
                      f"({len(floor_hits)} step(s) in total)."),
                step_indices=tuple(start + i for i in floor_hits[:20])))

        if report.flicker_count > n / FLICKER_ISSUE_DIVISOR:
            flicker_step = start + next(
                (i + 1 for i in range(n - 1)
                 if applied[i] * applied[i + 1] < 0), 0)
            issues.append(Issue(
                text=(f"Policy flicker: {report.flicker_count} adjacent "
                      f"charge/discharge reversals (first at step "
                      f"{flicker_step}). Add hysteresis."),
                step_indices=(flicker_step,)))
    return issues


def _complete_with_retry(operator: MutationOperator, bundle: PromptBundle,
                         retry_base_delay: float) -> str:
    last_exc = None
    for attempt in range(TRANSPORT_RETRIES):
        try:
            return operator.complete(bundle)
        except OperatorTransportError as exc:
            last_exc = exc
            if attempt < TRANSPORT_RETRIES - 1 and retry_base_delay > 0:
                time.sleep(retry_base_delay * (2 ** attempt))
    raise last_exc


def _reference_examples(report: EpisodeReport) -> list[tuple]:
    """Plugged-in (observation, baseline action) pairs for fit scoring."""
    plugged = [i for i, session in enumerate(report.step_sessions)
               if session is not None]
    stride = max(1, len(plugged) // MIN_FIT_EXAMPLES)
    return [(report.observation(i), report.applied_kw[i])
            for i in plugged[::stride]]


def evolve_window(trace: EnvTrace, start_step: int, n_steps: int | None,
                  n_iterations: int) -> int:
    """The window of an evolve run, as :func:`episode_window` gives it,
    checked to hold at least one step; ``n_iterations`` must be >= 1."""
    if n_iterations < 1:
        raise ConfigError("n_iterations must be >= 1")
    n_steps = episode_window(trace, start_step, n_steps)
    if n_steps < 1:
        raise ConfigError("evolve needs a window of at least one step")
    return n_steps


def run_evolution(strategy: str, n_iterations: int, trace: EnvTrace,
                  sessions: Sequence[ConnectionSession],
                  battery: BatteryConfig, operator: MutationOperator,
                  reward_cfg: RewardConfig, out_dir, seed: int = 0,
                  ledger_entries: Sequence[LedgerEntry] | None = None,
                  program_mode: str = "builtin_rules", start_step: int = 0,
                  n_steps: int | None = None, min_fit: float | None = None,
                  retry_base_delay: float = RETRY_BASE_DELAY_S,
                  reference: EpisodeReport | None = None,
                  timeout_ms: int = DECISION_TIMEOUT_MS) -> EvolutionRun:
    """Run the six-stage loop for ``n_iterations`` and select the best.

    Selection: highest fit score for the imitation strategy, highest total
    reward otherwise (optionally floored by ``min_fit``); ties go to the
    earliest iteration. Failed iterations (no code block, parse error, policy
    fault) are recorded and skipped by selection; the next prompt shows the
    failing program, if one was extracted, and quotes the failure as
    ``run.json`` records it. A policy that logged any fault in its episode
    or fit scoring fails too, though it ran to the end: it keeps its report,
    and its issues cite the faults. An iteration whose operator request
    still fails after ``TRANSPORT_RETRIES`` tries ends the run: the
    iterations so far are recorded (and ``run.json`` written), then the
    :class:`OperatorTransportError` is raised.

    ``out_dir`` receives ``run.json`` and an ``iter_<k>`` directory per
    iteration. The window defaults as in :func:`run_episode` and must hold
    at least one step.

    ``reference`` is the baseline episode over the same window; the imitation
    and hybrid strategies score fit against its plugged-in steps.
    ``timeout_ms`` is a Python candidate's deadline per decision.
    """
    if program_mode not in PROGRAM_MODES:
        raise ConfigError(f"unknown program mode {program_mode!r}")
    n_steps = evolve_window(trace, start_step, n_steps, n_iterations)
    fit_examples = []
    if strategy in EXAMPLE_STRATEGIES:
        if reference is None:
            raise ConfigError(f"{strategy} strategy needs a reference episode")
        if (reference.start_step, reference.n_steps) != (start_step, n_steps):
            raise ConfigError("reference episode covers a different window")
        fit_examples = _reference_examples(reference)
    stats = trace_stats(trace, start_step, n_steps)  # the evaluated window
    # The examples are the same in every prompt of the run: render them once.
    examples_block = render_examples(ledger_entries or ())
    out_dir = Path(out_dir)

    iterations: list[IterationRecord] = []
    prior: str | None = None  # the last candidate's source text
    transport_error: OperatorTransportError | None = None

    for k in range(n_iterations):
        iter_dir = out_dir / f"iter_{k}"
        iter_dir.mkdir(parents=True, exist_ok=True)
        # The prompt reports on the last iteration, however it ended.
        bundle = build_prompt(strategy, k + 1, examples_block, stats,
                              prior=prior,
                              feedback=iterations[-1] if iterations else None,
                              battery=battery, program_mode=program_mode)
        record = IterationRecord(index=k)
        iterations.append(record)
        (iter_dir / "prompt.txt").write_text(
            bundle.system_text + "\n\n" + bundle.user_text)

        try:
            reply = _complete_with_retry(operator, bundle, retry_base_delay)
        except OperatorTransportError as exc:
            record.failure = f"operator transport failure: {exc}"
            transport_error = exc
            break
        (iter_dir / "reply.txt").write_text(reply)

        source = extract_program(reply, mode=program_mode)
        if source is None:
            record.failure = NO_CODE_FAILURE
            continue
        prior = source
        (iter_dir / "policy.txt").write_text(source)
        if program_mode == "external_process":
            policy_path = iter_dir / "policy.py"
            policy_path.write_text(source)
            command = [sys.executable, "-m", "evpolicy.pydriver",
                       str(policy_path)]

        try:
            if program_mode == "external_process":
                handle = ExternalProcessPolicy(command, timeout_ms=timeout_ms)
            else:
                handle = RuleScriptPolicy(source, name=f"{strategy}_iter_{k}")
            policy = GuardrailPolicy(handle, battery)
        except Exception as exc:  # parse error, spawn failure
            record.failure = f"policy construction failed: {exc}"
            continue

        phase = ""
        try:
            report = run_episode(trace, sessions, battery, policy, reward_cfg,
                                 start_step=start_step, n_steps=n_steps)
            phase = " during fit scoring"
            fit = fit_score(policy, fit_examples) if fit_examples else None
        except PolicyFault as fault:
            record.failure = (f"policy fault at step {fault.step_index}{phase}: "
                              f"{fault} | {fault.diagnostics}")
            continue
        finally:
            policy.close()

        record.report = report
        record.fit = fit
        faults = policy.fault_log
        if faults:
            record.failure = (f"policy faults: {len(faults)} logged, "
                              f"first {faults[0]}")
        record.issues = make_feedback(report, battery, fault_log=faults)
        record.criterion = (fit.fit_score if strategy == "imitation" and fit
                            else report.total_reward)
        report.write_summary(iter_dir / "report.json")

    eligible = [it for it in iterations if it.failure is None
                and not (min_fit is not None and it.fit is not None
                         and it.fit.fit_score < min_fit)]
    best = max(eligible, key=lambda it: it.criterion, default=None)
    run = EvolutionRun(
        strategy=strategy,
        iterations=iterations,
        best_index=best.index if best is not None else None,
        config={
            "strategy": strategy,
            "n_iterations": n_iterations,
            "program_mode": program_mode,
            "start_step": start_step,
            "n_steps": n_steps,
            "horizon_steps": FORECAST_STEPS,
            "min_fit": min_fit,
            "battery": asdict(battery),
            "reward": asdict(reward_cfg),
        },
        seed=seed,
    )
    with open(out_dir / "run.json", "w") as fh:
        json.dump(run.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if transport_error is not None:
        raise transport_error
    return run

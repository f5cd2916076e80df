"""Prompt-evaluate-repair loop: candidate extraction, evaluation, selection."""
from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, OperatorTransportError, PolicyFault
from .ledgers import LedgerEntry
from .market import EnvTrace, TraceStats, trace_stats
from .operators import MutationOperator
from .prompts import PromptBundle, build_prompt, build_state_prompt
from .rewards import FitReport, RewardConfig, fit_score
from .runtime import (GuardrailPolicy, PolicyHandle, PolicyProgram,
                      policy_from_program)
from .simulation import (DEFAULT_EPISODE_STEPS, BatteryConfig,
                         ConnectionSession, EpisodeReport, run_episode)

DEFAULT_ITERATIONS = 10
DEFAULT_QUERY_CADENCE = 12  # hourly at 5-minute steps
TRANSPORT_RETRIES = 3
FLICKER_ISSUE_DIVISOR = 50
_FENCED_RE = re.compile(r"```[a-zA-Z0-9_+-]*\n(.*?)```", re.DOTALL)
_DECIMAL_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")


@dataclass(frozen=True)
class Issue:
    text: str
    step_indices: tuple[int, ...]


@dataclass
class FeedbackSummary:
    iteration: int
    total_reward: float
    avg_reward_per_step: float
    fit_score: float | None
    soc_violation_count: int
    clamp_count: int
    issues: list[Issue]
    top_mismatches: list  # (Observation, reference_kw, policy_kw)


@dataclass
class IterationRecord:
    index: int
    prompt: PromptBundle
    reply: str | None
    program: PolicyProgram | None
    failure: str | None
    report: EpisodeReport | None
    fit: FitReport | None
    feedback: FeedbackSummary | None
    criterion: float | None


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
                "issues": ([{"text": i.text, "steps": list(i.step_indices)}
                            for i in it.feedback.issues]
                           if it.feedback else []),
            } for it in self.iterations],
        }


def extract_program(model_reply: str, mode: str = "builtin_rules",
                    name: str = "candidate",
                    metadata: dict | None = None) -> PolicyProgram | None:
    """Pull candidate source out of a model reply.

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
    if not source:
        return None
    return PolicyProgram(name=name, source_text=source, mode=mode,
                         metadata=dict(metadata or {}))


def make_feedback(report: EpisodeReport, fit: FitReport | None,
                  battery: BatteryConfig | None = None,
                  iteration: int = 1, peak_price_threshold: float = 0.35,
                  top_k: int = 10) -> FeedbackSummary:
    """Summarize an episode into prompt-ready critique with step citations."""
    battery = battery or BatteryConfig()
    records = report.records
    n = len(records)
    issues: list[Issue] = []

    if n:
        sells = sorted(r.observation.discharge_price for r in records)
        top_decile = sells[int(0.9 * (n - 1))]
        spike_threshold = max(peak_price_threshold, top_decile)
        reserve = battery.soc_min

        missed = [r for r in records
                  if r.observation.plugged_in
                  and r.observation.discharge_price >= spike_threshold
                  and r.observation.soc > reserve + 0.05
                  and r.applied_kw >= 0.0]
        if missed:
            first = missed[0]
            issues.append(Issue(
                text=(f"Missed arbitrage window at step "
                      f"{first.observation.step_index} (sell price "
                      f"{first.observation.discharge_price:.2f}, SoC "
                      f"{first.observation.soc * 100:.0f}%); "
                      f"{len(missed)} such step(s) in total."),
                step_indices=tuple(r.observation.step_index for r in missed[:20])))

        floor_hits = [r for r in records
                      if r.requested_kw < -1e-9
                      and r.observation.soc <= battery.soc_min + 1e-9]
        if floor_hits:
            issues.append(Issue(
                text=(f"Attempted to discharge below the "
                      f"{round(battery.soc_min * 100)}% SoC floor at step "
                      f"{floor_hits[0].observation.step_index} "
                      f"({len(floor_hits)} step(s) in total)."),
                step_indices=tuple(r.observation.step_index
                                   for r in floor_hits[:20])))

        if report.flicker_count > n / FLICKER_ISSUE_DIVISOR:
            flicker_step = next(
                (records[i + 1].observation.step_index
                 for i in range(n - 1)
                 if records[i].applied_kw * records[i + 1].applied_kw < 0),
                records[0].observation.step_index)
            issues.append(Issue(
                text=(f"Policy flicker: {report.flicker_count} adjacent "
                      f"charge/discharge reversals (first at step "
                      f"{flicker_step}). Add hysteresis."),
                step_indices=(flicker_step,)))

    mismatches = []
    if fit is not None:
        mismatches = sorted(fit.mismatches,
                            key=lambda m: -abs(m[2] - m[1]))[:top_k]

    return FeedbackSummary(
        iteration=iteration,
        total_reward=report.total_reward,
        avg_reward_per_step=(report.total_profit / n if n else 0.0),
        fit_score=fit.fit_score if fit else None,
        soc_violation_count=report.soc_violations,
        clamp_count=report.clamp_events,
        issues=issues,
        top_mismatches=mismatches,
    )


def _regenerate_feedback(iteration: int) -> FeedbackSummary:
    return FeedbackSummary(
        iteration=iteration, total_reward=0.0, avg_reward_per_step=0.0,
        fit_score=None, soc_violation_count=0, clamp_count=0,
        issues=[Issue("Your previous reply contained no usable code block. "
                      "Regenerate and put the policy in a fenced code block.",
                      ())],
        top_mismatches=[])


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


def _reference_examples(report: EpisodeReport,
                        max_examples: int = 200) -> list[tuple]:
    """Plugged-in (observation, baseline action) pairs for fit scoring."""
    plugged = [r for r in report.records if r.observation.plugged_in]
    stride = max(1, len(plugged) // max_examples)
    return [(r.observation, r.applied_kw) for r in plugged[::stride]]


def run_evolution(strategy: str, n_iterations: int, trace: EnvTrace,
                  sessions: Sequence[ConnectionSession],
                  battery: BatteryConfig, operator: MutationOperator,
                  reward_cfg: RewardConfig, seed: int = 0,
                  ledger_entries: Sequence[LedgerEntry] | None = None,
                  stats: TraceStats | None = None,
                  program_mode: str = "builtin_rules",
                  out_dir=None, start_step: int = 0,
                  n_steps: int | None = None, min_fit: float | None = None,
                  horizon_steps: int = 288, timeout_ms: int = 2000,
                  retry_base_delay: float = 0.5,
                  reference: EpisodeReport | None = None) -> EvolutionRun:
    """Run the six-stage loop for ``n_iterations`` and select the best.

    Selection: highest fit score for the imitation strategy, highest total
    reward otherwise (optionally floored by ``min_fit``); ties go to the
    earliest iteration. Failed iterations (no code block, parse error, policy
    fault, transport failure) are recorded and skipped by selection.

    ``reference`` is the baseline episode over the same window; the imitation
    and hybrid strategies score fit against its plugged-in steps.
    """
    if n_iterations < 1:
        raise ConfigError("n_iterations must be >= 1")
    if n_steps is None:
        n_steps = min(DEFAULT_EPISODE_STEPS, len(trace) - start_step)
    fit_examples = []
    if strategy in ("imitation", "hybrid"):
        if reference is None:
            raise ConfigError(f"{strategy} strategy needs a reference episode")
        if (reference.start_step, reference.n_steps) != (start_step, n_steps):
            raise ConfigError("reference episode covers a different window")
        fit_examples = _reference_examples(reference)
    if stats is None:
        stats = trace_stats(trace)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    iterations: list[IterationRecord] = []
    prior: PolicyProgram | None = None
    feedback: FeedbackSummary | None = None

    for k in range(n_iterations):
        iter_dir = out_dir / f"iter_{k}" if out_dir is not None else None
        if iter_dir is not None:
            iter_dir.mkdir(parents=True, exist_ok=True)

        bundle = build_prompt(strategy, k + 1, ledger_entries, stats,
                              prior=prior, feedback=feedback, battery=battery)
        record = IterationRecord(index=k, prompt=bundle, reply=None,
                                 program=None, failure=None, report=None,
                                 fit=None, feedback=None, criterion=None)
        iterations.append(record)
        if iter_dir is not None:
            (iter_dir / "prompt.txt").write_text(
                bundle.system_text + "\n\n" + bundle.user_text)

        try:
            reply = _complete_with_retry(operator, bundle, retry_base_delay)
        except OperatorTransportError as exc:
            record.failure = f"operator transport failure: {exc}"
            feedback = _regenerate_feedback(k + 1)
            continue
        record.reply = reply
        if iter_dir is not None:
            (iter_dir / "reply.txt").write_text(reply)

        program = extract_program(reply, mode=program_mode,
                                  name=f"{strategy}_iter_{k}")
        if program is None:
            record.failure = "extraction failure: no code block found"
            feedback = _regenerate_feedback(k + 1)
            continue
        program.metadata.update({"origin_iteration": k,
                                 "parent": prior.name if prior else None,
                                 "strategy": strategy})
        record.program = program
        if iter_dir is not None:
            (iter_dir / "policy.txt").write_text(program.source_text)
        if program.mode == "external_process":
            policy_path = ((iter_dir or Path(".")) / "policy.py")
            policy_path.write_text(program.source_text)
            program.metadata["command"] = [sys.executable, "-m",
                                           "evpolicy.pydriver",
                                           str(policy_path)]

        try:
            policy = policy_from_program(program, battery, timeout_ms=timeout_ms)
        except Exception as exc:  # parse error, spawn failure
            record.failure = f"policy construction failed: {exc}"
            feedback = _regenerate_feedback(k + 1)
            continue

        try:
            report = run_episode(trace, sessions, battery, policy, reward_cfg,
                                 start_step=start_step, n_steps=n_steps,
                                 horizon_steps=horizon_steps)
            fit = fit_score(policy, fit_examples) if fit_examples else None
        except PolicyFault as fault:
            record.failure = (f"policy fault at step {fault.step_index}: "
                              f"{fault} | {fault.diagnostics}")
            feedback = _regenerate_feedback(k + 1)
            continue
        finally:
            policy.close()

        record.report = report
        record.fit = fit
        record.feedback = make_feedback(report, fit, battery,
                                        iteration=k + 1)
        record.criterion = (fit.fit_score if strategy == "imitation" and fit
                            else report.total_reward)
        if iter_dir is not None:
            report.write_summary(iter_dir / "report.json")
        prior = program
        feedback = record.feedback

    best_index = None
    best_value = None
    for it in iterations:
        if it.criterion is None:
            continue
        if min_fit is not None and it.fit is not None and it.fit.fit_score < min_fit:
            continue
        if best_value is None or it.criterion > best_value:
            best_index, best_value = it.index, it.criterion

    run = EvolutionRun(
        strategy=strategy,
        iterations=iterations,
        best_index=best_index,
        config={
            "strategy": strategy,
            "n_iterations": n_iterations,
            "program_mode": program_mode,
            "start_step": start_step,
            "n_steps": n_steps,
            "horizon_steps": horizon_steps,
            "min_fit": min_fit,
            "battery": asdict(battery),
            "reward": asdict(reward_cfg),
        },
        seed=seed,
    )
    if out_dir is not None:
        with open(out_dir / "run.json", "w") as fh:
            json.dump(run.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return run


class RuntimeLLMPolicy(PolicyHandle):
    """Queries the operator every ``cadence`` decisions, caching in between."""

    def __init__(self, operator: MutationOperator, cadence: int,
                 battery: BatteryConfig, retry_base_delay: float = 0.5):
        super().__init__("runtime-llm")
        if cadence < 1:
            raise ConfigError("query cadence must be >= 1")
        self.operator = operator
        self.cadence = cadence
        self.battery = battery
        self.retry_base_delay = retry_base_delay
        self.decision_log: list[dict] = []
        self._calls = 0
        self._cached_kw = 0.0

    def decide(self, obs) -> float:
        if self._calls % self.cadence == 0:
            bundle = build_state_prompt(obs, self.battery)
            entry = {"step": obs.step_index, "reply": None,
                     "parsed_kw": None, "fault": None}
            try:
                reply = _complete_with_retry(self.operator, bundle,
                                             self.retry_base_delay)
                entry["reply"] = reply
                match = _DECIMAL_RE.search(reply)
                if match is None:
                    raise ValueError(f"no decimal in reply {reply!r}")
                self._cached_kw = float(match.group(0))
                entry["parsed_kw"] = self._cached_kw
            except (OperatorTransportError, ValueError) as exc:
                entry["fault"] = str(exc)
                self.fault_log.append(f"step {obs.step_index}: {exc}")
                # keep the previous cached action (idle before the first reply)
            self.decision_log.append(entry)
        self._calls += 1
        return self._cached_kw


def run_runtime_agent(trace: EnvTrace, sessions: Sequence[ConnectionSession],
                      battery: BatteryConfig, operator: MutationOperator,
                      reward_cfg: RewardConfig,
                      query_cadence_steps: int = DEFAULT_QUERY_CADENCE,
                      seed: int = 0, start_step: int = 0,
                      n_steps: int | None = None, horizon_steps: int = 288,
                      retry_base_delay: float = 0.5) -> EpisodeReport:
    """Online agent episode; the returned report carries a decision log."""
    if n_steps is None:
        n_steps = min(DEFAULT_EPISODE_STEPS, len(trace) - start_step)
    inner = RuntimeLLMPolicy(operator, query_cadence_steps, battery,
                             retry_base_delay=retry_base_delay)
    policy = GuardrailPolicy(inner, battery)
    report = run_episode(trace, sessions, battery, policy, reward_cfg,
                         start_step=start_step, n_steps=n_steps,
                         horizon_steps=horizon_steps)
    report.decision_log = inner.decision_log
    return report

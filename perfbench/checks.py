"""Correctness checks on the artifacts an evpolicy CLI invocation leaves."""
from __future__ import annotations

import json
import math
from pathlib import Path

from inputs import EXTRACTION_FAILURE, STEP_MINUTES

TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def check_simulation(out: Path, n_steps: int) -> tuple[list[dict], list[str]]:
    """Recompute a simulate run's totals and invariants from its step log.

    Returns the step rows and the list of failed checks.
    """
    with open(out / "report.json") as fh:
        report = json.load(fh)
    with open(out / "run_config.json") as fh:
        battery = json.load(fh)["battery"]
    with open(out / "steps.jsonl") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    errors = []
    if [r["step"] for r in rows] != list(range(n_steps)):
        errors.append(f"step log has {len(rows)} rows, expected steps "
                      f"0..{n_steps - 1} in order")
    profit = 0.0
    for r in rows:
        profit += r["step_reward"]
    if not _close(profit, report["total_profit"]):
        errors.append(f"sum of step_reward {profit!r} != total_profit "
                      f"{report['total_profit']!r}")
    dt = STEP_MINUTES / 60.0
    lo, hi = battery["soc_min"] - TOL, battery["soc_max"] + TOL
    for r in rows:
        net = (r["load_kw"] - r["pv_kw"] + r["applied_kw"]) * dt
        if not _close(r["grid_import_kwh"] - r["grid_export_kwh"], net):
            errors.append(f"step {r['step']}: energy does not balance")
            break
        if not (lo <= r["soc"] <= hi and lo <= r["soc_after"] <= hi):
            errors.append(f"step {r['step']}: SoC outside [{lo}, {hi}]")
            break
    if not all(math.isfinite(r["applied_kw"]) for r in rows):
        errors.append("non-finite applied_kw")
    return rows, errors


def run_json(out: Path, strategy: str, strategies: list[str]) -> Path:
    """Where ``evolve`` writes a strategy's run.json (a subdirectory per
    strategy when it runs more than one)."""
    return out / strategy / "run.json" if len(strategies) > 1 \
        else out / "run.json"


def check_evolution(out: Path, strategies: list[str],
                    expected: dict) -> tuple[int, int, list[str]]:
    """Compare each strategy's run.json with the scripted outcomes.

    Returns (iterations attempted, iterations whose outcome differs from the
    script, failed checks). ``best_index`` is scripted for hybrid only.
    """
    attempted = failed = 0
    errors = []
    for strategy in strategies:
        with open(run_json(out, strategy, strategies)) as fh:
            run = json.load(fh)
        for it, want in zip(run["iterations"], expected["failures"]):
            attempted += 1
            got = it["failure"]
            if (got is None) != (want is None) or (
                    want is not None and not got.startswith(want)):
                failed += 1
                errors.append(f"{strategy} iteration {it['index']}: failure "
                              f"{got!r}, scripted {want!r}")
        if len(run["iterations"]) != len(expected["failures"]):
            errors.append(f"{strategy}: {len(run['iterations'])} iterations, "
                          f"scripted {len(expected['failures'])}")
        if strategy == "hybrid" and run["best_index"] != expected["best_index"]:
            errors.append(f"hybrid best_index {run['best_index']}, scripted "
                          f"{expected['best_index']}")
    return attempted, failed, errors


def iterations_failed(out: Path, strategies: list[str]) -> int:
    total = 0
    for strategy in strategies:
        with open(run_json(out, strategy, strategies)) as fh:
            total += sum(it["failure"] is not None
                         for it in json.load(fh)["iterations"])
    return total


def reference_ipc(candidate: Path, seed: int, days: int, n_steps: int):
    """Run the candidate in-process through NativePolicy plus guardrails.

    Returns (applied_kw per step, total_reward) for comparison with the run
    that served the same candidate over the line protocol.
    """
    from evpolicy.market import synthetic_trace
    from evpolicy.rewards import RewardConfig
    from evpolicy.runtime import GuardrailPolicy, NativePolicy
    from evpolicy.simulation import BatteryConfig, default_sessions, run_episode

    namespace: dict = {}
    exec(compile(candidate.read_text(), str(candidate), "exec"), namespace)  # noqa: S102
    fn = namespace["decide_power"]
    battery = BatteryConfig()
    policy = GuardrailPolicy(NativePolicy(lambda o: fn(
        o.charge_price, o.discharge_price, o.soc, o.ttd_minutes, o.load_kw,
        o.pv_kw, o.max_charge_kw, o.max_discharge_kw)), battery)
    trace = synthetic_trace(days=days, seed=seed)
    report = run_episode(trace, default_sessions(trace), battery, policy,
                         RewardConfig(), 0, n_steps)
    return [r.applied_kw for r in report.records], report.total_reward

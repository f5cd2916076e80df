"""evpolicy benchmark: end-to-end metrics, or per-layer metrics from spans.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim-long-native --seed 1 \
        --seconds 30 --trace 0

Each invocation of the CLI runs in a fresh process (perfbench/child.py calls
``evpolicy.cli.main`` with the flags a user would pass). The benchmark repeats
invocations for ``--seconds`` seconds, checks every invocation's artifacts and
reports medians. With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
invocations and prints the per-layer metrics. The last stdout line is one JSON
object; the lines before it are a readable table. See perfbench/NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (check_evolution, check_simulation, iterations_failed,
                    reference_ipc, run_json)
from inputs import write_candidate, write_replies, write_trace_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120  # keeps a hung invocation inside the 180 s run limit
EVOLVE_ITERS = 10
IPC_DAYS = 7

clock = time.perf_counter


class BenchError(Exception):
    pass


@dataclass
class Plan:
    """One workload's CLI argv and what its artifacts must show."""

    kind: str  # simulate | evolve
    argv: list[str]
    traced_argv: list[str]
    out: Path
    n_steps: int = 0
    strategies: list[str] = field(default_factory=list)
    expected: dict = field(default_factory=dict)
    candidate: Path | None = None
    ipc_counts: Path | None = None


def _simulate_argv(work: Path, seed: int, trace_args: list[str],
                   policy: str, n_steps: int) -> list[str]:
    return ["simulate", *trace_args, "--seed", str(seed), "--policy", policy,
            "--steps", str(n_steps), "--out", str(work / "out")]


def plan_native(days: int):
    def prepare(work: Path, seed: int) -> Plan:
        csv = work / "trace.csv"
        n = write_trace_csv(csv, days, seed)
        argv = _simulate_argv(work, seed, ["--trace", str(csv)], "baseline", n)
        return Plan("simulate", argv, argv, work / "out", n_steps=n)
    return prepare


def plan_ipc(work: Path, seed: int) -> Plan:
    from evpolicy import pydriver
    candidate = work / "candidate.py"
    write_candidate(candidate, seed)
    py, cand = shlex.quote(sys.executable), shlex.quote(str(candidate))
    n = IPC_DAYS * 288
    trace_args = ["--synthetic", f"days={IPC_DAYS}", f"seed={seed}"]
    argv = _simulate_argv(work, seed, trace_args,
                          f"cmd:{py} -m evpolicy.pydriver {cand}", n)
    counts = None
    traced = argv
    if hasattr(pydriver, "serve"):
        counts = work / "ipc_counts.json"
        wrapper = shlex.quote(str(HERE / "ipc_child.py"))
        traced = _simulate_argv(
            work, seed, trace_args,
            f"cmd:{py} {wrapper} {cand} {shlex.quote(str(counts))}", n)
    return Plan("simulate", argv, traced, work / "out", n_steps=n,
                candidate=candidate, ipc_counts=counts)


def plan_evolve(strategies: list[str], parallel: bool):
    def prepare(work: Path, seed: int) -> Plan:
        replies = work / "replies.jsonl"
        expected = write_replies(replies, seed)
        argv = ["evolve", "--synthetic", "days=7", f"seed={seed}",
                "--seed", str(seed), "--strategy", ",".join(strategies),
                "--mode", "builtin_rules", "--operator", f"mock:{replies}",
                "--iters", str(EVOLVE_ITERS), "--out", str(work / "out")]
        if parallel:
            argv.append("--parallel")
        return Plan("evolve", argv, argv, work / "out", strategies=strategies,
                    expected=expected)
    return prepare


# The first three are the benchmark's workloads (see BENCHMARK.json); the
# rest are one-off measurements recorded in NOTES.md, too long or too
# specialised to repeat on every check.
WORKLOADS = {
    "sim-long-native": plan_native(60),
    "sim-week-ipc": plan_ipc,
    "evolve-hybrid-rules": plan_evolve(["hybrid"], parallel=False),
    "sim-year-native": plan_native(365),
    "evolve-two-serial": plan_evolve(["imitation", "hybrid"], parallel=False),
    "evolve-two-parallel": plan_evolve(["imitation", "hybrid"], parallel=True),
}


def invoke(work: Path, argv: list[str], traced: bool) -> dict:
    """Run one CLI invocation in a fresh process; return its probe record."""
    result_path, spans_path = work / "result.json", work / "spans.json"
    result_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "argv": argv, "result": str(result_path),
            "spans": str(spans_path) if traced else None}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with open(work / "child.log", "w") as log:
        spawn = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"invocation exceeded {CHILD_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        end = clock()
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / "child.log").read_text()[-2000:]
        raise BenchError(f"invocation exited {proc.returncode}:\n{tail}")
    record = json.loads(result_path.read_text())
    record.update(spawn=spawn, exit=end)
    if traced:
        record["spans"] = json.loads(spans_path.read_text())
    return record


def end_to_end(record: dict, kind: str) -> dict:
    """Per-invocation end-to-end figures from the probe timestamps."""
    episodes = record["episodes"]
    in_episodes = sum(e["end"] - e["start"] for e in episodes)
    steps = sum(e.get("steps", 0) for e in episodes)
    if kind == "simulate":
        first = episodes[0]["start"]
        iters = [e["end"] - e["start"] for e in episodes]
    else:
        requests = [r for r in record["requests"] if r]
        first = min(r[0] for r in requests)
        iters = [b - a for r in requests
                 for a, b in zip(r, r[1:] + [record["main_end"]])]
    return {"setup_s": first - record["spawn"],
            "sim_steps_per_s": steps / in_episodes,
            "iters": iters,
            "wall_s": record["exit"] - record["spawn"],
            "peak_rss_mb": record["rss_kb"] / 1024.0}


# Per-layer metric -> (traced layer, statistic). Statistics: calls; s (total
# inclusive seconds); self_s (total self seconds); self_us (mean self time
# per call); count (sum of the layer's counter); count_mean (per call).
SPAN_METRICS = {
    "market.forecast_at.calls": ("market.forecast_at", "calls"),
    "market.forecast_at.self_us": ("market.forecast_at", "self_us"),
    "market.load_trace.s": ("market.load_trace", "s"),
    "market.synthetic_trace.s": ("market.synthetic_trace", "s"),
    "market.trace_stats.s": ("market.trace_stats", "s"),
    "simulation.session_at.calls": ("simulation.session_at", "calls"),
    "simulation.session_at.self_us": ("simulation.session_at", "self_us"),
    "simulation.observation_at.self_us": ("simulation.observation_at",
                                          "self_us"),
    "simulation.apply_action.self_us": ("simulation.apply_action", "self_us"),
    "simulation.run_episode.calls": ("simulation.run_episode", "calls"),
    "simulation.run_episode.self_s": ("simulation.run_episode", "self_s"),
    "simulation.write_step_log.s": ("simulation.write_step_log", "s"),
    "baseline.baseline_decide.calls": ("baseline.baseline_decide", "calls"),
    "baseline.baseline_decide.self_us": ("baseline.baseline_decide",
                                         "self_us"),
    "rules.parse_rule_script.s": ("rules.parse_rule_script", "s"),
    "rules.evaluate_rules.calls": ("rules.evaluate_rules", "calls"),
    "rules.evaluate_rules.self_us": ("rules.evaluate_rules", "self_us"),
    "rules.evaluate_rules.faults": ("rules.evaluate_rules", "count"),
    "rewards.fit_score.calls": ("rewards.fit_score", "calls"),
    "rewards.fit_score.s": ("rewards.fit_score", "s"),
    "rewards.behavioral_metrics.s": ("rewards.behavioral_metrics", "s"),
    "runtime.external.faults": ("runtime.external.decide", "count"),
    "runtime.guardrail.blocks": ("runtime.guardrail.decide", "count"),
    "ledgers.build_ledger.s": ("ledgers.build_ledger", "s"),
    "ledgers.quadrant_sample.s": ("ledgers.quadrant_sample", "s"),
    "prompts.build_prompt.calls": ("prompts.build_prompt", "calls"),
    "prompts.build_prompt.s": ("prompts.build_prompt", "s"),
    "prompts.user_text.chars": ("prompts.build_prompt", "count_mean"),
    "operators.complete.calls": ("operators.complete", "calls"),
    "operators.complete.s": ("operators.complete", "s"),
    "evolve.extract_program.s": ("evolve.extract_program", "s"),
    "evolve.make_feedback.s": ("evolve.make_feedback", "s"),
}


def span_table(spans: dict) -> dict:
    """Per-layer calls, inclusive and self time, counters and durations."""
    layers = spans["layers"]
    rows = spans["spans"]
    child_time = [0.0] * len(rows)
    for _, start, end, parent, _ in rows:
        if parent >= 0:
            child_time[parent] += end - start
    table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0,
                    "durations": []} for name in layers}
    for i, (layer, start, end, _, count) in enumerate(rows):
        t = table[layers[layer]]
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child_time[i]
        t["count"] += count
        t["durations"].append(end - start)
    for t in table.values():
        t["self_us"] = t["self_s"] / t["calls"] * 1e6 if t["calls"] else 0.0
        t["count_mean"] = t["count"] / t["calls"] if t["calls"] else 0.0
    return table


def per_layer(plan: Plan, untraced: dict, traced: dict) -> tuple[dict, list]:
    """Per-layer metrics of one traced invocation; also the absent layers."""
    table = span_table(traced["spans"])
    metrics, missing = {}, []
    for name, (layer, stat) in SPAN_METRICS.items():
        if layer not in table:  # the function is gone: report the layer absent
            missing.append(name)
        metrics[name] = table[layer][stat] if layer in table else 0
    step_log = plan.out / "steps.jsonl"
    metrics["simulation.step_log.bytes"] = (
        step_log.stat().st_size if plan.kind == "simulate" else 0)

    external = table.get("runtime.external.decide")
    latencies = sorted(external["durations"][1:]) if external else []
    if latencies:
        q = statistics.quantiles(latencies, n=100, method="inclusive")
        metrics["runtime.external.decide_p50_us"] = q[49] * 1e6
        metrics["runtime.external.decide_p99_us"] = q[98] * 1e6
        metrics["runtime.external.first_decide_ms"] = \
            external["durations"][0] * 1e3
    else:
        for name in ("decide_p50_us", "decide_p99_us", "first_decide_ms"):
            metrics[f"runtime.external.{name}"] = 0
    if plan.ipc_counts is not None and plan.ipc_counts.exists():
        counts = json.loads(plan.ipc_counts.read_text())
        replies = max(1, counts["reply_lines"])
        metrics["runtime.external.request_bytes"] = \
            counts["request_bytes"] / replies
        metrics["runtime.external.reply_bytes"] = \
            counts["reply_bytes"] / replies
    else:
        metrics["runtime.external.request_bytes"] = 0
        metrics["runtime.external.reply_bytes"] = 0
        if plan.candidate is not None:
            missing += ["runtime.external.request_bytes",
                        "runtime.external.reply_bytes"]

    evolving = plan.kind == "evolve"
    metrics["evolve.baseline_rollouts"] = sum(
        "baseline" in e["policy"] for e in traced["episodes"]) if evolving else 0
    metrics["evolve.iterations_failed"] = (
        iterations_failed(plan.out, plan.strategies) if evolving else 0)
    metrics["trace.overhead_ratio"] = (
        (traced["main_end"] - traced["spawn"])
        / (untraced["main_end"] - untraced["spawn"]))
    rollout = table.get("simulation.run_episode")
    untraced_rollout = sum(e["end"] - e["start"] for e in untraced["episodes"])
    metrics["trace.rollout_layer_share"] = (
        (rollout["s"] - rollout["self_s"]) / untraced_rollout if rollout else 0)
    return metrics, missing


class Ledger:
    """Operations attempted and failed, and the failed checks, of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_outcome = None  # (applied_kw per step, total_reward)
        self.first_runs = None  # run.json bytes per strategy

    def simulate(self, plan: Plan, record: dict) -> None:
        aborted = [e for e in record["episodes"] if "aborted_at" in e]
        if aborted or record["exit_code"] != 0:
            done = (aborted[0].get("aborted_at") or 0) if aborted else 0
            self.attempted += plan.n_steps
            self.failed += plan.n_steps - done
            self.errors.append(f"simulate exited {record['exit_code']}"
                               + (f", aborted at step {done}" if aborted else ""))
            return
        rows, errors = check_simulation(plan.out, plan.n_steps)
        decisions = sum(r["plugged_in"] for r in rows)
        self.attempted += decisions
        self.failed += decisions if errors else record["policy_faults"]
        self.errors += errors
        report = json.loads((plan.out / "report.json").read_text())
        outcome = ([r["applied_kw"] for r in rows], report["total_reward"])
        self.first_outcome = self.first_outcome or outcome
        if outcome != self.first_outcome:
            self.errors.append("simulate results differ between invocations")

    def evolve(self, plan: Plan, record: dict) -> None:
        if record["exit_code"] != 0:
            n = EVOLVE_ITERS * len(plan.strategies)
            self.attempted += n
            self.failed += n
            self.errors.append(f"evolve exited {record['exit_code']}")
            return
        attempted, failed, errors = check_evolution(
            plan.out, plan.strategies, plan.expected)
        runs = {s: run_json(plan.out, s, plan.strategies).read_bytes()
                for s in plan.strategies}
        self.first_runs = self.first_runs or runs
        if runs != self.first_runs:
            errors.append("run.json differs between invocations of one seed")
        self.attempted += attempted
        self.failed += attempted if errors else failed
        self.errors += errors

    def reference(self, plan: Plan, seed: int) -> None:
        """Compare the IPC run with the candidate run in-process."""
        if plan.candidate is None or self.first_outcome is None:
            return
        applied, reward = reference_ipc(plan.candidate, seed, IPC_DAYS,
                                        plan.n_steps)
        got_applied, got_reward = self.first_outcome
        if got_applied != applied or got_reward != reward:
            self.errors.append("IPC run differs from the in-process run: "
                               f"total_reward {got_reward!r} vs {reward!r}")
            self.failed = self.attempted


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for ``seconds``, checking every invocation."""
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[name](work, seed)
    # Compile the package's bytecode once, as an installed package would have.
    subprocess.run([sys.executable, "-c", "import evpolicy.cli, evpolicy.pydriver"],
                   cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                   check=True)
    ledger = Ledger()
    check = ledger.simulate if plan.kind == "simulate" else ledger.evolve
    untraced, layers, missing = [], [], []
    started = clock()
    while clock() - started < seconds or len(untraced) < (1 if trace else 2):
        record = invoke(work, plan.argv, traced=False)
        check(plan, record)
        untraced.append(record)
        if trace:
            if plan.ipc_counts is not None:
                plan.ipc_counts.unlink(missing_ok=True)
            traced = invoke(work, plan.traced_argv, traced=True)
            check(plan, traced)
            metrics, missing = per_layer(plan, record, traced)
            layers.append(metrics)
    ledger.reference(plan, seed)
    figures = [end_to_end(r, plan.kind) for r in untraced]
    (work / "figures.json").write_text(json.dumps(figures))
    return {"plan": plan, "ledger": ledger, "figures": figures,
            "layers": layers, "missing": missing}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evpolicy" / "__init__.py").is_file():
        print(f"error: no evpolicy package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = load_benchmark()

    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    ledger, figures = run["ledger"], run["figures"]
    for error in ledger.errors:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not ledger.errors and ledger.failed == 0
    iters = [t for f in figures for t in f["iters"]]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(figures)} untraced invocations")
    print(f"  {'fail_ratio':<20} {ledger.failed / max(1, ledger.attempted):.6f}"
          f"  ({ledger.failed} of {ledger.attempted} operations)")
    if args.trace:
        listed = bench["per_layer"]
        metrics = {m["name"]: statistics.median(r[m["name"]]
                                                for r in run["layers"])
                   for m in listed}
        print(f"  medians of {len(run['layers'])} traced invocations")
        if run["missing"]:
            print(f"  absent layers: {', '.join(sorted(run['missing']))}")
    else:
        listed = bench["end_to_end"]
        metrics = {name: statistics.median(f[name] for f in figures)
                   for name in ("setup_s", "sim_steps_per_s", "wall_s",
                                "peak_rss_mb")}
        metrics["iter_s_p50"] = statistics.median(iters)
        print(f"  iter_s_p50 is the median of {len(iters)} iterations")
    for m in listed:
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

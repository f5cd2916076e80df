"""Command-line entry point: simulate, ledger, evolve, compare, plot-data."""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import evolve as evolve_mod
from . import ledgers
from .errors import (ConfigError, EvPolicyError, OperatorTransportError,
                     PolicyFault, PolicySpawnError)
from .market import EnvTrace, load_trace, synthetic_trace
from .operators import make_operator
from .rewards import RewardConfig
from .runtime import make_policy
from .simulation import (DEFAULT_EPISODE_STEPS, BatteryConfig,
                         ConnectionSession, default_sessions, read_step_log,
                         run_episode)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_POLICY_FAULT = 2
EXIT_TRANSPORT = 3


def _parse_kv(tokens: list[str]) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        out[key] = value
    return out


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _resolve_trace(args, config: dict) -> EnvTrace:
    if getattr(args, "synthetic", None):
        kv = _parse_kv(args.synthetic)
        return synthetic_trace(days=int(kv.get("days", 7)),
                               seed=int(kv.get("seed", args.seed)))
    if getattr(args, "trace", None):
        return load_trace(args.trace, schema=config.get("trace_schema"))
    raise ConfigError("provide --trace FILE or --synthetic days=N seed=S")


def _resolve_sessions(trace: EnvTrace, config: dict) -> list[ConnectionSession]:
    if "sessions" in config:
        return [ConnectionSession(**s) for s in config["sessions"]]
    return default_sessions(trace)


def _battery(config: dict) -> BatteryConfig:
    return BatteryConfig(**config.get("battery", {}))


def _reward(config: dict) -> RewardConfig:
    return RewardConfig(**config.get("reward", {}))


def _write_run_config(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "run_config.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    trace = _resolve_trace(args, config)
    battery = _battery(config)
    sessions = _resolve_sessions(trace, config)
    reward_cfg = _reward(config)
    n_steps = args.steps if args.steps is not None else min(
        DEFAULT_EPISODE_STEPS, len(trace) - args.start)
    policy = make_policy(args.policy, battery, options={
        "step_minutes": trace.step_minutes,
        "baseline": config.get("baseline", {}),
        "timeout_ms": config.get("policy_timeout_ms", 1000),
    })
    try:
        report = run_episode(trace, sessions, battery, policy, reward_cfg,
                             start_step=args.start, n_steps=n_steps)
    finally:
        policy.close()

    out_dir = Path(args.out)
    _write_run_config(out_dir, {
        "command": "simulate", "policy": args.policy, "seed": args.seed,
        "start": args.start, "steps": n_steps,
        "trace": args.trace or f"synthetic:{' '.join(args.synthetic or [])}",
        "battery": asdict(battery), "reward": asdict(reward_cfg),
        "sessions": [asdict(s) for s in sessions],
    })
    report.write_summary(out_dir / "report.json")
    report.write_step_log(out_dir / "steps.jsonl")
    print(f"total_reward: {report.total_reward:.6f}")
    print(f"total_cost: {report.total_cost:.6f}")
    print(f"cycles: {report.cycle_count}  flicker: {report.flicker_count}")
    print(f"soc_violations: {report.soc_violations}  "
          f"clamp_events: {report.clamp_events}")
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'steps.jsonl'}")
    return EXIT_OK


def cmd_ledger(args) -> int:
    entries = ledgers.build_ledger(read_step_log(args.from_log))
    sample = ledgers.quadrant_sample(entries, args.n, seed=args.seed)
    fmt = "jsonl" if args.out.endswith(".jsonl") else "csv"
    ledgers.export_ledger(sample, args.out, format=fmt)
    print(f"wrote {len(sample)} entries to {args.out}")
    return EXIT_OK


def cmd_evolve(args) -> int:
    config = _load_config(args.config)
    trace = _resolve_trace(args, config)
    battery = _battery(config)
    sessions = _resolve_sessions(trace, config)
    reward_cfg = _reward(config)
    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]

    # One baseline episode feeds both the ledger examples and the fit
    # reference of the imitation and hybrid strategies.
    base_report = ledger_entries = None
    if any(s in ("imitation", "hybrid") for s in strategies):
        policy = make_policy("baseline", battery, options={
            "step_minutes": trace.step_minutes,
            "baseline": config.get("baseline", {})})
        n_steps = args.steps if args.steps is not None else min(
            DEFAULT_EPISODE_STEPS, len(trace) - args.start)
        base_report = run_episode(trace, sessions, battery, policy, reward_cfg,
                                  start_step=args.start, n_steps=n_steps)
        all_entries = ledgers.build_ledger(base_report.step_rows())
        n_sample = min(config.get("ledger_examples", 1500), len(all_entries))
        ledger_entries = ledgers.quadrant_sample(all_entries,
                                                 max(4, n_sample),
                                                 seed=args.seed)

    out_root = Path(args.out)
    _write_run_config(out_root, {
        "command": "evolve", "strategies": strategies, "iters": args.iters,
        "seed": args.seed, "operator": args.operator, "mode": args.mode,
        "start": args.start, "steps": args.steps, "min_fit": args.min_fit,
        "battery": asdict(battery), "reward": asdict(reward_cfg),
    })

    for strategy in strategies:
        operator = make_operator(args.operator,
                                 http_config=config.get("operator"))
        run = evolve_mod.run_evolution(
            strategy=strategy, n_iterations=args.iters, trace=trace,
            sessions=sessions, battery=battery, operator=operator,
            reward_cfg=reward_cfg, seed=args.seed,
            ledger_entries=ledger_entries, program_mode=args.mode,
            out_dir=out_root / strategy if "," in args.strategy else out_root,
            start_step=args.start, n_steps=args.steps, min_fit=args.min_fit,
            retry_base_delay=config.get("retry_base_delay", 0.5),
            reference=base_report)
        best = run.best_index
        value = (run.iterations[best].criterion if best is not None else None)
        print(f"{run.strategy}: best_index={best} criterion={value}")
    return EXIT_OK


def cmd_compare(args) -> int:
    with open(args.report_a) as fh:
        a = json.load(fh)
    with open(args.report_b) as fh:
        b = json.load(fh)
    if (a["start_step"], a["n_steps"]) != (b["start_step"], b["n_steps"]):
        raise ConfigError("reports cover different trace windows")
    ra, rb = a["total_reward"], b["total_reward"]
    if ra != 0 and (ra > 0) == (rb > 0):
        rel = f"{100.0 * rb / ra:.1f}%"
    else:
        rel = "undefined"
    print(f"{'metric':<18}{'A':>14}{'B':>14}")
    print(f"{'total_reward':<18}{ra:>14.4f}{rb:>14.4f}")
    print(f"{'relative':<18}{'100.0%':>14}{rel:>14}")
    print(f"{'delta':<18}{0.0:>14.4f}{rb - ra:>14.4f}")
    print(f"{'cycles':<18}{a['metrics']['cycle_count']:>14}"
          f"{b['metrics']['cycle_count']:>14}")
    print(f"{'flicker':<18}{a['metrics']['flicker_count']:>14}"
          f"{b['metrics']['flicker_count']:>14}")
    print(f"{'soc_violations':<18}{a['soc_violations']:>14}"
          f"{b['soc_violations']:>14}")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    rows = read_step_log(args.steps)
    cumulative = 0.0
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "buy_price", "sell_price", "soc",
                         "applied_kw", "cumulative_reward"])
        for r in rows:
            cumulative += r["step_reward"]
            writer.writerow([r["step"], r["charge_price"], r["discharge_price"],
                             r["soc_after"], r["applied_kw"], cumulative])
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evpolicy",
        description="Residential EV charging / V2G simulation and "
                    "evolutionary policy synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_args(p):
        p.add_argument("--trace", help="trace CSV path")
        p.add_argument("--synthetic", nargs="+", metavar="KEY=VALUE",
                       help="synthetic trace, e.g. --synthetic days=7 seed=1")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--start", type=int, default=0)

    p = sub.add_parser("simulate", help="run one policy episode")
    add_trace_args(p)
    p.add_argument("--policy", required=True,
                   help="baseline | idle | file.rules | cmd:<command>")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ledger", help="curate a balanced example ledger")
    p.add_argument("--from", dest="from_log", required=True,
                   help="steps.jsonl from a simulate run")
    p.add_argument("--n", type=int, default=1500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="ledger.csv or ledger.jsonl")
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("evolve", help="run the prompt-evaluate-repair loop")
    add_trace_args(p)
    p.add_argument("--strategy", default="hybrid",
                   help="reasoning|imitation|hybrid (comma list allowed)")
    p.add_argument("--iters", type=int, default=evolve_mod.DEFAULT_ITERATIONS)
    p.add_argument("--operator", required=True,
                   help="mock:replies.jsonl or http (configure in --config)")
    p.add_argument("--mode", default="builtin_rules",
                   choices=["builtin_rules", "external_process"])
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--min-fit", dest="min_fit", type=float, default=None)
    p.add_argument("--out", default="evolve_out")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("compare", help="compare two report summaries")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot-data", help="emit plot-ready CSV from a step log")
    p.add_argument("--steps", required=True, help="steps.jsonl")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OperatorTransportError as exc:
        print(f"operator transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (PolicyFault, PolicySpawnError) as exc:
        print(f"policy fault: {exc}", file=sys.stderr)
        return EXIT_POLICY_FAULT
    except EvPolicyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

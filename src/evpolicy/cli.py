"""Command-line entry point: simulate, ledger, evolve, compare, plot-data."""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .baseline import BaselineConfig
from .errors import (MAX_WAIT_MS, ConfigError, EvPolicyError,
                     OperatorTransportError, PolicyFault, PolicySpawnError,
                     open_utf8)
from .market import EnvTrace, load_trace, synthetic_trace
from .operators import make_operator
from .prompts import EXAMPLE_STRATEGIES, STRATEGIES
from .rewards import RewardConfig
from .runtime import DECISION_TIMEOUT_MS, PROGRAM_MODES, make_policy
from .simulation import (BatteryConfig, ConnectionSession, default_sessions,
                         read_step_log, run_episode, validate_sessions)
# The evolve and ledger modules are imported inside the commands that use
# them, so ``simulate`` starts without loading them.

DEFAULT_ITERATIONS = 10  # evolve --iters
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


def _read_json(path: str):
    """The JSON value in the file ``path``. A decode error, ``NaN``,
    ``Infinity`` or ``-Infinity`` (which ``json`` accepts by default), a
    number too large for a float (``1e400`` would read as inf), or nesting
    deeper than ``json`` can read is a ConfigError naming the file."""
    def reject(literal):
        raise ConfigError(f"{path}: {literal} is not allowed; "
                          "numbers must be finite")

    def number(literal, kind=float):
        # float() reads a literal too large for a float as inf; testing it
        # first also keeps int() from a literal of thousands of digits.
        if not math.isfinite(float(literal)):
            reject(literal)
        return kind(literal)

    with open_utf8(path) as fh:
        try:
            return json.load(fh, parse_constant=reject, parse_float=number,
                             parse_int=lambda text: number(text, int))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from None
        except RecursionError:
            raise ConfigError(f"{path}: JSON nested too deeply") from None


# Every top-level --config key that some command reads.
_CONFIG_KEYS = ("battery", "sessions", "reward", "baseline",
                "policy_timeout_ms", "trace_schema", "operator",
                "retry_base_delay", "ledger_examples")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = _read_json(path)
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    unknown = [key for key in config if key not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"{path}: unknown config key {unknown[0]!r} "
                          f"(expected {', '.join(_CONFIG_KEYS)})")
    return config


def _config_number(config: dict, key: str, default, kind=(int, float)):
    """``config[key]``, or ``default`` when absent; a value that is not a
    ``kind`` (an int, or by default any real number) is a ConfigError."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{key}: expected "
                          f"{'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    return value


def _from_config(cls, fields, section: str):
    """``cls(**fields)``; a bad field is a ConfigError naming ``section``."""
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _resolve_trace(args, config: dict) -> EnvTrace:
    if getattr(args, "synthetic", None) and getattr(args, "trace", None):
        raise ConfigError("give --trace FILE or --synthetic days=N seed=S, "
                          "not both")
    if getattr(args, "synthetic", None):
        kv = _parse_kv(args.synthetic)
        unknown = sorted(set(kv) - {"days", "seed"})
        if unknown:
            raise ConfigError(f"--synthetic: unknown key {unknown[0]!r} "
                              "(expected days, seed)")
        try:
            days, seed = int(kv.get("days", 7)), int(kv.get("seed", args.seed))
        except ValueError as exc:
            raise ConfigError(f"--synthetic: {exc}") from exc
        return synthetic_trace(days=days, seed=seed)
    if getattr(args, "trace", None):
        schema = config.get("trace_schema")
        if schema is not None and not isinstance(schema, dict):
            raise ConfigError("trace_schema: expected an object mapping "
                              f"names to columns, got {schema!r}")
        return load_trace(args.trace, schema=schema)
    raise ConfigError("provide --trace FILE or --synthetic days=N seed=S")


def _run_inputs(args) -> tuple[dict, EnvTrace, BatteryConfig,
                               list[ConnectionSession], RewardConfig,
                               BaselineConfig, float]:
    """The config, trace, battery, sessions, reward and baseline settings
    of a run, and an external policy's deadline per decision (ms)."""
    config = _load_config(args.config)
    trace = _resolve_trace(args, config)
    battery = _from_config(BatteryConfig, config.get("battery", {}), "battery")
    sessions = config.get("sessions")
    if "sessions" not in config:
        sessions = default_sessions(trace)
    elif isinstance(sessions, list):
        sessions = [_from_config(ConnectionSession, s, f"sessions[{i}]")
                    for i, s in enumerate(sessions)]
    else:
        raise ConfigError(f"sessions: expected a list of objects, "
                          f"got {sessions!r}")
    reward_cfg = _from_config(RewardConfig, config.get("reward", {}), "reward")
    baseline = _from_config(BaselineConfig, config.get("baseline", {}),
                            "baseline")
    timeout_ms = _config_number(config, "policy_timeout_ms",
                                DECISION_TIMEOUT_MS)
    if not timeout_ms > 0:
        raise ConfigError(f"policy_timeout_ms: expected a number > 0, "
                          f"got {timeout_ms!r}")
    if timeout_ms > MAX_WAIT_MS:
        raise ConfigError(f"policy_timeout_ms: expected at most "
                          f"{MAX_WAIT_MS}, got {timeout_ms!r}")
    # As run_episode checks them, so evolve fails before its first write.
    validate_sessions(sorted(sessions, key=lambda s: s.arrival_step), battery)
    return config, trace, battery, sessions, reward_cfg, baseline, timeout_ms


def _strategies(text: str) -> list[str]:
    """The comma-separated ``--strategy`` list: known names, each once."""
    strategies = [s.strip() for s in text.split(",") if s.strip()]
    if (not strategies or not set(strategies) <= set(STRATEGIES)
            or len(set(strategies)) < len(strategies)):
        raise ConfigError(f"--strategy {text!r}: expected one or more of "
                          f"{', '.join(STRATEGIES)}, each at most once")
    return strategies


def _write_run_config(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "run_config.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def cmd_simulate(args) -> int:
    (config, trace, battery, sessions, reward_cfg, baseline,
     timeout_ms) = _run_inputs(args)
    policy = make_policy(args.policy, battery, baseline, timeout_ms=timeout_ms)
    try:
        report = run_episode(trace, sessions, battery, policy, reward_cfg,
                             start_step=args.start, n_steps=args.steps)
    finally:
        policy.close()

    out_dir = Path(args.out)
    _write_run_config(out_dir, {
        "command": "simulate", "policy": args.policy, "seed": args.seed,
        "start": args.start, "steps": report.n_steps,
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
    from . import ledgers
    entries = ledgers.build_ledger(read_step_log(args.from_log))
    sample = ledgers.quadrant_sample(entries, args.n, seed=args.seed)
    ledgers.export_ledger(sample, args.out)
    print(f"wrote {len(sample)} entries to {args.out}")
    return EXIT_OK


def cmd_evolve(args) -> int:
    from . import evolve as evolve_mod
    from . import ledgers
    strategies = _strategies(args.strategy)
    # A fit score is a fraction; NaN fails this test too, and would be
    # written to run.json as a literal that JSON readers reject.
    if args.min_fit is not None and not 0.0 <= args.min_fit <= 1.0:
        raise ConfigError(f"--min-fit must be a fit score in [0, 1], "
                          f"got {args.min_fit!r}")
    (config, trace, battery, sessions, reward_cfg, baseline,
     timeout_ms) = _run_inputs(args)
    retry_base_delay = _config_number(config, "retry_base_delay",
                                      evolve_mod.RETRY_BASE_DELAY_S)
    # The last retry sleeps longest: the base delay, doubled before each
    # retry after the first.
    limit = MAX_WAIT_MS / 1000 / 2 ** (evolve_mod.TRANSPORT_RETRIES - 2)
    if retry_base_delay > limit:
        raise ConfigError(f"retry_base_delay: expected at most {limit}, "
                          f"got {retry_base_delay!r}")
    evolve_mod.evolve_window(trace, args.start, args.steps, args.iters)

    # One baseline episode feeds both the ledger examples and the fit
    # reference of the imitation and hybrid strategies.
    base_report = ledger_entries = None
    if any(s in EXAMPLE_STRATEGIES for s in strategies):
        policy = make_policy("baseline", battery, baseline)
        base_report = run_episode(trace, sessions, battery, policy, reward_cfg,
                                  start_step=args.start, n_steps=args.steps)
        n_sample = _config_number(config, "ledger_examples", 1500, int)
        ledger_entries = ledgers.quadrant_sample(
            ledgers.build_ledger(base_report.step_rows()), max(4, n_sample),
            seed=args.seed)

    # Every input is checked before the first write to ``--out``, so a
    # config error leaves no run directory behind.
    operators = {s: make_operator(args.operator,
                                  http_config=config.get("operator"))
                 for s in strategies}
    out_root = Path(args.out)
    _write_run_config(out_root, {
        "command": "evolve", "strategies": strategies, "iters": args.iters,
        "seed": args.seed, "operator": args.operator, "mode": args.mode,
        "start": args.start, "steps": args.steps, "min_fit": args.min_fit,
        "battery": asdict(battery), "reward": asdict(reward_cfg),
    })

    for strategy, operator in operators.items():
        run = evolve_mod.run_evolution(
            strategy=strategy, n_iterations=args.iters, trace=trace,
            sessions=sessions, battery=battery, operator=operator,
            reward_cfg=reward_cfg, seed=args.seed,
            ledger_entries=ledger_entries, program_mode=args.mode,
            out_dir=out_root / strategy if len(strategies) > 1 else out_root,
            start_step=args.start, n_steps=args.steps, min_fit=args.min_fit,
            retry_base_delay=retry_base_delay,
            reference=base_report, timeout_ms=timeout_ms)
        best = run.best_index
        value = (run.iterations[best].criterion if best is not None else None)
        print(f"{run.strategy}: best_index={best} criterion={value}")
    return EXIT_OK


def _read_report(path: str) -> dict:
    """What ``compare`` reads of a ``report.json`` summary, by field name:
    ``total_reward`` a number, and the window and the counts ints (a bool is
    neither)."""
    report = _read_json(path)
    try:
        metrics = report["metrics"]
        summary = {"total_reward": report["total_reward"],
                   "start_step": report["start_step"],
                   "n_steps": report["n_steps"],
                   "cycle_count": metrics["cycle_count"],
                   "flicker_count": metrics["flicker_count"],
                   "soc_violations": report["soc_violations"]}
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: not a report summary "
                          f"({type(exc).__name__}: {exc})") from exc
    for name, value in summary.items():
        number = name == "total_reward"
        if type(value) not in ((int, float) if number else (int,)):
            expected = "an int or a float" if number else "an int"
            raise ConfigError(f"{path}: not a report summary ({name} must "
                              f"be {expected}, got {value!r})")
    return summary


def cmd_compare(args) -> int:
    a, b = _read_report(args.report_a), _read_report(args.report_b)
    if (a["start_step"], a["n_steps"]) != (b["start_step"], b["n_steps"]):
        raise ConfigError("reports cover different trace windows")
    ra, rb = a["total_reward"], b["total_reward"]
    # B as a percentage of A: undefined for a zero A, totals of opposite
    # signs or a ratio too large for a float; a zero B is 0.0% (+ 0.0 turns
    # a -0.0 into 0.0).
    ratio = 100.0 * rb / ra + 0.0 if ra != 0 else math.nan
    if (rb != 0 and (ra > 0) != (rb > 0)) or not math.isfinite(ratio):
        rel = "undefined"
    else:
        rel = f"{ratio:.1f}%"

    def row(label, value_a, value_b, spec=""):
        # One space at least between columns: wide figures never run
        # together.
        print(f"{label:<17} {value_a:>13{spec}} {value_b:>13{spec}}")
    row("metric", "A", "B")
    row("total_reward", ra, rb, ".4f")
    row("relative", "100.0%", rel)
    row("delta", 0.0, rb - ra, ".4f")
    for label, name in (("cycles", "cycle_count"), ("flicker", "flicker_count"),
                        ("soc_violations", "soc_violations")):
        row(label, a[name], b[name])
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
    p.add_argument("--out", required=True,
                   help="ledger file: a .csv path for CSV, a .jsonl path "
                        "for JSON lines; any other suffix is an error")
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("evolve", help="run the prompt-evaluate-repair loop")
    add_trace_args(p)
    p.add_argument("--strategy", default="hybrid",
                   help="reasoning|imitation|hybrid (comma list allowed)")
    p.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--operator", required=True,
                   help="mock:replies.jsonl or http (configure in --config)")
    p.add_argument("--mode", default="builtin_rules", choices=PROGRAM_MODES)
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
    except OperatorTransportError as exc:
        print(f"operator transport failure: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (PolicyFault, PolicySpawnError) as exc:
        print(f"policy fault: {exc}", file=sys.stderr)
        if getattr(exc, "diagnostics", ""):  # e.g. a candidate's traceback
            print(exc.diagnostics, file=sys.stderr)
        return EXIT_POLICY_FAULT
    except (EvPolicyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

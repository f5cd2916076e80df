import csv
import json
import re
import socket
import sys
from pathlib import Path

import pytest

from evpolicy.cli import main
from evpolicy.errors import MAX_WAIT_MS
from evpolicy.ledgers import (STEP_LOG_KEYS, build_ledger, quadrant_sample,
                              render_examples)
from evpolicy.market import save_trace, synthetic_trace
from evpolicy.operators import API_KEY_ENV
from evpolicy.prompts import LEDGER_SAMPLE_SIZE
from evpolicy.simulation import read_step_log

REPLIES_JSONL = "\n".join(json.dumps({"reply": f"```\n{src}\n```"}) for src in [
    "if soc < 0.25 then max_charge_kw",
    "if discharge_price >= 0.35 and soc > 0.25 then -max_discharge_kw\n"
    "if charge_price <= 0.12 and soc < 0.8 then max_charge_kw",
]) + "\n"
PYTHON_SIGNATURE = ("def decide_power(charge_price, discharge_price, soc, ttd, "
                    "load_kw, pv_kw, max_charge_kw, max_discharge_kw):\n")


def run_simulate(tmp_path, *extra):
    out = tmp_path / "run"
    code = main(["simulate", "--synthetic", "days=1", "seed=3",
                 "--policy", "idle", "--out", str(out), *extra])
    return code, out


class TestSimulate:
    def test_writes_artifacts_and_reports_totals(self, tmp_path, capsys):
        code, out = run_simulate(tmp_path)
        assert code == 0
        captured = capsys.readouterr().out
        assert "total_reward:" in captured
        for name in ("run_config.json", "report.json", "steps.jsonl"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["n_steps"] == 288
        steps = [json.loads(l) for l in
                 (out / "steps.jsonl").read_text().splitlines()]
        assert len(steps) == 288

    def test_idle_totals_match_step_log(self, tmp_path, capsys):
        code, out = run_simulate(tmp_path)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        steps = [json.loads(l) for l in
                 (out / "steps.jsonl").read_text().splitlines()]
        recomputed = sum(s["step_reward"] for s in steps) + \
            report["total_penalty"]
        assert recomputed == pytest.approx(report["total_reward"], abs=1e-9)

    def test_rules_policy_from_file(self, tmp_path):
        rules = tmp_path / "p.rules"
        rules.write_text("if charge_price <= 0.12 and soc < 0.8 "
                         "then max_charge_kw\n")
        code, out = run_simulate(tmp_path, "--policy", str(rules))
        assert code == 0

    def test_too_deep_rules_file_is_a_parse_error(self, tmp_path, capsys):
        rules = tmp_path / "deep.rules"
        rules.write_text("if soc > 0 then " + "(" * 200 + "1" + ")" * 200)
        code, _ = run_simulate(tmp_path, "--policy", str(rules))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line 1, col ")

    def test_unknown_policy_is_config_error(self, tmp_path, capsys):
        code, _ = run_simulate(tmp_path, "--policy", "nonsense")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_trace_is_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--policy", "idle",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    def test_start_past_trace_end_is_config_error(self, tmp_path, capsys):
        code, out = run_simulate(tmp_path, "--start", "5000")
        assert code == 1
        assert "outside trace" in capsys.readouterr().err
        assert not (out / "steps.jsonl").exists()

    def test_bad_synthetic_kv_is_config_error(self, tmp_path):
        code = main(["simulate", "--synthetic", "days", "--policy", "idle",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    def test_timeout_child_is_policy_fault(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"policy_timeout_ms": 50}))
        helper = Path(__file__).parent / "helpers" / "silent_child.py"
        code = main(["simulate", "--synthetic", "days=1", "seed=3",
                     "--policy", f"cmd:{sys.executable} {helper}",
                     "--config", str(config), "--start", "216",
                     "--steps", "20", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "policy fault" in capsys.readouterr().err

    def test_policy_fault_prints_the_candidate_traceback(self, tmp_path,
                                                         capsys):
        candidate = tmp_path / "broken.py"
        candidate.write_text("def decide_power(charge_price\n    return 0\n")
        code, _ = run_simulate(
            tmp_path, "--policy",
            f"cmd:{sys.executable} -m evpolicy.pydriver {candidate}")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("policy fault: policy process closed its stdout")
        assert "SyntaxError" in err


CONFIG_MISTAKES = {
    "unknown_battery_key": {"battery": {"capacity": 40}},
    "unknown_top_level_key": {"batery": {"capacity_kwh": 10},
                              "policy_timout_ms": 5},
    "unknown_baseline_key": {"baseline": {"peak_price": 0.3}},
    "session_missing_fields": {"sessions": [{"arrival_step": 0}]},
    "unknown_reward_mode": {"reward": {"mode": "nrm"}},
    "config_is_a_list": [],
    "sessions_not_a_list": {"sessions": 5},
    "trace_schema_not_an_object": {"trace_schema": 5},
    "trace_schema_column_not_a_string": {"trace_schema": {"timestamp": [0]}},
    "session_soc_a_string": {"sessions": [
        {"arrival_step": 0, "departure_step": 9, "arrival_soc": "0.5"}]},
    "session_soc_a_bool": {"sessions": [
        {"arrival_step": 0, "departure_step": 9, "arrival_soc": True}]},
    "battery_value_a_bool": {"battery": {"max_charge_kw": True}},
    "battery_value_a_string": {"battery": {"capacity_kwh": "40"}},
    "session_step_a_float": {"sessions": [
        {"arrival_step": 0.5, "departure_step": 100, "arrival_soc": 0.5}]},
    "session_step_a_bool": {"sessions": [
        {"arrival_step": False, "departure_step": 100, "arrival_soc": 0.5}]},
    "capacity_0": {"battery": {"capacity_kwh": 0}},
    "soc_min_not_below_soc_max": {"battery": {"soc_min": 0.6, "soc_max": 0.6}},
    "charge_eff_0": {"battery": {"charge_eff": 0}},
    "max_charge_kw_0": {"battery": {"max_charge_kw": 0}},
    "cheap_price_threshold_0": {"baseline": {"cheap_price_threshold": 0}},
    "min_soc_reserve_1": {"baseline": {"min_soc_reserve": 1}},
    "reward_coefficient_negative": {
        "reward": {"satisfaction_exponent_scale": -1}},
    "departure_not_after_arrival": {"sessions": [
        {"arrival_step": 50, "departure_step": 50, "arrival_soc": 0.5}]},
    "target_soc_above_soc_max": {"battery": {"soc_max": 0.85}, "sessions": [
        {"arrival_step": 0, "departure_step": 100, "arrival_soc": 0.5,
         "target_soc": 0.9}]},
}


class TestConfigErrors:
    @pytest.mark.parametrize("config", CONFIG_MISTAKES.values(),
                             ids=CONFIG_MISTAKES.keys())
    def test_config_mistake_is_an_error_line(self, tmp_path, capsys, config):
        # A trace file, not --synthetic, so that trace_schema is read.
        trace = tmp_path / "trace.csv"
        save_trace(synthetic_trace(days=1, seed=3), trace)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--trace", str(trace), "--policy", "baseline",
                     "--config", str(path), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_naive_and_aware_timestamps_are_an_error_line(self, tmp_path,
                                                          capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("timestamp,load_kw,pv_kw,buy_price,sell_price\n"
                         "2024-01-01T00:00:00,0.5,0,0.1,0.1\n"
                         "2024-01-01T00:05:00+00:00,0.5,0,0.1,0.1\n")
        code = main(["simulate", "--trace", str(trace), "--policy", "idle",
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {trace}: row 2: ")
        assert "Traceback" not in err

    def test_non_integer_session_step_on_a_synthetic_trace(self, tmp_path,
                                                          capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(CONFIG_MISTAKES["session_step_a_float"]))
        code = main(["simulate", "--synthetic", "days=1", "--policy", "idle",
                     "--config", str(path), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: session step must be an int, got 0.5\n"

    # Python's json reads NaN, Infinity and -Infinity, none of which is a
    # usable setting: NaN once reached report.json, and a NaN timeout spun.
    @pytest.mark.parametrize("text,constant", [
        ('{"battery": {"capacity_kwh": NaN}}', "NaN"),
        ('{"reward": {"deficit_penalty_coeff": NaN}}', "NaN"),
        ('{"policy_timeout_ms": Infinity}', "Infinity"),
        # Too large for a float: once -Infinity in report.json, an
        # OverflowError from selectors and one from int-to-float.
        ('{"reward": {"deficit_penalty_coeff": 1e400}}', "1e400"),
        ('{"policy_timeout_ms": -1e400}', "-1e400"),
        ('{"battery": {"capacity_kwh": %s}}' % ("9" * 400), "9" * 400),
        # Past int()'s 4300-digit limit: once a ValueError traceback.
        ('{"battery": {"capacity_kwh": %s}}' % ("9" * 5000), "9" * 5000),
    ], ids=["capacity_nan", "deficit_penalty_nan", "timeout_infinity",
            "deficit_penalty_1e400", "timeout_minus_1e400",
            "capacity_400_digits", "capacity_5000_digits"])
    def test_non_finite_config_number_is_an_error_line(self, tmp_path, capsys,
                                                       text, constant):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = main(["simulate", "--synthetic", "days=1", "seed=3",
                     "--policy", "baseline", "--config", str(path),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {path}: {constant} is not allowed; "
                       "numbers must be finite\n")
        assert not (tmp_path / "run").exists()

    # Every command parses every config section, whichever policy or
    # strategy it runs.
    @pytest.mark.parametrize("command", [
        ["simulate", "--policy", "idle"],
        ["evolve", "--strategy", "reasoning", "--operator", "mock:{replies}"],
    ], ids=["simulate-idle", "evolve-reasoning"])
    def test_bad_baseline_section_is_an_error_on_every_command(
            self, tmp_path, capsys, command):
        replies = tmp_path / "replies.jsonl"
        replies.write_text(REPLIES_JSONL)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"baseline": {"bogus": 1}}))
        out = tmp_path / "run"
        code = main([*(arg.format(replies=replies) for arg in command),
                     "--synthetic", "days=1", "seed=3", "--config", str(path),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: baseline: ") and err.count("\n") == 1
        assert "'bogus'" in err
        assert not out.exists()

    # Each once ran: a string ended in a TypeError traceback mid-rollout,
    # and the rest were used as given.
    @pytest.mark.parametrize("baseline,message", [
        ({"target_soc": "x"}, "target_soc must be an int or a float, got 'x'"),
        ({"cheap_price_threshold": True},
         "cheap_price_threshold must be an int or a float, got True"),
        ({"target_soc": 1.7}, "target_soc must be in (0, 1]"),
        ({"target_soc": 0}, "target_soc must be in (0, 1]"),
    ], ids=["target_soc_a_string", "threshold_a_bool", "target_soc_above_1",
            "target_soc_0"])
    def test_bad_baseline_value_is_an_error_line(self, tmp_path, capsys,
                                                 baseline, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"baseline": baseline}))
        out = tmp_path / "run"
        code = main(["simulate", "--synthetic", "days=1", "seed=1",
                     "--policy", "baseline", "--config", str(path),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # Each once ran: a bool was used as 1 and a string ended in a
    # TypeError from a comparison.
    @pytest.mark.parametrize("reward,message", [
        ({"satisfaction_weight": True},
         "satisfaction_weight must be an int or a float, got True"),
        ({"deficit_penalty_coeff": "10"},
         "deficit_penalty_coeff must be an int or a float, got '10'"),
    ], ids=["weight_a_bool", "coeff_a_string"])
    def test_bad_reward_value_is_an_error_line(self, tmp_path, capsys, reward,
                                               message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"reward": reward}))
        out = tmp_path / "run"
        code = main(["simulate", "--synthetic", "days=1", "seed=1",
                     "--policy", "baseline", "--config", str(path),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # A deadline of 0 or less once timed out every decision of a cmd:
    # policy, which ended in a policy fault after three of them.
    @pytest.mark.parametrize("command,timeout_ms", [
        (["simulate", "--policy",
          "cmd:{python} -m evpolicy.pydriver {helpers}/price_candidate.py"],
         -5),
        (["simulate", "--policy", "idle"], 0),
        (["evolve", "--strategy", "reasoning", "--operator",
          "mock:{replies}"], -5),
    ], ids=["simulate-cmd", "simulate-idle", "evolve-reasoning"])
    def test_non_positive_policy_timeout_is_an_error_on_every_command(
            self, tmp_path, capsys, command, timeout_ms):
        replies = tmp_path / "replies.jsonl"
        replies.write_text(REPLIES_JSONL)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"policy_timeout_ms": timeout_ms}))
        out = tmp_path / "run"
        fields = {"replies": replies, "python": sys.executable,
                  "helpers": Path(__file__).parent / "helpers"}
        code = main([*(arg.format(**fields) for arg in command),
                     "--synthetic", "days=1", "seed=3", "--config", str(path),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: policy_timeout_ms: expected a number > 0, "
            f"got {timeout_ms}\n")
        assert not out.exists()

    # Each once wrote run_config.json and iteration 0's files, and sent one
    # operator request, before the rollout found it.
    @pytest.mark.parametrize("config,message", [
        ({"sessions": [{"arrival_step": 0, "departure_step": 100,
                        "arrival_soc": 0.1}]},
         "arrival_soc 0.1 outside SoC bounds"),
        ({"sessions": [
            {"arrival_step": 50, "departure_step": 150, "arrival_soc": 0.5},
            {"arrival_step": 0, "departure_step": 60, "arrival_soc": 0.5}]},
         "sessions must be ordered and non-overlapping"),
        ({"battery": {"soc_max": 0.7}}, "target_soc 0.8 outside SoC bounds"),
    ], ids=["arrival_soc_out_of_bounds", "overlapping", "default_target_soc"])
    def test_bad_session_stops_evolve_before_any_write(self, tmp_path, capsys,
                                                       config, message):
        replies = tmp_path / "replies.jsonl"
        replies.write_text(REPLIES_JSONL)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = main(["evolve", "--synthetic", "days=1", "seed=0",
                     "--strategy", "reasoning", "--iters", "2",
                     "--operator", f"mock:{replies}", "--config", str(path),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_integer_synthetic_days(self, tmp_path, capsys):
        code = main(["simulate", "--synthetic", "days=abc", "--policy", "idle",
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err


DEEP_JSON = "[" * 3000 + "]" * 3000  # deeper than json's recursion limit


# Mistakes in the arguments and the files they name, several of which once
# ended in a Python traceback: each is one ``error:`` line naming what was
# wrong, exit 1, and no ``--out``.
OUTSIDE_INPUT_MISTAKES = {
    "synthetic_zero_days": (["simulate", "--synthetic", "days=0",
                             "--policy", "idle"], "days must be >= 1"),
    "operator_unknown": (["evolve", "--operator", "bogus"],
                         "unknown operator spec 'bogus'"),
    "replies_empty": (["evolve", "--operator", "mock:{tmp}/empty.jsonl"],
                      "mock operator needs at least one reply"),
    "cmd_empty": (["simulate", "--policy", "cmd:"], "cmd:"),
    "cmd_unclosed_quote": (["simulate", "--policy", 'cmd:python "x'],
                           "No closing quotation"),
    # A fit score is a fraction; a NaN floor was written into run.json.
    "min_fit_nan": (["evolve", "--operator", "mock:{tmp}/replies.jsonl",
                     "--min-fit", "nan"],
                    "--min-fit must be a fit score in [0, 1], got nan"),
    "min_fit_infinite": (["evolve", "--operator", "mock:{tmp}/replies.jsonl",
                          "--min-fit", "inf"], "got inf"),
    "min_fit_above_1": (["evolve", "--operator", "mock:{tmp}/replies.jsonl",
                         "--min-fit", "1.5"], "got 1.5"),
    "min_fit_negative": (["evolve", "--operator", "mock:{tmp}/replies.jsonl",
                          "--min-fit", "-0.1"], "got -0.1"),
    "synthetic_unknown_key": (["simulate", "--synthetic", "dys=2", "seed=0",
                               "--policy", "baseline"], "'dys'"),
    "reply_missing": (["evolve", "--operator", "mock:{tmp}/text.jsonl"],
                      "text.jsonl: line 1: "),
    "reply_not_a_string": (["evolve", "--operator", "mock:{tmp}/five.jsonl"],
                           "five.jsonl: line 1: "),
    "ledger_from_an_object_row": (
        ["ledger", "--from", "{tmp}/text.jsonl", "--out", "{tmp}/l.csv"],
        "text.jsonl: line 1: not a step-log row"),
    "ledger_from_a_list_row": (
        ["ledger", "--from", "{tmp}/list.jsonl", "--out", "{tmp}/l.csv"],
        "list.jsonl: line 2: not a step-log row"),
    "plot_data_from_an_object_row": (
        ["plot-data", "--steps", "{tmp}/text.jsonl", "--out", "{tmp}/p.csv"],
        "text.jsonl: line 1: not a step-log row"),
    "config_a_directory": (["simulate", "--policy", "idle",
                            "--config", "{tmp}"], "Is a directory"),
    "trace_a_directory": (["simulate", "--policy", "idle", "--trace", "{tmp}"],
                          "Is a directory"),
    "out_an_existing_file": (["simulate", "--policy", "idle",
                              "--out", "{tmp}/five.jsonl"], "File exists"),
    # A line that is not JSON: the file and its line, not only the column.
    "config_not_json": (["simulate", "--policy", "idle",
                         "--config", "{tmp}/garbled.jsonl"],
                        "garbled.jsonl: line 2, column 1: Expecting value"),
    "replies_line_not_json": (["evolve", "--operator",
                               "mock:{tmp}/garbled.jsonl"],
                              "garbled.jsonl: line 2, column 1: "
                              "Expecting value"),
    "step_log_line_not_json": (
        ["ledger", "--from", "{tmp}/garbled.jsonl", "--out", "{tmp}/l.csv"],
        "garbled.jsonl: line 2, column 1: Expecting value"),
    # A file that is not UTF-8, one row per reader: each ended in a
    # UnicodeDecodeError traceback.
    "rules_not_utf8": (["simulate", "--policy", "{tmp}/latin1.rules"],
                       "latin1.rules: not UTF-8 text"),
    "config_not_utf8": (["simulate", "--policy", "idle",
                         "--config", "{tmp}/latin1.json"],
                        "latin1.json: not UTF-8 text"),
    "trace_not_utf8": (["simulate", "--policy", "idle",
                        "--trace", "{tmp}/latin1.json"],
                       "latin1.json: not UTF-8 text"),
    "step_log_not_utf8": (
        ["ledger", "--from", "{tmp}/latin1.json", "--out", "{tmp}/l.csv"],
        "latin1.json: not UTF-8 text"),
    "replies_not_utf8": (["evolve", "--operator", "mock:{tmp}/latin1.json"],
                         "latin1.json: not UTF-8 text"),
    # Nesting deeper than json can read, one row per reader: each ended in a
    # RecursionError traceback.
    "config_nested_too_deeply": (["simulate", "--policy", "idle",
                                  "--config", "{tmp}/deep.json"],
                                 "deep.json: JSON nested too deeply"),
    "replies_nested_too_deeply": (["evolve", "--operator",
                                   "mock:{tmp}/deep.json"],
                                  "deep.json: line 2: JSON nested too deeply"),
    "step_log_nested_too_deeply": (
        ["ledger", "--from", "{tmp}/deep.json", "--out", "{tmp}/l.csv"],
        "deep.json: line 2: JSON nested too deeply"),
    "plot_data_nested_too_deeply": (
        ["plot-data", "--steps", "{tmp}/deep.json", "--out", "{tmp}/p.csv"],
        "deep.json: line 2: JSON nested too deeply"),
    # A key that evolve once read: the examples shown are a fixed count.
    "config_ledger_examples": (["evolve", "--operator",
                                "mock:{tmp}/replies.jsonl",
                                "--config", "{tmp}/ledger.json"],
                               "ledger.json: unknown config key "
                               "'ledger_examples' (expected battery, "),
    # The trace was the synthetic one, and run_config.json named the file.
    "trace_and_synthetic": (["simulate", "--policy", "idle",
                             "--synthetic", "days=1",
                             "--trace", "{tmp}/missing.csv"],
                            "not both"),
}


class TestOutsideInput:
    @pytest.mark.parametrize("argv,expected", OUTSIDE_INPUT_MISTAKES.values(),
                             ids=OUTSIDE_INPUT_MISTAKES.keys())
    def test_outside_input_mistake_is_an_error_line(self, tmp_path, capsys,
                                                    argv, expected):
        (tmp_path / "text.jsonl").write_text('{"text": "x"}\n')
        (tmp_path / "five.jsonl").write_text('{"reply": 5}\n')
        (tmp_path / "list.jsonl").write_text("\n[1]\n")
        (tmp_path / "garbled.jsonl").write_text("\nnot json\n")
        (tmp_path / "empty.jsonl").write_text("")
        (tmp_path / "replies.jsonl").write_text(REPLIES_JSONL)
        for name in ("latin1.rules", "latin1.json"):
            (tmp_path / name).write_bytes(b"\xff" + b"if soc < 1 then 1\n")
        (tmp_path / "deep.json").write_text(f"\n{DEEP_JSON}\n")
        (tmp_path / "ledger.json").write_text('{"ledger_examples": 1500}\n')
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if (argv[0] in ("simulate", "evolve")
                and not {"--synthetic", "--trace"} & set(argv)):
            argv += ["--synthetic", "days=1", "seed=3"]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "run")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert expected in err
        assert not (tmp_path / "run").exists()


def closed_port_url():
    """An http URL on this host where nothing listens."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}/"


WRONG_TYPES = {
    "operator_not_an_object": (
        {"operator": 5}, ["evolve", "--operator", "http"]),
    "policy_timeout_not_a_number": (
        {"policy_timeout_ms": "abc"},
        ["simulate", "--policy",
         "cmd:{python} -m evpolicy.pydriver {helpers}/price_candidate.py"]),
    "retry_delay_not_a_number": (
        {"retry_base_delay": "x", "operator": {"url": "{url}", "model": "m"}},
        ["evolve", "--strategy", "reasoning", "--operator", "http"]),
    "operator_timeout_not_a_number": (
        {"operator": {"url": "{url}", "model": "m", "timeout_s": "x"}},
        ["evolve", "--strategy", "reasoning", "--operator", "http"]),
}


# Durations past the longest wait a run may schedule, MAX_WAIT_MS: each
# overflowed in select, socket.settimeout or time.sleep, with a traceback,
# and the last two after the run directory was written.
TOO_LONG_WAITS = {
    "policy_timeout": (
        {"policy_timeout_ms": MAX_WAIT_MS + 1},
        ["simulate", "--policy",
         "cmd:{python} -m evpolicy.pydriver {helpers}/price_candidate.py"],
        "policy_timeout_ms: expected at most 2147483647, got 2147483648"),
    "retry_delay": (
        {"retry_base_delay": 1e300, "operator": {"url": "{url}", "model": "m"}},
        ["evolve", "--strategy", "reasoning", "--operator", "http"],
        "retry_base_delay: expected at most 1073741.8235, got 1e+300"),
    "operator_timeout": (
        {"operator": {"url": "{url}", "model": "m", "timeout_s": 1e10}},
        ["evolve", "--strategy", "reasoning", "--operator", "http"],
        "operator.timeout_s: expected at most 2147483.647, "
        "got 10000000000.0"),
}


def run_with_config(tmp_path, config: dict, command: list) -> int:
    """``main`` on ``command`` with ``config`` as ``--config``, a one-day
    synthetic trace and ``--out tmp_path/run``; ``{url}`` in the config is
    a closed local port."""
    replies = tmp_path / "replies.jsonl"
    replies.write_text(REPLIES_JSONL)
    fields = {"replies": replies, "python": sys.executable,
              "helpers": Path(__file__).parent / "helpers",
              "url": closed_port_url()}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config).replace("{url}", fields["url"]))
    return main([*(arg.format(**fields) for arg in command),
                 "--synthetic", "days=1", "seed=3", "--config", str(path),
                 "--out", str(tmp_path / "run")])


class TestWrongTypes:
    @pytest.mark.parametrize("config,command", WRONG_TYPES.values(),
                             ids=WRONG_TYPES.keys())
    def test_wrong_type_is_an_error_line(self, tmp_path, capsys, config,
                                         command):
        code = run_with_config(tmp_path, config, command)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("config,command,message", TOO_LONG_WAITS.values(),
                             ids=TOO_LONG_WAITS.keys())
    def test_a_wait_past_the_longest_is_an_error_line(
            self, tmp_path, capsys, config, command, message):
        code = run_with_config(tmp_path, config, command)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_the_longest_decision_deadline_runs(self, tmp_path, capsys):
        # select takes it: the bound is not one millisecond too tight.
        code = run_with_config(tmp_path, {"policy_timeout_ms": MAX_WAIT_MS},
                               TOO_LONG_WAITS["policy_timeout"][1])
        assert code == 0, capsys.readouterr().err

    def test_compare_given_deep_json_is_an_error_line(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        code = main(["compare", str(deep), summary(tmp_path, "b.json", 1.0)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {deep}: JSON nested too deeply\n")

    def test_compare_given_a_run_json_is_an_error_line(self, tmp_path,
                                                       capsys):
        run = tmp_path / "run.json"
        run.write_text(json.dumps({"strategy": "reasoning", "seed": 0,
                                   "config": {}, "best_index": None,
                                   "iterations": []}))
        code = main(["compare", str(run), summary(tmp_path, "b.json", 1.0)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {run}: not a report summary")
        assert err.count("\n") == 1


class TestLedgerCommand:
    def test_ledger_from_step_log(self, tmp_path, capsys):
        _, out = run_simulate(tmp_path)
        ledger_path = tmp_path / "ledger.csv"
        code = main(["ledger", "--from", str(out / "steps.jsonl"),
                     "--n", "40", "--seed", "1", "--out", str(ledger_path)])
        assert code == 0
        with open(ledger_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        assert {"step", "quadrant", "action_kw"} <= set(rows[0])

    def test_missing_log_is_config_error(self, tmp_path):
        code = main(["ledger", "--from", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "l.csv")])
        assert code == 1

    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        _, out = run_simulate(tmp_path)
        capsys.readouterr()
        ledger_path = tmp_path / "missing" / "l.jsonl"
        code = main(["ledger", "--from", str(out / "steps.jsonl"),
                     "--out", str(ledger_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and str(ledger_path) in err
        assert "Traceback" not in err

    def test_out_with_another_suffix_is_one_error_line(self, tmp_path, capsys):
        _, out = run_simulate(tmp_path)
        capsys.readouterr()
        ledger_path = tmp_path / "l.json"
        code = main(["ledger", "--from", str(out / "steps.jsonl"),
                     "--out", str(ledger_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {ledger_path}: a ledger file must end in "
                       ".csv or .jsonl\n")
        assert not ledger_path.exists()


class TestEvolveCommand:
    def test_mock_run_prints_best(self, tmp_path, capsys):
        replies = tmp_path / "replies.jsonl"
        replies.write_text(REPLIES_JSONL)
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "2",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        assert "best_index=" in capsys.readouterr().out
        assert (out / "run.json").exists()
        assert (out / "iter_1" / "report.json").exists()

    def test_hybrid_runs_one_baseline_episode(self, tmp_path, monkeypatch):
        import evpolicy.cli
        import evpolicy.evolve
        from evpolicy.simulation import run_episode
        policies = []

        def counting(*args, **kwargs):
            policies.append(args[3].name)
            return run_episode(*args, **kwargs)
        monkeypatch.setattr(evpolicy.cli, "run_episode", counting)
        monkeypatch.setattr(evpolicy.evolve, "run_episode", counting)
        replies = tmp_path / "replies.jsonl"
        replies.write_text(REPLIES_JSONL)
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "hybrid", "--iters", "2",
                     "--operator", f"mock:{replies}",
                     "--out", str(tmp_path / "evo")])
        assert code == 0
        assert len([p for p in policies if "baseline" in p]) == 1
        assert len(policies) == 3

    def test_example_strategies_show_the_one_reference_sample(self, tmp_path):
        # A 1600-step window holds more steps than the prompt shows, so the
        # sample depends on --seed; both strategies draw it from the one
        # baseline episode that simulate writes as its step log.
        replies = tmp_path / "replies.jsonl"
        replies.write_text(REPLIES_JSONL)
        window = ["--synthetic", "days=7", "seed=3", "--steps", "1600"]
        assert main(["evolve", *window, "--strategy", "imitation,hybrid",
                     "--iters", "1", "--seed", "5", "--operator",
                     f"mock:{replies}", "--out", str(tmp_path / "evo")]) == 0
        assert main(["simulate", *window, "--policy", "baseline",
                     "--out", str(tmp_path / "base")]) == 0
        rows = read_step_log(tmp_path / "base" / "steps.jsonl")
        sample = quadrant_sample(
            build_ledger({key: [row[key] for row in rows]
                          for key in STEP_LOG_KEYS}),
            LEDGER_SAMPLE_SIZE, seed=5)
        assert len(sample) == LEDGER_SAMPLE_SIZE < 1600
        block = f"BASELINE BEHAVIOR SUMMARY:\n{render_examples(sample)}\n\n"
        for strategy in ("imitation", "hybrid"):
            prompt = tmp_path / "evo" / strategy / "iter_0" / "prompt.txt"
            assert block in prompt.read_text()

    def test_non_finite_horizon_reply_does_not_end_the_run(self, tmp_path):
        nines = "9" * 400
        replies = tmp_path / "replies.jsonl"
        replies.write_text("\n".join(json.dumps({"reply": f"```\n{src}\n```"})
                                     for src in [
            f"if soc > 0 then fc_max({nines})",
            "if charge_price <= 0.12 and soc < 0.8 then max_charge_kw",
        ]) + "\n")
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "2",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        # Every plugged-in decision of the first reply faults, so it fails.
        first, second = (it["failure"] for it in run["iterations"])
        assert first.startswith("policy faults: ")
        assert "non-finite forecast horizon" in first
        assert second is None
        assert run["best_index"] == 1

    def test_too_deep_reply_fails_one_iteration(self, tmp_path):
        sources = ["if soc < 0.25 then max_charge_kw",
                   "if soc > 0 then " + " + ".join(["0.001"] * 1500),
                   "if charge_price <= 0.12 and soc < 0.8 then max_charge_kw"]
        replies = tmp_path / "replies.jsonl"
        replies.write_text("".join(json.dumps({"reply": f"```\n{src}\n```"})
                                   + "\n" for src in sources))
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "3",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        failures = [it["failure"] for it in
                    json.loads((out / "run.json").read_text())["iterations"]]
        assert failures[0] is None and failures[2] is None
        assert failures[1].startswith("policy construction failed: line 1, ")
        assert "deeper than" in failures[1]

    def test_next_prompt_shows_the_script_that_failed_to_build(self,
                                                               tmp_path):
        too_deep = "if soc > 0 then " + " + ".join(["0.001"] * 1500)
        replies = tmp_path / "replies.jsonl"
        replies.write_text("".join(
            json.dumps({"reply": reply}) + "\n"
            for reply in ["```\nif soc < 0.25 then max_charge_kw\n```",
                          f"```\n{too_deep}\n```", "no code here, sorry"]))
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "4",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        _, deep, no_code, _ = run["iterations"]
        assert "deeper than" in deep["failure"] and deep["issues"] == []
        prompt = (out / "iter_2" / "prompt.txt").read_text()
        assert f"PREVIOUS FUNCTION:\n```\n{too_deep}\n```" in prompt
        assert deep["failure"] in prompt
        # A reply with no code keeps its sentence, and the program before it.
        assert no_code["failure"] == "extraction failure: no code block found"
        prompt = (out / "iter_3" / "prompt.txt").read_text()
        assert f"PREVIOUS FUNCTION:\n```\n{too_deep}\n```" in prompt
        assert ("- Your previous reply contained no usable code block. "
                "Regenerate and put the policy in a fenced code block.\n"
                in prompt)

    def test_prompt_after_a_no_code_reply_shows_no_reward(self, tmp_path):
        replies = tmp_path / "replies.jsonl"
        replies.write_text(json.dumps({"reply": "no code here, sorry"}) + "\n"
                           + REPLIES_JSONL)
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "3",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        # No episode ran on iteration 0, so its evaluation has no reward.
        prompt = (out / "iter_1" / "prompt.txt").read_text()
        assert ("EVALUATION RESULTS (Iteration 1):\n\nISSUES IDENTIFIED:"
                in prompt)
        assert "Total reward:" not in prompt
        assert "Average profit per step:" not in prompt
        # The episode of iteration 1 ran, so its evaluation has both lines.
        prompt = (out / "iter_2" / "prompt.txt").read_text()
        assert "EVALUATION RESULTS (Iteration 2):\nTotal reward: " in prompt
        assert "\nAverage profit per step: " in prompt

    def test_next_prompt_shows_the_python_candidate_that_failed(self,
                                                                tmp_path):
        sources = [PYTHON_SIGNATURE + "    " + body for body in [
            "return max_charge_kw if soc < 0.9 else 0.0",
            "raise RuntimeError('boom')", "return (0.0"]]
        replies = tmp_path / "replies.jsonl"
        replies.write_text("".join(json.dumps({"reply": f"```\n{src}\n```"})
                                   + "\n" for src in sources))
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "4",
                     "--mode", "external_process",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        for k, src, quoted in [(2, sources[1],
                                "candidate raised: RuntimeError: boom"),
                               (3, sources[2], "SyntaxError")]:
            failure = run["iterations"][k - 1]["failure"]
            assert failure.startswith("policy fault at step ")
            assert quoted in failure
            assert run["iterations"][k - 1]["issues"] == []
            prompt = (out / f"iter_{k}" / "prompt.txt").read_text()
            assert f"PREVIOUS FUNCTION:\n```\n{src}\n```" in prompt
            assert failure in prompt
        assert run["best_index"] == 0

    def test_candidates_do_not_see_the_operator_key(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-secret-123")
        source = ("import os\n" + PYTHON_SIGNATURE + "    raise RuntimeError("
                  "'key=' + str(os.environ.get('EVPOLICY_API_KEY')))")
        replies = tmp_path / "replies.jsonl"
        replies.write_text(json.dumps({"reply": f"```\n{source}\n```"}) + "\n")
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=2", "seed=1",
                     "--strategy", "reasoning", "--iters", "1",
                     "--mode", "external_process",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        text = (out / "run.json").read_text()
        assert "sk-secret-123" not in text
        [only] = json.loads(text)["iterations"]
        assert "candidate raised: RuntimeError: key=None" in only["failure"]

    def test_policy_timeout_ms_is_the_candidates_deadline(self, tmp_path):
        # A candidate that takes 0.3 s per decision times out under a 100 ms
        # deadline: three timeouts in a row end its episode.
        source = ("import time\n" + PYTHON_SIGNATURE
                  + "    time.sleep(0.3)\n    return 0.0")
        replies = tmp_path / "replies.jsonl"
        replies.write_text(json.dumps({"reply": f"```\n{source}\n```"}) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"policy_timeout_ms": 100, "sessions": [
            {"arrival_step": 0, "departure_step": 288, "arrival_soc": 0.5}]}))
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--config", str(config), "--steps", "3",
                     "--strategy", "reasoning", "--iters", "1",
                     "--mode", "external_process",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        [only] = json.loads((out / "run.json").read_text())["iterations"]
        assert only["failure"].startswith(
            "policy fault at step 2: 3 consecutive policy faults "
            "(last: timeout waiting for reply)")

    def test_a_fault_during_fit_scoring_names_its_step(self, tmp_path):
        source = PYTHON_SIGNATURE + (
            "    return 1.0 if soc < 0.5 else float('x' if soc > 0.6 else 0)")
        replies = tmp_path / "replies.jsonl"
        replies.write_text(json.dumps({"reply": f"```\n{source}\n```"}) + "\n")
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=2", "seed=1",
                     "--strategy", "imitation", "--iters", "1",
                     "--mode", "external_process",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        [only] = json.loads((out / "run.json").read_text())["iterations"]
        match = re.match(r"policy fault at step (\d+) during fit scoring: "
                         r"3 consecutive policy faults", only["failure"])
        assert match is not None, only["failure"]
        # The step is the last faulting decision's, as its log names it.
        assert (f"step {match.group(1)}: candidate raised: ValueError"
                in only["failure"])

    @pytest.mark.parametrize("strategy", ["", ",", " , ", "hybrid,hybird",
                                          "hybrid,hybrid"])
    def test_bad_strategy_list_fails_before_any_write(self, tmp_path, capsys,
                                                      strategy):
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", strategy, "--iters", "1",
                     "--operator", "mock:/no/such/file.jsonl",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_one_strategy_with_trailing_comma_writes_to_out(self, tmp_path):
        replies = tmp_path / "replies.jsonl"
        replies.write_text(REPLIES_JSONL)
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning,", "--iters", "1",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        assert (out / "run.json").exists()
        assert not (out / "reasoning").exists()

    def test_python_candidates_skip_one_that_does_not_parse(self, tmp_path):
        sources = ["def decide_power(charge_price\n    return 0",
                   (Path(__file__).parent / "helpers"
                    / "price_candidate.py").read_text()]
        replies = tmp_path / "replies.jsonl"
        replies.write_text("".join(json.dumps({"reply": f"```\n{src}\n```"})
                                   + "\n" for src in sources))
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "2",
                     "--mode", "external_process",
                     "--operator", f"mock:{replies}", "--out", str(out)])
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        bad, good = run["iterations"]
        assert bad["failure"].startswith("policy fault at step ")
        assert "closed its stdout (exit code 1)" in bad["failure"]
        assert "SyntaxError" in bad["failure"]
        assert good["failure"] is None
        assert run["best_index"] == 1

    # A working candidate, then one that faults on every decision. Scored
    # as idle, the faulting one would fit the baseline better on this trace.
    @pytest.mark.parametrize("mode,sources,first_fault", [
        ("builtin_rules", ["if soc < 0.9 then max_charge_kw",
                           "if soc >= 0 then 1 / (soc - soc)"],
         "division by zero"),
        ("external_process",
         [PYTHON_SIGNATURE + "    return max_charge_kw if soc < 0.9 else 0.0",
          PYTHON_SIGNATURE + "    raise RuntimeError('boom')"],
         "candidate raised: RuntimeError: boom"),
    ], ids=["rules", "python"])
    def test_a_candidate_that_faults_is_never_selected(self, tmp_path, mode,
                                                        sources, first_fault):
        replies = tmp_path / "replies.jsonl"
        replies.write_text("".join(json.dumps({"reply": f"```\n{src}\n```"})
                                   + "\n" for src in sources))
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=7", "seed=1",
                     "--strategy", "imitation", "--iters", "3",
                     "--mode", mode, "--operator", f"mock:{replies}",
                     "--out", str(out)])
        assert code == 0
        run = json.loads((out / "run.json").read_text())
        good, bad, _ = run["iterations"]
        assert good["failure"] is None
        assert first_fault in bad["failure"]
        assert run["best_index"] == 0
        if mode == "builtin_rules":  # ran to the end, every decision faulted
            assert bad["failure"].startswith("policy faults: ")
            assert bad["total_reward"] is not None
            assert (out / "iter_1" / "report.json").exists()
            assert bad["issues"][0]["text"].startswith(
                "The policy faulted on ")
            assert first_fault in bad["issues"][0]["text"]
            # The repeated last reply sees the faults in its prompt.
            prompt = (out / "iter_2" / "prompt.txt").read_text()
            assert bad["issues"][0]["text"] in prompt
        else:  # three consecutive faults stop the episode
            assert bad["failure"].startswith("policy fault at step ")

    @pytest.mark.parametrize("window", [["--steps", "0"], ["--start", "300"]],
                             ids=["empty", "past-the-end"])
    def test_bad_window_is_an_error_line(self, tmp_path, capsys, window):
        replies = tmp_path / "replies.jsonl"
        replies.write_text(REPLIES_JSONL)
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "1",
                     "--operator", f"mock:{replies}",
                     "--out", str(tmp_path / "evo"), *window])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("extra,config", [
        (["--steps", "0", "--operator", "mock:{replies}"], {}),
        (["--operator", "mock:/no/such/file.jsonl"], {}),
        (["--operator", "http"], {"operator": 5}),
    ], ids=["empty-window", "bad-operator-spec", "bad-operator-object"])
    def test_config_error_fails_before_any_write(self, tmp_path, capsys,
                                                 extra, config):
        replies = tmp_path / "replies.jsonl"
        replies.write_text(REPLIES_JSONL)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "evo"
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--strategy", "reasoning", "--iters", "1",
                     "--config", str(path), "--out", str(out),
                     *(arg.format(replies=replies) for arg in extra)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_replies_file_is_config_error(self, tmp_path):
        code = main(["evolve", "--synthetic", "days=1", "seed=3",
                     "--operator", "mock:/no/such/file.jsonl",
                     "--out", str(tmp_path / "evo")])
        assert code == 1


def summary(tmp_path, name, total_reward, cycles=4, flicker=0):
    payload = {"total_reward": total_reward, "start_step": 0, "n_steps": 288,
               "soc_violations": 0,
               "metrics": {"cycle_count": cycles, "flicker_count": flicker}}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# Fields of a report summary that compare reads, each of a wrong type; every
# one once ended in a traceback or was compared as a number.
REPORT_TYPE_MISTAKES = {
    "total_reward_a_string": ({"total_reward": "x"},
                              "total_reward must be an int or a float, "
                              "got 'x'"),
    "total_reward_a_bool": ({"total_reward": True},
                            "total_reward must be an int or a float, "
                            "got True"),
    "cycle_count_a_list": ({"metrics": {"cycle_count": [1],
                                        "flicker_count": 0}},
                           "cycle_count must be an int, got [1]"),
    "flicker_count_a_float": ({"metrics": {"cycle_count": 4,
                                           "flicker_count": 0.5}},
                              "flicker_count must be an int, got 0.5"),
    "soc_violations_a_float": ({"soc_violations": 0.0},
                               "soc_violations must be an int, got 0.0"),
    "start_step_a_bool": ({"start_step": False},
                          "start_step must be an int, got False"),
    "n_steps_a_string": ({"n_steps": "288"},
                         "n_steps must be an int, got '288'"),
}


class TestCompare:
    @pytest.mark.parametrize("fields,expected", REPORT_TYPE_MISTAKES.values(),
                             ids=REPORT_TYPE_MISTAKES.keys())
    def test_a_field_of_the_wrong_type_is_an_error_line(self, tmp_path, capsys,
                                                        fields, expected):
        a = summary(tmp_path, "a.json", 1.64)
        b = Path(summary(tmp_path, "b.json", 3.0))
        b.write_text(json.dumps({**json.loads(b.read_text()), **fields}))
        code = main(["compare", a, str(b)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {b}: not a report summary ({expected})\n"

    def test_relative_percentage(self, tmp_path, capsys):
        a = summary(tmp_path, "a.json", 2.66)
        b = summary(tmp_path, "b.json", 3.15)
        assert main(["compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "118.4%" in out
        assert "0.4900" in out

    def test_sign_flip_is_undefined(self, tmp_path, capsys):
        a = summary(tmp_path, "a.json", -1.0)
        b = summary(tmp_path, "b.json", 2.0)
        assert main(["compare", a, b]) == 0
        assert "undefined" in capsys.readouterr().out

    def test_wide_figures_stay_apart(self, tmp_path, capsys):
        a = summary(tmp_path, "a.json", 1e-300)
        b = summary(tmp_path, "b.json", 1e10)
        assert main(["compare", a, b]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["total_reward", "0.0000",
                                    "10000000000.0000"]
        # 1e10 / 1e-300 is too large for a float: no ratio to print.
        assert lines[2].split() == ["relative", "100.0%", "undefined"]

    @pytest.mark.parametrize("total_a", [5.0, -5.0])
    def test_a_zero_b_is_zero_percent_of_a(self, tmp_path, capsys, total_a):
        a = summary(tmp_path, "a.json", total_a)
        b = summary(tmp_path, "b.json", 0.0)
        assert main(["compare", a, b]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split() == ["relative", "100.0%", "0.0%"]

    def test_window_mismatch_rejected(self, tmp_path, capsys):
        a = summary(tmp_path, "a.json", 1.0)
        b_payload = json.loads(Path(summary(tmp_path, "b.json", 2.0)).read_text())
        b_payload["n_steps"] = 100
        (tmp_path / "b.json").write_text(json.dumps(b_payload))
        assert main(["compare", a, str(tmp_path / "b.json")]) == 1

    def test_a_file_that_is_not_json_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("\nnot json\n")
        code = main(["compare", str(bad), summary(tmp_path, "b.json", 1.0)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {bad}: line 2, column 1: Expecting value\n"


class TestPlotData:
    def test_rows_and_cumulative_reward(self, tmp_path):
        _, out = run_simulate(tmp_path)
        plot = tmp_path / "plot.csv"
        assert main(["plot-data", "--steps", str(out / "steps.jsonl"),
                     "--out", str(plot)]) == 0
        with open(plot, newline="") as fh:
            rows = list(csv.DictReader(fh))
        steps = [json.loads(l) for l in
                 (out / "steps.jsonl").read_text().splitlines()]
        assert len(rows) == len(steps)
        assert float(rows[-1]["cumulative_reward"]) == pytest.approx(
            sum(s["step_reward"] for s in steps), abs=1e-9)

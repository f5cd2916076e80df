import csv
import json
from pathlib import Path

import pytest

from evpolicy.cli import main

REPLIES_JSONL = "\n".join(json.dumps({"reply": f"```\n{src}\n```"}) for src in [
    "if soc < 0.25 then max_charge_kw",
    "if discharge_price >= 0.35 and soc > 0.25 then -max_discharge_kw\n"
    "if charge_price <= 0.12 and soc < 0.8 then max_charge_kw",
]) + "\n"


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
        import sys
        code = main(["simulate", "--synthetic", "days=1", "seed=3",
                     "--policy", f"cmd:{sys.executable} {helper}",
                     "--config", str(config), "--start", "216",
                     "--steps", "20", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "policy fault" in capsys.readouterr().err


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
        assert [it["failure"] for it in run["iterations"]] == [None, None]
        assert run["best_index"] == 1

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


class TestCompare:
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

    def test_window_mismatch_rejected(self, tmp_path, capsys):
        a = summary(tmp_path, "a.json", 1.0)
        b_payload = json.loads(Path(summary(tmp_path, "b.json", 2.0)).read_text())
        b_payload["n_steps"] = 100
        (tmp_path / "b.json").write_text(json.dumps(b_payload))
        assert main(["compare", a, str(tmp_path / "b.json")]) == 1


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

"""Replay a rule script's step log through the tree-walking evaluator.

    python tests/helpers/check_rules_reference.py RULES steps.jsonl

The log must come from ``simulate --policy RULES`` over a whole trace, from
step 0 to its end, with the default battery: each plugged-in row is rebuilt
as the observation the policy saw (its forecast windows on the logged buy
prices, padded with the last one), and ``evaluate_rules_reference`` must
return that row's ``requested_kw``, compared by ``repr``. Exits 1, naming
the first few differing steps, if any row differs.
"""
import json
import sys
from datetime import datetime

from evpolicy.market import EnvTrace, forecast_at
from evpolicy.rules import evaluate_rules_reference, parse_rule_script
from evpolicy.simulation import BatteryConfig, Observation


def main(rules_path, log_path):
    with open(rules_path, encoding="utf-8") as fh:
        script = parse_rule_script(fh.read())
    with open(log_path) as fh:
        rows = [json.loads(line) for line in fh]
    if [row["step"] for row in rows] != list(range(len(rows))):
        print(f"{log_path}: not a log from step 0 on", file=sys.stderr)
        return 1
    trace = EnvTrace(datetime(2024, 1, 1), *(
        [row[key] for row in rows]
        for key in ("load_kw", "pv_kw", "charge_price", "discharge_price")))
    battery = BatteryConfig()
    bad = []
    for row in filter(lambda row: row["plugged_in"], rows):
        t = row["step"]
        obs = Observation(t, row["charge_price"], row["discharge_price"],
                          row["soc"], row["ttd_min"], row["load_kw"],
                          row["pv_kw"], battery.max_charge_kw,
                          battery.max_discharge_kw, forecast_at(trace, t), True)
        if repr(evaluate_rules_reference(script, obs)) != repr(
                row["requested_kw"]):
            bad.append(t)
    if bad:
        print(f"{log_path}: steps whose requested_kw the reference does not "
              f"give: {bad[:5]} ({len(bad)} in all)", file=sys.stderr)
        return 1
    print(f"{log_path}: {len(rows)} steps, each plugged-in requested_kw as "
          "the reference evaluator gives it")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

"""Workload inputs, generated from the workload seed by the benchmark itself.

Nothing here calls evpolicy: the inputs must not change when the program
under test does. The same seed always gives byte-identical files.
"""
from __future__ import annotations

import json
import math
import random
from datetime import datetime, timedelta

STEP_MINUTES = 5
STEPS_PER_DAY = 24 * 60 // STEP_MINUTES


def write_trace_csv(path, days: int, seed: int) -> int:
    """Write a canonical trace CSV of ``days`` days; return its row count.

    Each day draws its own evening-peak height and cloudiness, so the
    baseline's peak-discharge, PV-surplus and cheap-charge rules all fire
    on most days. Sell prices sit below buy prices, so the two columns differ.
    """
    rng = random.Random(f"trace-{seed}")
    start = datetime(2024, 1, 1)
    rows = days * STEPS_PER_DAY
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,load_kw,pv_kw,buy_price,sell_price\n")
        for day in range(days):
            peak = rng.uniform(0.30, 0.45)
            sun = rng.uniform(0.3, 1.0)
            base = rng.uniform(0.09, 0.12)
            for k in range(STEPS_PER_DAY):
                hour = k * STEP_MINUTES / 60.0
                buy = max(0.01, base
                          + 0.03 * math.sin(2 * math.pi * (hour - 9.0) / 24.0)
                          + peak * math.exp(-((hour - 18.5) / 1.6) ** 2)
                          + rng.gauss(0.0, 0.004))
                sell = 0.95 * buy
                pv = (max(0.0, 4.5 * sun * math.sin(math.pi * (hour - 6.0) / 12.0)
                          + rng.gauss(0.0, 0.05))
                      if 6.0 <= hour <= 18.0 else 0.0)
                load = max(0.05, 0.5
                           + 1.0 * math.exp(-((hour - 7.5) / 1.2) ** 2)
                           + 1.6 * math.exp(-((hour - 19.0) / 2.0) ** 2)
                           + rng.gauss(0.0, 0.05))
                ts = start + timedelta(minutes=(day * STEPS_PER_DAY + k)
                                       * STEP_MINUTES)
                fh.write(f"{ts.isoformat()},{load:.5f},{pv:.5f},"
                         f"{buy:.6f},{sell:.6f}\n")
    return rows


def write_candidate(path, seed: int) -> None:
    """Write an evolved-style Python candidate with the 8-argument signature.

    It never raises and never writes to stderr, so every decision succeeds.
    """
    rng = random.Random(f"candidate-{seed}")
    cheap = round(rng.uniform(0.11, 0.13), 4)
    peak = round(rng.uniform(0.26, 0.32), 4)
    reserve = round(rng.uniform(0.28, 0.34), 3)
    source = f'''def decide_power(charge_price, discharge_price, soc, ttd,
                 load_kw, pv_kw, max_charge_kw, max_discharge_kw):
    """Return signed kW: +charge, -discharge, 0=idle."""
    if soc < 0.25:
        return max_charge_kw
    if ttd <= 120 and soc < 0.8:
        return max_charge_kw
    if discharge_price >= {peak} and soc > {reserve}:
        return -max_discharge_kw * min(1.0, (soc - {reserve}) * 10)
    if pv_kw > load_kw and soc < 0.95:
        return min(pv_kw - load_kw, max_charge_kw)
    if charge_price <= {cheap} and soc < 0.9:
        return max_charge_kw * 0.75
    return 0.0
'''
    with open(path, "w") as fh:
        fh.write(source)


NO_CODE_REPLY = ("I would need the tariff structure and the household's "
                 "comfort limits before proposing a controller. Could you "
                 "share them?")
EXTRACTION_FAILURE = "extraction failure"


def evolve_replies(seed: int) -> tuple[list[str], dict]:
    """Scripted operator replies and the outcome they are written to produce.

    The arbitrage script at ``best_index`` sells at the evening peak and buys
    back overnight; every other script lacks one of those legs or runs them
    backwards, so it wins by a wide margin on any seed. One reply has no code
    block, so the repair path runs.
    """
    rng = random.Random(f"replies-{seed}")

    def j(lo: float, hi: float) -> str:
        return f"{rng.uniform(lo, hi):.3f}"

    reserve = "if soc < 0.25 then max_charge_kw"
    sell_peak = (f"if discharge_price >= fc_mean(288) + {j(0.08, 0.11)} "
                 f"and soc > 0.3 then -max_discharge_kw")
    buy_low = (f"if charge_price <= fc_min(144) + {j(0.015, 0.025)} "
               f"and soc < 0.95 then max_charge_kw")
    scripts = [
        reserve,
        f"{reserve}\nif charge_price <= fc_mean(288) and soc < 0.8 "
        f"then max_charge_kw",
        None,
        f"{reserve}\nif charge_price <= fc_min(144) + {j(0.005, 0.015)} "
        f"and soc < 0.9 then min(max_charge_kw, 5)",
        f"{reserve}\n{sell_peak}\n{buy_low}",
        f"if discharge_price >= fc_max(36) - {j(0.01, 0.03)} and soc < 0.95 "
        f"then max_charge_kw\nif charge_price <= fc_min(144) + 0.02 "
        f"and soc > 0.3 then -max_discharge_kw",
        f"if discharge_price >= fc_max(36) - {j(0.01, 0.03)} and soc > 0.3 "
        f"then -max_discharge_kw",
        f"{reserve}\nif discharge_price >= fc_mean(288) + {j(0.08, 0.11)} "
        f"and soc > 0.3 then -max_discharge_kw / 3\n{buy_low}",
        "if soc < 0.9 then max_charge_kw",
        "if soc > 1.5 then -1",
    ]
    replies = [NO_CODE_REPLY if s is None else
               f"Iteration {k + 1} candidate:\n```\n{s}\n```\n"
               for k, s in enumerate(scripts)]
    expected = {
        "best_index": 4,
        "failures": [None if s is not None else EXTRACTION_FAILURE
                     for s in scripts],
    }
    return replies, expected


def write_replies(path, seed: int) -> dict:
    """Write the mock operator's JSON-lines replies; return the script."""
    replies, expected = evolve_replies(seed)
    with open(path, "w") as fh:
        for reply in replies:
            fh.write(json.dumps({"reply": reply}) + "\n")
    return expected

"""Expert-trajectory curation: quadrant balancing, formatting, export."""
from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, asdict
from itertools import repeat
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .market import lower_median

QUADRANTS = (
    "low_price_high_solar",
    "high_price_no_solar",
    "low_price_no_solar",
    "high_price_high_solar",
)

SOLAR_SPLIT_KW = 0.1  # PV above this counts as high solar

# The step-log columns that build_ledger reads.
STEP_LOG_KEYS = ("step", "soc", "charge_price", "discharge_price", "pv_kw",
                 "load_kw", "ttd_min", "applied_kw", "step_reward")

LEDGER_COLUMNS = ("step", "soc_pct", "charge_price", "discharge_price",
                  "pv_kw", "load_kw", "ttd_min", "action_kw", "reward",
                  "quadrant")


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    step: int
    soc_pct: float
    charge_price: float
    discharge_price: float
    pv_kw: float
    load_kw: float
    ttd_min: float
    action_kw: float
    reward: float
    quadrant: str


def classify_quadrant(charge_price: float, pv_kw: float,
                      price_split: float) -> str:
    high_price = charge_price > price_split
    high_solar = pv_kw > SOLAR_SPLIT_KW
    if high_price:
        return "high_price_high_solar" if high_solar else "high_price_no_solar"
    return "low_price_high_solar" if high_solar else "low_price_no_solar"


def build_ledger(columns: Mapping[str, Iterable]) -> list[LedgerEntry]:
    """One normalized entry (percent SoC, kW, minutes) per simulated step.

    ``columns`` maps each of ``STEP_LOG_KEYS`` to its step-log column, one
    value per step, as :meth:`EpisodeReport.columns` returns them; each
    column is read once.
    """
    charge_price = list(columns["charge_price"])
    if not charge_price:
        raise ConfigError("cannot build a ledger from no steps")
    pv_kw = list(columns["pv_kw"])
    quadrants = map(classify_quadrant, charge_price, pv_kw,
                    repeat(lower_median(charge_price)))
    return list(map(LedgerEntry, map(int, columns["step"]),
                    map(mul, columns["soc"], repeat(100.0)), charge_price,
                    columns["discharge_price"], pv_kw, columns["load_kw"],
                    columns["ttd_min"], columns["applied_kw"],
                    columns["step_reward"], quadrants))


def quadrant_sample(entries: Sequence[LedgerEntry], n_total: int,
                    seed: int = 0) -> list[LedgerEntry]:
    """Seeded, balanced, without-replacement sample across the four quadrants.

    Each quadrant targets n_total/4; a short quadrant contributes everything
    it has and the shortfall is spread over the others in proportion to their
    spare capacity. Output is quadrant-major, chronological inside a quadrant.
    """
    if not entries:
        raise ConfigError("quadrant_sample needs a non-empty ledger")
    if n_total < 4:
        raise ConfigError("n_total must be >= 4")

    pools = {q: [e for e in entries if e.quadrant == q] for q in QUADRANTS}
    n_total = min(n_total, len(entries))

    base, remainder = divmod(n_total, 4)
    targets = {q: base + (1 if i < remainder else 0)
               for i, q in enumerate(QUADRANTS)}
    # Short quadrants give everything; the others absorb the shortfall in
    # proportion to their spare capacity (largest-remainder rounding). One
    # pass fills every target: n_total <= len(entries), so the spare capacity
    # covers the shortfall, and no quadrant's share exceeds its own spare.
    shortfall = sum(max(0, targets[q] - len(pools[q])) for q in QUADRANTS)
    if shortfall:
        targets = {q: min(targets[q], len(pools[q])) for q in QUADRANTS}
        spare = {q: len(pools[q]) - targets[q] for q in QUADRANTS}
        total_spare = sum(spare.values())
        shares = {q: shortfall * spare[q] / total_spare for q in QUADRANTS}
        floored = {q: int(shares[q]) for q in QUADRANTS}
        by_frac = sorted(QUADRANTS, key=lambda q: (-(shares[q] - floored[q]),
                                                   QUADRANTS.index(q)))
        for q in by_frac[:shortfall - sum(floored.values())]:
            floored[q] += 1
        targets = {q: targets[q] + floored[q] for q in QUADRANTS}

    rng = random.Random(seed)
    out: list[LedgerEntry] = []
    for q in QUADRANTS:
        chosen = rng.sample(pools[q], targets[q]) if targets[q] else []
        out.extend(sorted(chosen, key=lambda e: e.step))
    return out


def _action_label(kw: float) -> str:
    if kw > 1e-9:
        return "charge"
    if kw < -1e-9:
        return "discharge"
    return "idle"


def format_entry(e: LedgerEntry) -> str:
    action = "0.0" if _action_label(e.action_kw) == "idle" else f"{e.action_kw:+.1f}"
    return (f"{{SoC: {e.soc_pct:.0f}%, price: {e.charge_price:.2f}, "
            f"PV: {e.pv_kw:.1f} kW, TTD: {e.ttd_min:.0f} min -> "
            f"action: {action} kW ({_action_label(e.action_kw)})}}")


def action_summary(entries: Sequence[LedgerEntry]) -> str:
    n = len(entries)
    counts = {"charge": 0, "discharge": 0, "idle": 0}
    for e in entries:
        counts[_action_label(e.action_kw)] += 1
    return "\n".join([
        f"Total examples: {n}",
        f"Charge actions: {counts['charge']} ({100 * counts['charge'] / n:.1f}%)",
        f"Discharge actions: {counts['discharge']} ({100 * counts['discharge'] / n:.1f}%)",
        f"Idle actions: {counts['idle']} ({100 * counts['idle'] / n:.1f}%)",
    ])


def render_examples(entries: Sequence[LedgerEntry]) -> str:
    """Deterministic text block: the action summary, a blank line, then one
    formatted line per entry ("" for no entries)."""
    if not entries:
        return ""
    return (action_summary(entries) + "\n\n"
            + "\n".join(format_entry(e) for e in entries))


def export_ledger(entries: Sequence[LedgerEntry], path) -> None:
    """Write ``entries`` as CSV to a ``.csv`` path or as JSON lines to a
    ``.jsonl`` path; any other suffix is a ConfigError, raised before the
    file is opened.

    The CSV writes each float's ``repr``, so every value reads back exactly.
    """
    if not str(path).endswith((".csv", ".jsonl")):
        raise ConfigError(f"{path}: a ledger file must end in .csv or .jsonl")
    if str(path).endswith(".jsonl"):
        with open(path, "w") as fh:
            for e in entries:
                fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_COLUMNS)
        for e in entries:
            d = asdict(e)
            writer.writerow([d["step"]] +
                            [repr(d[c]) for c in LEDGER_COLUMNS[1:-1]] +
                            [d["quadrant"]])

"""Expert-trajectory curation: quadrant balancing, formatting, export."""
from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, asdict
from typing import Iterable, Sequence

from .errors import ConfigError, EvPolicyError

QUADRANTS = (
    "low_price_high_solar",
    "high_price_no_solar",
    "low_price_no_solar",
    "high_price_high_solar",
)

LEDGER_COLUMNS = ("step", "soc_pct", "charge_price", "discharge_price",
                  "pv_kw", "load_kw", "ttd_min", "action_kw", "reward",
                  "quadrant")


@dataclass(frozen=True)
class QuadrantSpec:
    price_split: float
    solar_split: float = 0.1


@dataclass(frozen=True)
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
                      spec: QuadrantSpec) -> str:
    high_price = charge_price > spec.price_split
    high_solar = pv_kw > spec.solar_split
    if high_price:
        return "high_price_high_solar" if high_solar else "high_price_no_solar"
    return "low_price_high_solar" if high_solar else "low_price_no_solar"


def default_quadrant_spec(prices: Sequence[float],
                          solar_split: float = 0.1) -> QuadrantSpec:
    if not prices:
        raise ConfigError("cannot derive a price split from no prices")
    ordered = sorted(prices)
    return QuadrantSpec(price_split=ordered[(len(ordered) - 1) // 2],
                        solar_split=solar_split)


def build_ledger(rows: Iterable[dict],
                 spec: QuadrantSpec | None = None) -> list[LedgerEntry]:
    """One normalized entry (percent SoC, kW, minutes) per step row.

    ``rows`` are step rows as yielded by :meth:`EpisodeReport.step_rows` or
    read back by :func:`read_step_log`.
    """
    rows = list(rows)
    if not rows:
        raise ConfigError("cannot build a ledger from no steps")
    if spec is None:
        spec = default_quadrant_spec([r["charge_price"] for r in rows])
    return [LedgerEntry(
        step=int(r["step"]),
        soc_pct=r["soc"] * 100.0,
        charge_price=r["charge_price"],
        discharge_price=r["discharge_price"],
        pv_kw=r["pv_kw"],
        load_kw=r["load_kw"],
        ttd_min=r["ttd_min"],
        action_kw=r["applied_kw"],
        reward=r["step_reward"],
        quadrant=classify_quadrant(r["charge_price"], r["pv_kw"], spec),
    ) for r in rows]


def quadrant_sample(entries: Sequence[LedgerEntry], n_total: int,
                    spec: QuadrantSpec | None = None,
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
    if spec is not None:
        entries = [LedgerEntry(**{**asdict(e), "quadrant": classify_quadrant(
            e.charge_price, e.pv_kw, spec)}) for e in entries]

    pools = {q: [e for e in entries if e.quadrant == q] for q in QUADRANTS}
    n_total = min(n_total, len(entries))

    base, remainder = divmod(n_total, 4)
    targets = {q: base + (1 if i < remainder else 0)
               for i, q in enumerate(QUADRANTS)}
    # Water-fill: short quadrants give everything, spare capacity absorbs the
    # shortfall proportionally (largest-remainder rounding).
    while True:
        shortfall = sum(max(0, targets[q] - len(pools[q])) for q in QUADRANTS)
        for q in QUADRANTS:
            targets[q] = min(targets[q], len(pools[q]))
        if shortfall == 0:
            break
        spare = {q: len(pools[q]) - targets[q] for q in QUADRANTS}
        total_spare = sum(spare.values())
        if total_spare == 0:
            break
        grant = min(shortfall, total_spare)
        shares = {q: grant * spare[q] / total_spare for q in QUADRANTS}
        floored = {q: int(shares[q]) for q in QUADRANTS}
        leftover = grant - sum(floored.values())
        by_frac = sorted(QUADRANTS, key=lambda q: (-(shares[q] - floored[q]),
                                                   QUADRANTS.index(q)))
        for q in by_frac[:leftover]:
            floored[q] += 1
        for q in QUADRANTS:
            targets[q] += floored[q]

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


def render_examples(entries: Sequence[LedgerEntry],
                    style: str = "compact") -> str:
    """Deterministic text block; narrative style prepends the action summary."""
    if style not in ("compact", "narrative"):
        raise ValueError(f"unknown style {style!r}")
    if not entries:
        return ""
    lines = [format_entry(e) for e in entries]
    if style == "narrative":
        return action_summary(entries) + "\n\n" + "\n".join(lines)
    return "\n".join(lines)


def export_ledger(entries: Sequence[LedgerEntry], path,
                  format: str = "csv") -> None:
    try:
        if format == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(LEDGER_COLUMNS)
                for e in entries:
                    d = asdict(e)
                    writer.writerow([d["step"]] +
                                    [repr(d[c]) for c in LEDGER_COLUMNS[1:-1]] +
                                    [d["quadrant"]])
        elif format == "jsonl":
            with open(path, "w") as fh:
                for e in entries:
                    fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")
        else:
            raise ValueError(f"unknown ledger format {format!r}")
    except OSError as exc:
        raise EvPolicyError(f"cannot write ledger to {path}: {exc}") from exc


def load_ledger(path, format: str | None = None) -> list[LedgerEntry]:
    format = format or ("jsonl" if str(path).endswith(".jsonl") else "csv")
    entries = []
    try:
        if format == "csv":
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    entries.append(LedgerEntry(
                        step=int(row["step"]),
                        quadrant=row["quadrant"],
                        **{c: float(row[c]) for c in LEDGER_COLUMNS[1:-1]}))
        else:
            with open(path) as fh:
                for line in fh:
                    if line.strip():
                        entries.append(LedgerEntry(**json.loads(line)))
    except OSError as exc:
        raise EvPolicyError(f"cannot read ledger from {path}: {exc}") from exc
    return entries

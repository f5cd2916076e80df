"""Household/market time series: loading, validation, price forecasts, fixtures.

The canonical on-disk format is a CSV with header
``timestamp,load_kw,pv_kw,buy_price,sell_price`` and ISO-8601 timestamps at a
uniform step (5 minutes by default).
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ConfigError, TraceSchemaError, TraceValidationError

CANONICAL_COLUMNS = ("timestamp", "load_kw", "pv_kw", "buy_price", "sell_price")

DEFAULT_HORIZON_STEPS = 288  # 24 h at 5-minute steps


@dataclass(frozen=True)
class TracePoint:
    timestamp: datetime
    load_kw: float
    pv_kw: float
    buy_price: float
    sell_price: float


@dataclass(frozen=True)
class EnvTrace:
    """Immutable, validated exogenous series. Safe to share across episodes."""

    points: tuple[TracePoint, ...]
    step_minutes: int = 5
    _forecast_columns: dict = field(default_factory=dict, init=False,
                                    repr=False, compare=False)

    def __post_init__(self):
        if self.step_minutes <= 0:
            raise TraceValidationError("step_minutes must be positive")
        if len(self.points) < 2:
            raise TraceValidationError("trace needs at least 2 points")
        delta = timedelta(minutes=self.step_minutes)
        for i, p in enumerate(self.points):
            if p.load_kw < 0 or p.pv_kw < 0:
                raise TraceValidationError(
                    f"row {i + 1}: load_kw and pv_kw must be non-negative")
            for v in (p.load_kw, p.pv_kw, p.buy_price, p.sell_price):
                if not math.isfinite(v):
                    raise TraceValidationError(f"row {i + 1}: non-finite value")
            if i > 0 and p.timestamp - self.points[i - 1].timestamp != delta:
                raise TraceValidationError(
                    f"row {i + 1}: expected {self.step_minutes}-minute spacing, "
                    f"got {p.timestamp - self.points[i - 1].timestamp}")

    def __len__(self) -> int:
        return len(self.points)

    def forecast_column(self, horizon_steps: int) -> tuple[float, ...]:
        """Buy prices followed by ``horizon_steps`` copies of the last one.

        The forecast after step ``i`` is ``column[i + 1:i + 1 + horizon_steps]``.
        Each column is built and validated once, then cached on the trace.
        """
        column = self._forecast_columns.get(horizon_steps)
        if column is None:
            if horizon_steps < 1:
                raise ConfigError(
                    f"forecast horizon_steps must be >= 1, got {horizon_steps}")
            buys = [p.buy_price for p in self.points]
            column = tuple(buys + buys[-1:] * horizon_steps)
            _check_prices(column, len(buys) + horizon_steps)
            self._forecast_columns[horizon_steps] = column
        return column

    @property
    def buy_prices(self) -> list[float]:
        return [p.buy_price for p in self.points]

    @property
    def sell_prices(self) -> list[float]:
        return [p.sell_price for p in self.points]


def _check_prices(values: tuple[float, ...], expected: int) -> None:
    if len(values) != expected:
        raise TraceValidationError(
            f"forecast has {len(values)} values, expected {expected}")
    if not all(map(math.isfinite, values)):
        raise TraceValidationError("forecast contains non-finite values")


class PriceForecast:
    """Buy prices for the ``horizon_steps`` steps after an observation.

    A read-only window on a price column: ``values`` is a tuple sliced on each
    read and never stored, so building a forecast copies no prices. Direct
    construction validates ``values``; :func:`forecast_at` windows a column
    its trace validated once.
    """

    __slots__ = ("horizon_steps", "_column", "_start")

    def __init__(self, horizon_steps: int, values: Sequence[float]):
        values = tuple(values)
        _check_prices(values, horizon_steps)
        self.horizon_steps, self._column, self._start = horizon_steps, values, 0

    @classmethod
    def window(cls, column: tuple[float, ...], start: int,
               horizon_steps: int) -> PriceForecast:
        """``column[start:start + horizon_steps]`` of an already validated,
        long enough column."""
        forecast = object.__new__(cls)
        forecast.horizon_steps, forecast._column, forecast._start = (
            horizon_steps, column, start)
        return forecast

    @property
    def values(self) -> tuple[float, ...]:
        return self._column[self._start:self._start + self.horizon_steps]

    def __eq__(self, other):
        if not isinstance(other, PriceForecast):
            return NotImplemented
        return (self.horizon_steps == other.horizon_steps
                and self.values == other.values)

    def __hash__(self):
        return hash((self.horizon_steps, self.values))

    def __repr__(self):
        return (f"PriceForecast(horizon_steps={self.horizon_steps}, "
                f"values={self.values!r})")


def load_trace(path, schema: Mapping[str, str] | None = None,
               step_minutes: int = 5) -> EnvTrace:
    """Load and validate a trace CSV.

    ``schema`` maps logical names (``timestamp``, ``load_kw``, ``pv_kw``,
    ``buy_price``, ``sell_price``, optionally ``price``) to column names in the
    file. With a single ``price`` column, buy and sell both use it.
    """
    schema = dict(schema) if schema else {c: c for c in CANONICAL_COLUMNS}
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        rows = list(reader)

    def col(logical: str) -> str | None:
        name = schema.get(logical)
        return name if name in header else None

    ts_col, load_col, pv_col = col("timestamp"), col("load_kw"), col("pv_kw")
    for logical, c in (("timestamp", ts_col), ("load_kw", load_col), ("pv_kw", pv_col)):
        if c is None:
            raise TraceSchemaError(f"{path}: no column mapped for '{logical}'")
    buy_col = col("buy_price") or col("price")
    sell_col = col("sell_price") or buy_col
    if buy_col is None and sell_col is not None:
        buy_col = sell_col
    if buy_col is None:
        raise TraceSchemaError(f"{path}: no price column mapped")

    points = []
    for i, row in enumerate(rows):
        try:
            points.append(TracePoint(
                timestamp=datetime.fromisoformat(row[ts_col]),
                load_kw=float(row[load_col]),
                pv_kw=float(row[pv_col]),
                buy_price=float(row[buy_col]),
                sell_price=float(row[sell_col]),
            ))
        except (TypeError, ValueError) as exc:
            raise TraceValidationError(f"{path}: row {i + 1}: {exc}") from exc
    return EnvTrace(points=tuple(points), step_minutes=step_minutes)


def save_trace(trace: EnvTrace, path) -> None:
    """Write the canonical CSV. Floats use shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        for p in trace.points:
            writer.writerow([p.timestamp.isoformat(), repr(p.load_kw),
                             repr(p.pv_kw), repr(p.buy_price), repr(p.sell_price)])


def forecast_at(trace: EnvTrace, step_index: int,
                horizon_steps: int = DEFAULT_HORIZON_STEPS) -> PriceForecast:
    """Rolling buy-price forecast for the steps after ``step_index``.

    Perfect foresight; past the end of the trace the last known price is
    repeated. Raises :class:`ConfigError` for ``horizon_steps < 1``.
    """
    n = len(trace)
    if not 0 <= step_index < n:
        raise IndexError(f"step_index {step_index} out of range [0, {n})")
    return PriceForecast.window(trace.forecast_column(horizon_steps),
                                step_index + 1, horizon_steps)


def _lower_order_stat(sorted_vals: Sequence[float], q: float) -> float:
    # Lower-middle convention: the statistic is always an observed value.
    return sorted_vals[int(q * (len(sorted_vals) - 1))]


@dataclass(frozen=True)
class TraceStats:
    n_steps: int
    buy_median: float
    buy_q1: float
    buy_q3: float
    sell_median: float
    sell_q1: float
    sell_q3: float
    pv_peak_kw: float
    load_peak_kw: float

    @property
    def buy_iqr(self) -> float:
        return self.buy_q3 - self.buy_q1


def trace_stats(trace: EnvTrace) -> TraceStats:
    """Exact order statistics of the trace (lower-middle median convention)."""
    if len(trace) == 0:
        raise TraceValidationError("empty trace")
    buys = sorted(trace.buy_prices)
    sells = sorted(trace.sell_prices)
    return TraceStats(
        n_steps=len(trace),
        buy_median=_lower_order_stat(buys, 0.5),
        buy_q1=_lower_order_stat(buys, 0.25),
        buy_q3=_lower_order_stat(buys, 0.75),
        sell_median=_lower_order_stat(sells, 0.5),
        sell_q1=_lower_order_stat(sells, 0.25),
        sell_q3=_lower_order_stat(sells, 0.75),
        pv_peak_kw=max(p.pv_kw for p in trace.points),
        load_peak_kw=max(p.load_kw for p in trace.points),
    )


def synthetic_trace(days: int = 7, seed: int = 0, step_minutes: int = 5,
                    start: datetime | None = None) -> EnvTrace:
    """Sinusoidal daily price/PV/load pattern with seeded noise.

    Prices sit near 0.10-0.15 overnight with an evening peak that regularly
    crosses 0.35, so the baseline controller's rules all get exercised.
    """
    if days < 1:
        raise TraceValidationError("days must be >= 1")
    rng = random.Random(seed)
    start = start or datetime(2024, 1, 1)
    steps_per_day = 24 * 60 // step_minutes
    points = []
    for i in range(days * steps_per_day):
        ts = start + timedelta(minutes=i * step_minutes)
        hour = (i % steps_per_day) * step_minutes / 60.0
        price = (0.12 + 0.03 * math.sin(2 * math.pi * (hour - 9.0) / 24.0)
                 + 0.30 * math.exp(-((hour - 18.5) / 1.6) ** 2)
                 + rng.gauss(0.0, 0.004))
        price = max(0.01, price)
        pv = max(0.0, 4.5 * math.sin(math.pi * (hour - 6.0) / 12.0)
                 + rng.gauss(0.0, 0.05)) if 6.0 <= hour <= 18.0 else 0.0
        load = max(0.05, 0.5
                   + 1.0 * math.exp(-((hour - 7.5) / 1.2) ** 2)
                   + 1.6 * math.exp(-((hour - 19.0) / 2.0) ** 2)
                   + rng.gauss(0.0, 0.05))
        points.append(TracePoint(timestamp=ts, load_kw=load, pv_kw=pv,
                                 buy_price=price, sell_price=price))
    return EnvTrace(points=tuple(points), step_minutes=step_minutes)

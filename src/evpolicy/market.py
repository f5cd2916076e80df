"""Household/market time series: loading, validation, price forecasts, fixtures.

The canonical on-disk format is a CSV with header
``timestamp,load_kw,pv_kw,buy_price,sell_price`` and ISO-8601 timestamps
``STEP_MINUTES`` apart.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

from .errors import TraceSchemaError, TraceValidationError, open_utf8

CANONICAL_COLUMNS = ("timestamp", "load_kw", "pv_kw", "buy_price", "sell_price")

STEP_MINUTES = 5  # every trace, episode and step log uses this one step
STEP = timedelta(minutes=STEP_MINUTES)
STEP_HOURS = STEP_MINUTES / 60.0
STEPS_PER_DAY = 24 * 60 // STEP_MINUTES
FORECAST_STEPS = STEPS_PER_DAY  # 24 h ahead

_COLUMN_FIELDS = ("load_kw", "pv_kw", "buy_price", "sell_price")
_PLAIN_NUMBERS = {int, float}


@dataclass(frozen=True)
class EnvTrace:
    """Immutable, validated exogenous series: the wall-clock time of step 0
    and one tuple per value column. Step ``i`` is at ``start + i * STEP``.
    Columns hold plain ints and floats; any other value is stored as a float.

    Safe to share across episodes.
    """

    start: datetime
    load_kw: tuple[float, ...]
    pv_kw: tuple[float, ...]
    buy_price: tuple[float, ...]
    sell_price: tuple[float, ...]

    def __post_init__(self):
        for name in _COLUMN_FIELDS:
            column = tuple(getattr(self, name))
            if not set(map(type, column)) <= _PLAIN_NUMBERS:
                # A numpy scalar, say: the step log writes values with repr.
                column = tuple(v if type(v) in _PLAIN_NUMBERS else float(v)
                               for v in column)
            object.__setattr__(self, name, column)
        columns = [getattr(self, name) for name in _COLUMN_FIELDS]
        lengths = [len(column) for column in columns]
        if len(set(lengths)) != 1:
            raise TraceValidationError(f"columns differ in length: {lengths}")
        if len(self) < 2:
            raise TraceValidationError("trace needs at least 2 points")
        # Column by column first; only a trace that fails is walked row by
        # row, to name the first bad row.
        if (min(self.load_kw) >= 0 and min(self.pv_kw) >= 0
                and all(map(math.isfinite, chain(*columns)))):
            return
        for i, (load, pv, buy, sell) in enumerate(zip(*columns)):
            if load < 0 or pv < 0:
                raise TraceValidationError(
                    f"row {i + 1}: load_kw and pv_kw must be non-negative")
            for v in (load, pv, buy, sell):
                if not math.isfinite(v):
                    raise TraceValidationError(f"row {i + 1}: non-finite value")

    def __len__(self) -> int:
        return len(self.load_kw)

    @cached_property
    def forecast_column(self) -> tuple[float, ...]:
        """Buy prices followed by ``FORECAST_STEPS`` copies of the last one.

        The forecast after step ``i`` is ``column[i + 1:i + 1 + FORECAST_STEPS]``.
        Built once per trace from the buy column, which construction validated.
        """
        return self.buy_price + self.buy_price[-1:] * FORECAST_STEPS


class PriceForecast:
    """Buy prices for the ``horizon_steps`` steps after an observation.

    A read-only window on a price column: ``values`` is a tuple sliced on each
    read and never stored, so building a forecast copies no prices. Direct
    construction takes the values themselves, which must be finite, and the
    horizon is their count; :func:`forecast_at` windows a column its trace
    validated once.
    """

    __slots__ = ("horizon_steps", "_column", "_start")

    def __init__(self, values: Sequence[float]):
        values = tuple(values)
        if not all(map(math.isfinite, values)):
            raise TraceValidationError("forecast contains non-finite values")
        self.horizon_steps, self._column, self._start = len(values), values, 0

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
    def column(self) -> tuple[float, ...]:
        """The price column the window is cut from."""
        return self._column

    @property
    def start(self) -> int:
        """The index in :attr:`column` of the window's first value."""
        return self._start

    @property
    def values(self) -> tuple[float, ...]:
        return self._column[self._start:self._start + self.horizon_steps]

    def head(self, n: int) -> tuple[float, ...]:
        """The first ``min(n, horizon_steps)`` values, in one slice."""
        return self._column[self._start:self._start + min(n, self.horizon_steps)]

    def __eq__(self, other):
        if not isinstance(other, PriceForecast):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"PriceForecast({self.values!r})"


def load_trace(path, schema: Mapping[str, str] | None = None) -> EnvTrace:
    """Load and validate a trace CSV.

    ``schema`` maps logical names (``timestamp``, ``load_kw``, ``pv_kw``,
    ``buy_price``, ``sell_price``, optionally ``price``) to column names in the
    file. With a single ``price`` column, buy and sell both use it. Rows must
    be ``STEP_MINUTES`` apart; a row that fails to parse is reported before
    a spacing fault.
    """
    schema = dict(schema) if schema else {c: c for c in CANONICAL_COLUMNS}
    path = Path(path)
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]  # blank lines are skipped
    # A name the header repeats maps to its last column.
    index = {name: i for i, name in enumerate(header)}

    def col(logical: str) -> int | None:
        name = schema.get(logical)
        return index.get(name) if isinstance(name, str) else None

    ts_col, load_col, pv_col = col("timestamp"), col("load_kw"), col("pv_kw")
    for logical, c in (("timestamp", ts_col), ("load_kw", load_col), ("pv_kw", pv_col)):
        if c is None:
            raise TraceSchemaError(f"{path}: no column mapped for '{logical}'")
    buy_col = col("buy_price")
    if buy_col is None:
        buy_col = col("price")
    sell_col = col("sell_price")
    if sell_col is None:
        sell_col = buy_col
    elif buy_col is None:
        buy_col = sell_col
    if buy_col is None:
        raise TraceSchemaError(f"{path}: no price column mapped")

    stamps, loads, pvs, buys, sells = [], [], [], [], []
    for i, row in enumerate(rows):
        try:
            stamps.append(datetime.fromisoformat(row[ts_col]))
            loads.append(float(row[load_col]))
            pvs.append(float(row[pv_col]))
            buys.append(float(row[buy_col]))
            sells.append(float(row[sell_col]))
        except (IndexError, TypeError, ValueError) as exc:
            raise TraceValidationError(f"{path}: row {i + 1}: {exc}") from exc
    for row, (before, ts) in enumerate(zip(stamps, stamps[1:]), 2):
        try:
            spacing = ts - before
        except TypeError as exc:  # a naive timestamp next to an aware one
            raise TraceValidationError(f"{path}: row {row}: {exc}") from exc
        if spacing != STEP:
            raise TraceValidationError(
                f"row {row}: expected {STEP_MINUTES}-minute spacing, "
                f"got {spacing}")
    # No start for an empty file: EnvTrace rejects it as too short.
    return EnvTrace(stamps[0] if stamps else None, loads, pvs, buys, sells)


def save_trace(trace: EnvTrace, path) -> None:
    """Write the canonical CSV. Floats use shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        for i, (load, pv, buy, sell) in enumerate(zip(
                trace.load_kw, trace.pv_kw, trace.buy_price,
                trace.sell_price)):
            writer.writerow([(trace.start + i * STEP).isoformat(), repr(load),
                             repr(pv), repr(buy), repr(sell)])


def forecast_at(trace: EnvTrace, step_index: int) -> PriceForecast:
    """Rolling 24 h buy-price forecast for the steps after ``step_index``.

    Perfect foresight; past the end of the trace the last known price is
    repeated.
    """
    n = len(trace)
    if not 0 <= step_index < n:
        raise IndexError(f"step_index {step_index} out of range [0, {n})")
    return PriceForecast.window(trace.forecast_column, step_index + 1,
                                FORECAST_STEPS)


def lower_median(values: Sequence[float]) -> float:
    """The lower of the two middle values (the middle one for an odd count),
    so the median is always an observed value."""
    return sorted(values)[(len(values) - 1) // 2]


@dataclass(frozen=True)
class TraceStats:
    buy_median: float
    sell_median: float


def trace_stats(trace: EnvTrace, start_step: int = 0,
                n_steps: int | None = None) -> TraceStats:
    """Lower medians of the buy and sell prices of steps
    ``[start_step, start_step + n_steps)``, by default the whole trace."""
    window = slice(start_step, None if n_steps is None else start_step + n_steps)
    return TraceStats(buy_median=lower_median(trace.buy_price[window]),
                      sell_median=lower_median(trace.sell_price[window]))


def synthetic_trace(days: int = 7, seed: int = 0) -> EnvTrace:
    """Sinusoidal daily price/PV/load pattern with seeded noise, starting at
    midnight on 2024-01-01.

    Prices sit near 0.10-0.15 overnight with an evening peak that regularly
    crosses 0.35, so the baseline controller's rules all get exercised.
    """
    if days < 1:
        raise TraceValidationError("days must be >= 1")
    rng = random.Random(seed)
    loads, pvs, prices = [], [], []
    for i in range(days * STEPS_PER_DAY):
        hour = (i % STEPS_PER_DAY) * STEP_MINUTES / 60.0
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
        loads.append(load)
        pvs.append(pv)
        prices.append(price)
    return EnvTrace(datetime(2024, 1, 1), loads, pvs, prices, prices)

import math
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpolicy.errors import ConfigError, TraceSchemaError, TraceValidationError
from evpolicy.market import (EnvTrace, PriceForecast, TracePoint, forecast_at,
                             load_trace, save_trace, synthetic_trace,
                             trace_stats)


def make_trace(prices, step_minutes=5, load=0.5, pv=0.0):
    start = datetime(2024, 1, 1)
    points = tuple(
        TracePoint(timestamp=start + timedelta(minutes=i * step_minutes),
                   load_kw=load, pv_kw=pv, buy_price=p, sell_price=p)
        for i, p in enumerate(prices))
    return EnvTrace(points=points, step_minutes=step_minutes)


def write_csv(path, rows, header="timestamp,load_kw,pv_kw,buy_price,sell_price"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestLoadTrace:
    def test_well_formed_csv_loads(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [
            "2024-01-01T00:00:00,0.5,0.0,0.10,0.10",
            "2024-01-01T00:05:00,0.6,0.0,0.12,0.12",
            "2024-01-01T00:10:00,0.7,0.1,0.30,0.30",
            "2024-01-01T00:15:00,0.8,0.2,0.25,0.25",
        ])
        trace = load_trace(f)
        assert len(trace) == 4
        assert trace.points[2].buy_price == 0.30

    def test_spacing_gap_names_offending_row(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [
            "2024-01-01T00:00:00,0.5,0.0,0.10,0.10",
            "2024-01-01T00:05:00,0.6,0.0,0.12,0.12",
            "2024-01-01T00:15:00,0.7,0.1,0.30,0.30",  # 10-minute gap
        ])
        with pytest.raises(TraceValidationError, match="row 3"):
            load_trace(f)

    def test_negative_pv_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [
            "2024-01-01T00:00:00,0.5,-0.5,0.10,0.10",
            "2024-01-01T00:05:00,0.6,0.0,0.12,0.12",
        ])
        with pytest.raises(TraceValidationError):
            load_trace(f)

    def test_missing_column_is_schema_error(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["2024-01-01T00:00:00,0.5,0.10"],
                  header="timestamp,load_kw,buy_price")
        with pytest.raises(TraceSchemaError, match="pv_kw"):
            load_trace(f)

    def test_single_price_column_fills_both(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [
            "2024-01-01T00:00:00,0.5,0.0,0.10",
            "2024-01-01T00:05:00,0.6,0.0,0.12",
        ], header="timestamp,load_kw,pv_kw,price")
        trace = load_trace(f, schema={"timestamp": "timestamp",
                                      "load_kw": "load_kw", "pv_kw": "pv_kw",
                                      "price": "price"})
        assert trace.points[0].buy_price == trace.points[0].sell_price == 0.10

    def test_round_trip(self, tmp_path):
        trace = synthetic_trace(days=1, seed=3)
        f = tmp_path / "rt.csv"
        save_trace(trace, f)
        again = load_trace(f)
        assert len(again) == len(trace)
        for a, b in zip(trace.points, again.points):
            assert a.timestamp == b.timestamp
            for attr in ("load_kw", "pv_kw", "buy_price", "sell_price"):
                assert abs(getattr(a, attr) - getattr(b, attr)) <= 1e-12


class TestForecast:
    def test_direct_slice(self):
        trace = make_trace([1, 2, 3, 4])
        assert forecast_at(trace, 0, 3).values == (2, 3, 4)

    def test_padding_with_last_price(self):
        trace = make_trace([1, 2, 3, 4])
        assert forecast_at(trace, 2, 3).values == (4, 4, 4)

    def test_constant_trace_stays_constant(self):
        trace = make_trace([0.2] * 6)
        for i in range(6):
            assert forecast_at(trace, i, 8).values == (0.2,) * 8

    def test_out_of_range_index(self):
        trace = make_trace([1, 2, 3])
        with pytest.raises(IndexError):
            forecast_at(trace, 3, 2)

    def test_always_full_horizon_and_alignment(self):
        trace = make_trace([0.1 * (i + 1) for i in range(10)])
        horizon = 6
        for i in range(10):
            fc = forecast_at(trace, i, horizon)
            assert len(fc.values) == horizon
            for k in range(horizon):
                if i + 1 + k < len(trace):
                    assert fc.values[k] == trace.points[i + 1 + k].buy_price

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_one(self, horizon):
        with pytest.raises(ConfigError):
            forecast_at(make_trace([1, 2, 3]), 0, horizon)

    def test_direct_construction_is_validated(self):
        assert PriceForecast(horizon_steps=2, values=[0.1, 0.2]).values == \
            (0.1, 0.2)
        with pytest.raises(TraceValidationError):
            PriceForecast(horizon_steps=3, values=(0.1, 0.2))
        with pytest.raises(TraceValidationError):
            PriceForecast(horizon_steps=2, values=(0.1, math.nan))

    @given(prices=st.lists(st.floats(min_value=-1.0, max_value=1.0),
                           min_size=2, max_size=40),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_window_matches_reference(self, prices, data):
        trace = make_trace(prices)
        n = len(trace)
        horizons = data.draw(st.lists(st.integers(1, 2 * n), min_size=1,
                                      max_size=3))
        for horizon in horizons:
            for i in range(n):
                # The per-step copy forecast_at made before it sliced a column.
                reference = [trace.points[min(i + 1 + k, n - 1)].buy_price
                             for k in range(horizon)]
                values = forecast_at(trace, i, horizon).values
                assert type(values) is tuple
                assert values == tuple(reference)



class TestStats:
    def test_odd_length_median(self):
        stats = trace_stats(make_trace([0.10, 0.12, 0.30]))
        assert stats.buy_median == 0.12

    def test_even_length_lower_middle(self):
        # Verified against a sorting oracle: sorted[(n-1)//2] of 4 values.
        prices = [0.10, 0.12, 0.25, 0.30]
        assert sorted(prices)[(len(prices) - 1) // 2] == 0.12
        stats = trace_stats(make_trace(prices))
        assert stats.buy_median == 0.12

    def test_constant_series(self):
        stats = trace_stats(make_trace([0.2] * 5))
        assert stats.buy_median == 0.2
        assert stats.buy_iqr == 0.0

    def test_peaks(self):
        trace = make_trace([0.1, 0.2], load=1.5, pv=3.25)
        stats = trace_stats(trace)
        assert stats.load_peak_kw == 1.5
        assert stats.pv_peak_kw == 3.25

    @given(st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=2,
                    max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_median_is_observed_value(self, prices):
        stats = trace_stats(make_trace(prices))
        assert stats.buy_median in prices
        assert stats.buy_q1 in prices and stats.buy_q3 in prices


class TestSynthetic:
    def test_deterministic_given_seed(self):
        a = synthetic_trace(days=2, seed=11)
        b = synthetic_trace(days=2, seed=11)
        assert a == b

    def test_length_and_spacing(self):
        trace = synthetic_trace(days=2, seed=0)
        assert len(trace) == 2 * 288
        assert trace.step_minutes == 5

    def test_evening_peak_crosses_baseline_threshold(self):
        trace = synthetic_trace(days=1, seed=0)
        assert max(trace.buy_prices) >= 0.35

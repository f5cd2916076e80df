import math
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpolicy.errors import TraceSchemaError, TraceValidationError
from evpolicy.market import (FORECAST_STEPS, EnvTrace, PriceForecast,
                             forecast_at, load_trace, save_trace,
                             synthetic_trace, trace_stats)


def make_trace(prices, load=0.5, pv=0.0):
    n = len(prices)
    return EnvTrace(
        start=datetime(2024, 1, 1),
        load_kw=[load] * n, pv_kw=[pv] * n, buy_price=prices,
        sell_price=prices)


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
        assert trace.buy_price[2] == 0.30

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a byte-order mark before the
        # header, which must not become part of the name 'timestamp'.
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_csv(plain, [
            "2024-01-01T00:00:00,0.5,0.0,0.10,0.09",
            "2024-01-01T00:05:00,0.6,0.2,0.12,0.11",
            "2024-01-01T00:10:00,0.7,0.1,0.30,0.28",
        ])
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_trace(bom) == load_trace(plain)

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
        assert trace.buy_price[0] == trace.sell_price[0] == 0.10

    def test_round_trip(self, tmp_path):
        trace = synthetic_trace(days=1, seed=3)
        f = tmp_path / "rt.csv"
        save_trace(trace, f)
        assert load_trace(f) == trace

    @given(start=st.datetimes(datetime(1990, 1, 1), datetime(2090, 1, 1)),
           prices=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_keeps_any_start(self, tmp_path_factory, start, prices):
        n = len(prices)
        trace = EnvTrace(start, [0.5] * n, [0.0] * n, prices, prices)
        f = tmp_path_factory.mktemp("rt") / "rt.csv"
        save_trace(trace, f)
        assert load_trace(f) == trace

    def test_other_step_length_rejected_at_row_2(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [
            "2024-01-01T00:00:00,0.5,0.0,0.10,0.10",
            "2024-01-01T00:15:00,0.6,0.0,0.12,0.12",
            "2024-01-01T00:30:00,0.7,0.1,0.30,0.30",
        ])
        with pytest.raises(TraceValidationError,
                           match="^row 2: expected 5-minute spacing, "
                                 "got 0:15:00$"):
            load_trace(f)

    def test_parse_fault_reported_before_spacing_fault(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, [
            "2024-01-01T00:00:00,0.5,0.0,0.10,0.10",
            "2024-01-01T00:15:00,0.6,0.0,0.12,0.12",
            "2024-01-01T00:20:00,abc,0.1,0.30,0.30",
        ])
        with pytest.raises(TraceValidationError, match="row 3: could not"):
            load_trace(f)

    @pytest.mark.parametrize("name,schema", [
        ("price", {"timestamp": "timestamp", "load_kw": "load_kw",
                   "pv_kw": "pv_kw", "price": "price"}),
        ("buy_price", None)])
    def test_price_column_at_index_0_fills_both(self, tmp_path, name, schema):
        f = tmp_path / "t.csv"
        write_csv(f, ["0.10,2024-01-01T00:00:00,0.5,0.0",
                      "0.12,2024-01-01T00:05:00,0.6,0.0"],
                  header=f"{name},timestamp,load_kw,pv_kw")
        trace = load_trace(f, schema=schema)
        assert trace.buy_price == trace.sell_price == (0.10, 0.12)
        assert trace.load_kw == (0.5, 0.6)

    def test_sell_price_alone_fills_the_buy_column(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["2024-01-01T00:00:00,0.5,0.0,0.10,0.09",
                      "2024-01-01T00:05:00,0.6,0.0,0.12,0.11"])
        trace = load_trace(f, schema={"timestamp": "timestamp",
                                      "load_kw": "load_kw", "pv_kw": "pv_kw",
                                      "sell_price": "sell_price"})
        assert trace.buy_price == trace.sell_price == (0.09, 0.11)

    def test_no_price_mapping_is_schema_error(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["2024-01-01T00:00:00,0.5,0.0,0.10,0.09",
                      "2024-01-01T00:05:00,0.6,0.0,0.12,0.11"])
        with pytest.raises(TraceSchemaError) as excinfo:
            load_trace(f, schema={"timestamp": "timestamp",
                                  "load_kw": "load_kw", "pv_kw": "pv_kw"})
        assert str(excinfo.value) == f"{f}: no price column mapped"

    def test_blank_line_between_rows_is_skipped(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["2024-01-01T00:00:00,0.5,0.0,0.10,0.10", "",
                      "2024-01-01T00:05:00,0.6,0.0,0.12,0.12"])
        assert load_trace(f).buy_price == (0.10, 0.12)

    def test_short_row_names_its_row(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["2024-01-01T00:00:00,0.5,0.0,0.10,0.10",
                      "2024-01-01T00:05:00,0.6,0.0",
                      "2024-01-01T00:10:00,0.7,0.0,0.12,0.12"])
        with pytest.raises(TraceValidationError, match=": row 2: "):
            load_trace(f)

    def test_repeated_header_name_reads_its_last_column(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["2024-01-01T00:00:00,0.5,0.0,0.10,0.09,0.20",
                      "2024-01-01T00:05:00,0.6,0.0,0.12,0.11,0.22"],
                  header="timestamp,load_kw,pv_kw,buy_price,sell_price,"
                         "buy_price")
        trace = load_trace(f)
        assert trace.buy_price == (0.20, 0.22)
        assert trace.sell_price == (0.09, 0.11)

    def test_header_only_file_is_too_short(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("timestamp,load_kw,pv_kw,buy_price,sell_price\n")
        with pytest.raises(TraceValidationError, match="at least 2 points"):
            load_trace(f)


class TestColumns:
    def test_unequal_column_lengths_rejected(self):
        trace = make_trace([0.1, 0.2, 0.3])
        with pytest.raises(TraceValidationError, match="differ in length"):
            EnvTrace(trace.start, trace.load_kw, trace.pv_kw[:2],
                     trace.buy_price, trace.sell_price)

    @pytest.mark.parametrize("column,values,message", [
        ("load_kw", [0.5, math.nan, -1.0], "row 2: non-finite value"),
        ("load_kw", [math.nan, 0.5, 0.5], "row 1: non-finite value"),
        ("load_kw", [0.5, 0.5, -1.0], "row 3: load_kw and pv_kw must be"),
        ("pv_kw", [0.0, 0.0, -0.5], "row 3: load_kw and pv_kw must be"),
        ("pv_kw", [0.0, -math.inf, 0.0], "row 2: load_kw and pv_kw must be"),
        ("buy_price", [0.1, 0.2, math.inf], "row 3: non-finite value"),
        ("sell_price", [-0.1, math.nan, 0.1], "row 2: non-finite value"),
    ])
    def test_first_bad_row_is_named(self, column, values, message):
        fields = {"load_kw": [0.5] * 3, "pv_kw": [0.0] * 3,
                  "buy_price": [0.1] * 3, "sell_price": [0.1] * 3,
                  column: values}
        with pytest.raises(TraceValidationError, match=f"^{message}"):
            EnvTrace(datetime(2024, 1, 1), **fields)

    def test_columns_hold_plain_ints_and_floats(self):
        class Price(float):  # numpy's scalars subclass float the same way
            def __repr__(self):
                return f"Price({float(self)!r})"

        trace = EnvTrace(datetime(2024, 1, 1), [1, 2], [0.0, 0.5],
                         [Price(0.1), 0.2], [True, 0.1])
        assert [list(map(type, c)) for c in (
            trace.load_kw, trace.pv_kw, trace.buy_price, trace.sell_price)] \
            == [[int, int], [float, float], [float, float], [float, float]]
        assert (trace.buy_price, trace.sell_price) == ((0.1, 0.2), (1.0, 0.1))

    def test_list_columns_stored_as_tuples(self):
        trace = make_trace([0.1, 0.2, 0.3])
        for column in (trace.load_kw, trace.pv_kw,
                       trace.buy_price, trace.sell_price):
            assert type(column) is tuple and len(column) == 3


class TestForecast:
    def test_direct_slice(self):
        trace = make_trace([1, 2, 3, 4])
        assert forecast_at(trace, 0).values[:3] == (2, 3, 4)

    def test_padding_with_last_price(self):
        trace = make_trace([1, 2, 3, 4])
        assert forecast_at(trace, 2).values == (4,) * FORECAST_STEPS

    def test_constant_trace_stays_constant(self):
        trace = make_trace([0.2] * 6)
        for i in range(6):
            assert forecast_at(trace, i).values == (0.2,) * FORECAST_STEPS

    def test_out_of_range_index(self):
        trace = make_trace([1, 2, 3])
        with pytest.raises(IndexError):
            forecast_at(trace, 3)

    def test_always_full_horizon_and_alignment(self):
        trace = make_trace([0.1 * (i + 1) for i in range(10)])
        for i in range(10):
            fc = forecast_at(trace, i)
            assert fc.horizon_steps == len(fc.values) == FORECAST_STEPS
            for k in range(FORECAST_STEPS):
                if i + 1 + k < len(trace):
                    assert fc.values[k] == trace.buy_price[i + 1 + k]

    def test_direct_construction_is_validated(self):
        assert PriceForecast([0.1, 0.2]).values == (0.1, 0.2)
        with pytest.raises(TraceValidationError):
            PriceForecast((0.1, math.nan))
        # An aggregate over no prices has no value: fc_max(1) would raise
        # IndexError in one evaluator and ValueError in the other.
        with pytest.raises(TraceValidationError, match="no values"):
            PriceForecast(())
        # A window and a built forecast of the same values are one value.
        window = forecast_at(make_trace([0.1 * i for i in range(400)]), 7)
        built = PriceForecast(list(window.values))
        assert window == built and hash(window) == hash(built)
        assert window != window.values  # a tuple is not a forecast

    @given(prices=st.lists(st.floats(min_value=-1.0, max_value=1.0),
                           min_size=2, max_size=FORECAST_STEPS + 40),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_window_matches_reference(self, prices, data):
        trace = make_trace(prices)
        n = len(trace)
        for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=5)):
            # The per-step copy forecast_at made before it sliced a column.
            reference = [trace.buy_price[min(i + 1 + k, n - 1)]
                         for k in range(FORECAST_STEPS)]
            values = forecast_at(trace, i).values
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

    def test_window_excludes_other_steps(self):
        stats = trace_stats(make_trace([0.9, 0.10, 0.12, 0.30, 0.9]), 1, 3)
        assert stats.buy_median == 0.12

    @given(st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=2,
                    max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_median_is_observed_value(self, prices):
        stats = trace_stats(make_trace(prices))
        assert stats.buy_median in prices


class TestSynthetic:
    def test_deterministic_given_seed(self):
        a = synthetic_trace(days=2, seed=11)
        b = synthetic_trace(days=2, seed=11)
        assert a == b

    def test_length_and_spacing(self):
        trace = synthetic_trace(days=2, seed=0)
        assert len(trace) == 2 * 288
        assert trace.start == datetime(2024, 1, 1)

    def test_evening_peak_crosses_baseline_threshold(self):
        trace = synthetic_trace(days=1, seed=0)
        assert max(trace.buy_price) >= 0.35

import math

import numpy as np
import pytest

import panels
from marketstates.errors import DataError
from marketstates.ingest import (
    PricePanel,
    ReturnsPanel,
    load_price_panel,
    standardize_returns,
    to_log_returns,
)


def _write(tmp_path, body, name="panel.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


BASIC = (
    "date,AAA,BBB,CCC,DDD\n"
    "2020-01-01,1.0,1.0,10.0,3.0\n"
    "2020-01-02,2.0,1.0,10.0,3.0\n"
    "2020-01-03,4.0,1.0,10.0,3.0\n"
)


def test_load_basic_panel(tmp_path):
    panel = load_price_panel(_write(tmp_path, BASIC))
    assert list(panel.dates) == ["2020-01-01", "2020-01-02", "2020-01-03"]
    assert list(panel.assets) == ["AAA", "BBB", "CCC", "DDD"]
    assert panel.values.shape == (3, 4)
    assert panel.values.dtype == np.float64
    assert panel.values[0, 0] == 1.0 and panel.values[2, 0] == 4.0


def test_rows_sorted_by_date(tmp_path):
    shuffled = (
        "date,AAA,BBB,CCC,DDD\n"
        "2020-01-03,4.0,1.0,10.0,3.0\n"
        "2020-01-01,1.0,1.0,10.0,3.0\n"
        "2020-01-02,2.0,1.0,10.0,3.0\n"
    )
    a = load_price_panel(_write(tmp_path, BASIC, "a.csv"))
    b = load_price_panel(_write(tmp_path, shuffled, "b.csv"))
    assert list(a.dates) == list(b.dates)
    assert np.array_equal(a.values, b.values)


def test_header_date_column_case_insensitive(tmp_path):
    body = BASIC.replace("date,", "Date,", 1)
    panel = load_price_panel(_write(tmp_path, body))
    assert panel.values.shape == (3, 4)


def test_doubling_price_gives_ln2(tmp_path):
    panel = load_price_panel(_write(tmp_path, BASIC))
    returns = to_log_returns(panel)
    assert list(returns.dates) == ["2020-01-02", "2020-01-03"]
    assert returns.values[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert returns.values[1, 0] == pytest.approx(math.log(2.0), abs=1e-15)
    # constant price series carry exactly zero return
    assert np.all(returns.values[:, 1:3] == 0.0)


def test_log_returns_match_ratio_oracle(rng):
    prices = np.exp(rng.normal(size=(40, 6)))
    panel = PricePanel(
        dates=tuple(f"2020-01-{d:02d}" for d in range(1, 31))
        + tuple(f"2020-02-{d:02d}" for d in range(1, 11)),
        assets=tuple("ABCDEF"),
        values=prices,
    )
    returns = to_log_returns(panel)
    oracle = np.log(prices[1:] / prices[:-1])
    assert np.allclose(returns.values, oracle, atol=1e-12)
    assert returns.values.shape[0] == prices.shape[0] - 1


def test_price_return_round_trip(rng):
    panel, _ = panels.two_regime_panel(seed=11, per=30)
    prices = panels.returns_to_prices(panel)
    recovered = to_log_returns(prices)
    assert list(recovered.dates) == list(panel.dates)
    assert np.allclose(recovered.values, panel.values, atol=1e-10)


def test_subpanel_shift(tmp_path):
    # dropping the first price row drops exactly the first return row
    panel, _ = panels.two_regime_panel(seed=5, per=20)
    prices = panels.returns_to_prices(panel)
    full = to_log_returns(prices)
    trimmed = PricePanel(
        dates=tuple(prices.dates[1:]), assets=tuple(prices.assets), values=prices.values[1:]
    )
    part = to_log_returns(trimmed)
    assert np.allclose(full.values[1:], part.values, atol=1e-12)


def test_standardize_returns(rng):
    values = rng.normal(2.0, 3.0, size=(60, 4))
    panel = ReturnsPanel(
        dates=tuple(f"2021-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(60)),
        assets=("a", "b", "c", "d"),
        values=values,
    )
    z = standardize_returns(panel)
    assert np.allclose(z.values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.values.std(axis=0, ddof=1), 1.0, atol=1e-12)
    assert list(z.dates) == list(panel.dates)


def test_standardize_rejects_constant_column():
    values = np.ones((10, 4))
    values[:, 1:] = np.arange(10)[:, None] * [[1.0, 2.0, 3.0]]
    panel = ReturnsPanel(
        dates=tuple(f"2021-01-{d:02d}" for d in range(1, 11)),
        assets=("a", "b", "c", "d"),
        values=values,
    )
    with pytest.raises(DataError, match="zero return variance"):
        standardize_returns(panel)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("date,A,B,C,D\n2020-01-01,1,1,1,1\n2020-01-01,2,2,2,2\n", "duplicate date"),
        ("date,A,B,C,D\n2020-01-01,1,1,1,1\n2020-01-02,0.0,2,2,2\n", "not positive"),
        ("date,A,B,C,D\n2020-01-01,1,1,1,1\n2020-01-02,-1,2,2,2\n", "not positive"),
        ("date,A,B,C,D\n2020-01-01,1,1,1,1\n2020-01-02,x,2,2,2\n", "cannot parse"),
        ("date,A,B,C,D\n2020-01-01,1,1,1,1\n2020-01-02,inf,2,2,2\n", "cannot parse"),
        ("time,A,B,C,D\n2020-01-01,1,1,1,1\n2020-01-02,2,2,2,2\n", "first column"),
        ("date,A,B,C\n2020-01-01,1,1,1\n2020-01-02,2,2,2\n", "asset columns"),
        ("date,A,B,C,D\n2020-01-01,1,1,1,1\n", "data rows"),
        ("date,A,A,C,D\n2020-01-01,1,1,1,1\n2020-01-02,2,2,2,2\n", "duplicate asset"),
        ("date,A,B,C,D\n2020-1-01,1,1,1,1\n2020-01-02,2,2,2,2\n", "ISO-8601"),
        ("date,A,B,C,D\n2020-01-01,1,1,1\n2020-01-02,2,2,2,2\n", "cells"),
        ("", "empty"),
    ],
)
def test_rejects_malformed_csv(tmp_path, body, fragment):
    with pytest.raises(DataError, match=fragment):
        load_price_panel(_write(tmp_path, body))


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_price_panel(tmp_path / "absent.csv")


def test_parse_error_reports_line_and_column(tmp_path):
    body = "date,A,B,C,D\n2020-01-01,1,1,1,1\n2020-01-02,1,oops,1,1\n"
    with pytest.raises(DataError, match=r"line 3, column 'B'"):
        load_price_panel(_write(tmp_path, body))


def test_panel_validation_rejects_shape_mismatch():
    with pytest.raises(DataError):
        PricePanel(dates=("2020-01-01",), assets=("a", "b", "c", "d"), values=np.ones((2, 4)))
    with pytest.raises(DataError):
        ReturnsPanel(
            dates=("2020-01-01", "2020-01-02"),
            assets=("a", "b", "c"),
            values=np.ones((2, 4)),
        )


def test_panel_validation_rejects_unsorted_dates():
    with pytest.raises(DataError):
        PricePanel(
            dates=("2020-01-02", "2020-01-01"),
            assets=("a", "b", "c", "d"),
            values=np.ones((2, 4)),
        )


def test_panel_validation_rejects_nonfinite_returns():
    values = np.zeros((2, 4))
    values[1, 2] = np.nan
    with pytest.raises(DataError):
        ReturnsPanel(
            dates=("2020-01-01", "2020-01-02"), assets=("a", "b", "c", "d"), values=values
        )

import datetime
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panels
from marketstates import ingest
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


def test_standardize_rejects_a_single_date():
    # one date has no sample variance; numpy would warn on stderr before the error
    panel = ReturnsPanel(
        dates=("2021-01-04",), assets=("a", "b", "c", "d"), values=np.ones((1, 4))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="at least 2 return dates"):
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
        ("date,A,B,,D\n2020-01-01,1,1,1,1\n2020-01-02,2,2,2,2\n",
         "header column 4 has an empty asset name"),
        ("date, ,B,C,D\n2020-01-01,1,1,1,1\n2020-01-02,2,2,2,2\n",
         "header column 2 has an empty asset name"),
        ("date,A,B,C,D\n2020-1-01,1,1,1,1\n2020-01-02,2,2,2,2\n", "ISO-8601"),
        # the pattern passes these; the calendar does not
        ("date,A,B,C,D\n2020-13-45,1,1,1,1\n2020-01-02,2,2,2,2\n",
         "line 2: date '2020-13-45' is not a calendar date"),
        ("date,A,B,C,D\n2021-02-28,1,1,1,1\n2021-02-29,2,2,2,2\n",
         "line 3: date '2021-02-29' is not a calendar date"),
        # np.datetime64 reads year 0; date.fromisoformat does not
        ("date,A,B,C,D\n0000-01-01,1,1,1,1\n2020-01-02,2,2,2,2\n",
         "line 2: date '0000-01-01' is not a calendar date"),
        ("date,A,B,C,D\n20200101,1,1,1,1\n2020-01-02,2,2,2,2\n", "ISO-8601"),
        # Arabic-Indic digits: a Unicode digit is not an ISO-8601 one
        ("date,A,B,C,D\n\u0662\u0660\u0662\u0660-\u0660\u0661-\u0660\u0662,1,1,1,1\n"
         "2020-01-03,2,2,2,2\n", "is not ISO-8601"),
        ("date,A,B,C,D\n2020-01-01,1,1,1\n2020-01-02,2,2,2,2\n", "cells"),
        ("", "empty"),
    ],
)
def test_rejects_malformed_csv(tmp_path, body, fragment):
    with pytest.raises(DataError, match=fragment):
        load_price_panel(_write(tmp_path, body))


def test_rows_of_a_date_alone_fail_without_a_warning(tmp_path):
    # the block parse would hand loadtxt no data, and loadtxt warns on that
    body = "date,A,B,C,D\n2020-01-01,\n2020-01-02,\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="line 2: expected 5 cells, got 2"):
            load_price_panel(_write(tmp_path, body))


def test_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet exports often start with a UTF-8 byte-order mark
    plain = load_price_panel(_write(tmp_path, BASIC, "plain.csv"))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + BASIC.encode("utf-8"))
    panel = load_price_panel(marked)
    assert list(panel.dates) == list(plain.dates)
    assert list(panel.assets) == list(plain.assets)
    assert panel.values.tobytes() == plain.values.tobytes()


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


def test_leap_day_is_a_calendar_date(tmp_path):
    body = "date,A,B,C,D\n2020-02-28,1,1,1,1\n2020-02-29,2,2,2,2\n2020-03-01,3,3,3,3\n"
    assert load_price_panel(_write(tmp_path, body)).dates[1] == "2020-02-29"


@pytest.mark.parametrize(
    "body",
    [
        BASIC.replace("2.0,", '"2.0",').replace("BBB", '"BBB"'),
        BASIC.replace("10.0,", "1_0.0,"),
        BASIC.replace("\n", "\r"),
        BASIC.replace("\n", "\r\n").replace("4.0,", '"4.0",'),
        BASIC.replace("2020-01-02", " 2020-01-02 "),
    ],
    ids=["quoted", "underscore", "lone-cr", "crlf-quoted", "padded-date"],
)
def test_csv_path_reads_what_the_block_parse_refuses(tmp_path, body):
    read_rows = mock.Mock(wraps=ingest._read_rows)
    with mock.patch.object(ingest, "_read_rows", read_rows):
        panel = load_price_panel(_write(tmp_path, body))
    read_rows.assert_called_once()
    plain = load_price_panel(_write(tmp_path, BASIC, "plain.csv"))
    assert (panel.dates, panel.assets) == (plain.dates, plain.assets)
    assert panel.values.tobytes() == plain.values.tobytes()


def test_valid_files_take_the_block_parse(tmp_path, monkeypatch):
    def refuse(reader, path):
        raise AssertionError(f"{path} fell back to the csv path")

    monkeypatch.setattr(ingest, "_read_rows", refuse)
    prices = panels.returns_to_prices(panels.three_regime_panel(seed=2)[0])
    panels.write_prices_csv(tmp_path / "panel.csv", prices)
    panel = load_price_panel(tmp_path / "panel.csv")
    assert (panel.dates, panel.assets) == (list(prices.dates), list(prices.assets))
    assert panel.values.tobytes() == prices.values.tobytes()
    basic = load_price_panel(_write(tmp_path, BASIC))
    for body in (BASIC.replace("\n", "\r\n"), BASIC.replace("DDD", "#D")):
        panel = load_price_panel(_write(tmp_path, body))
        assert panel.values.tobytes() == basic.values.tobytes()
    assert panel.assets[-1] == "#D"


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_decode_error_gives_the_offset_in_the_file(tmp_path, bom):
    rows = "".join(f"2020-01-01,{i}.5,2.5,3.5,4.5\n" for i in range(1, 2000))
    data = bom + ("date,A,B,C,D\n" + rows).encode("utf-8")
    offset = 19013  # past the first 8 KB read of a buffered text file
    path = tmp_path / "bad.csv"
    path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
    with pytest.raises(DataError) as caught:
        load_price_panel(path)
    assert str(caught.value) == (
        f"{path}: not a readable UTF-8 CSV file: 'utf-8' codec can't decode "
        f"byte 0xff in position {offset}: invalid start byte"
    )


# each trap is one the block parse must refuse, or read exactly as the csv
# module and float() do
_TRAP_NAMES = ['"Q"', " ", "A0", "#Q", "Q\x1c", "Q\x00"]
_TRAP_DATES = ["0000-01-01", "2021-02-29", " 2020-01-05", "2020-01-05 ", "2020-1-05",
               "20200105", "2020-W01-1", "", "#2020-01-05", '"2020-01-05"']
_TRAP_CELLS = ["1_0", "\uff11", "\u0661", "1e-400", "inf", "nan", "-1", "0", "-0", "",
               " 2.5 ", "#1", "1#", '"3.5"', '"1,5"', "1e400", "\x1c1", "1\x1f", "1\x00",
               "0x10", "1d5", "0" * 131_073 + "1"]
_TRAPS = ["header", "name", "date", "duplicate date", "cell", "row width", "few rows",
          "whitespace line", "lone cr"]


@st.composite
def _csv_files(draw):
    """(text, clean): a small valid price CSV with up to two traps, and whether it has none."""
    n = draw(st.integers(4, 6))
    header = [draw(st.sampled_from(["date", "Date", " DATE "]))] + [f"A{j}" for j in range(n)]
    positive = st.floats(min_value=5e-324, max_value=1e300)
    cell = st.one_of(positive.map(repr), positive.map("{:.6e}".format),
                     st.integers(1, 10**20).map(str))
    dates = draw(st.lists(st.dates(datetime.date(1, 1, 1)), min_size=2, max_size=8, unique=True))
    rows = [[day.isoformat()] + [draw(cell) for _ in range(n)] for day in dates]
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * (len(rows) + 1)
    traps = draw(st.lists(st.sampled_from(_TRAPS), max_size=2))
    for trap in traps:
        t, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(1, n))
        if trap == "header":
            header[draw(st.sampled_from([0, j]))] = draw(st.sampled_from(["time", '"date"', ""]))
        elif trap == "name":
            header[j] = draw(st.sampled_from(_TRAP_NAMES))
        elif trap == "date":
            rows[t][0] = draw(st.sampled_from(_TRAP_DATES))
        elif trap == "duplicate date":
            rows[t][0] = rows[-1][0]
        elif trap == "cell":
            # a row an earlier "row width" trap cut may be narrower than j
            rows[t][min(j, len(rows[t]) - 1)] = draw(st.sampled_from(_TRAP_CELLS))
        elif trap == "row width":
            rows[t] = draw(st.sampled_from([rows[t][:-1], rows[t] + ["1"], rows[t][:1]]))
        elif trap == "lone cr":
            ends[t] = "\r"
    if "whitespace line" in traps:
        rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from([" ", "\t"]))])
        ends.append(ends[0])
    if "few rows" in traps:
        rows = rows[:draw(st.integers(0, 1))]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    # blank lines, a missing final line end and a BOM are no traps
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, "")
        ends.insert(at, ends[0])
    if draw(st.booleans()):
        ends[len(lines) - 1] = ""
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(map(str.__add__, lines, ends)), not traps


def _outcome(path):
    try:
        panel = load_price_panel(path)
    except DataError as exc:
        return str(exc)
    return panel.dates, panel.assets, panel.values.tobytes()


def _same_as_csv_path(path) -> bool:
    """Assert the load matches the csv path's; True if the block parse read the file."""
    with mock.patch.object(ingest, "_read_block", return_value=None):
        expected = _outcome(path)
    read_rows = mock.Mock(wraps=ingest._read_rows)
    with mock.patch.object(ingest, "_read_rows", read_rows):
        assert _outcome(path) == expected, path.read_bytes()[:200]
    return not read_rows.called


def test_each_trap_reads_as_on_the_csv_path(tmp_path):
    row = "2020-01-03,4.0,1.0,10.0,3.0"
    bodies = (
        [BASIC.replace("BBB", name) for name in _TRAP_NAMES]
        + [BASIC.replace("2020-01-02", day) for day in _TRAP_DATES]
        + [BASIC.replace("4.0,", cell + ",") for cell in _TRAP_CELLS]
        + [BASIC.replace(row, cut) for cut in (row + ",1", row + ",", row[:-4], row[:10], row[:11])]
        # the block parse reads each row's first 11 characters as its date
        + [BASIC.replace("2020-01-02,", "2020-01-02x,")]
    )
    for body in bodies:
        _same_as_csv_path(_write(tmp_path, body))


def test_descending_rows_take_the_block_parse(tmp_path, monkeypatch):
    prices = panels.returns_to_prices(panels.three_regime_panel(seed=2)[0])
    panels.write_prices_csv(tmp_path / "sorted.csv", prices)
    header, *rows = (tmp_path / "sorted.csv").read_text(encoding="utf-8").splitlines()
    descending = _write(tmp_path, "\n".join([header, *rows[::-1]]) + "\n", "descending.csv")

    def refuse(reader, path):
        raise AssertionError(f"{path} fell back to the csv path")

    monkeypatch.setattr(ingest, "_read_rows", refuse)
    a, b = load_price_panel(tmp_path / "sorted.csv"), load_price_panel(descending)
    assert (b.dates, b.assets) == (a.dates, a.assets) == (list(prices.dates), list(prices.assets))
    assert b.values.tobytes() == a.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=_csv_files())
def test_block_parse_matches_the_csv_path(tmp_path_factory, case):
    text, clean = case
    path = tmp_path_factory.mktemp("differential") / "panel.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _same_as_csv_path(path) or not clean

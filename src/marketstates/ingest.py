"""CSV price panel ingestion and log-return conversion.

Input files are UTF-8 (a byte-order mark is skipped), comma-separated,
with a header row. The first column is the date column (named "date",
case-insensitive), holding ISO-8601 calendar dates (YYYY-MM-DD); every
other column is one named asset's price series. Prices must be strictly
positive and finite; missing values are a data error, never imputed.
Cells may be quoted, lines may end in CRLF, and "#" is an ordinary
character, not a comment.
"""

import csv
import datetime
import io
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ifn import MIN_VERTICES

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# one row's date prefix
_ISO_DATE_ROW = re.compile(_ISO_DATE.pattern + ",")
# characters whose files the block parse leaves to the csv module: a quote,
# a lone carriage return (a line end to csv only) and NUL (a csv.Error
# before Python 3.11)
_CSV_ONLY = '"\r\x00'
_DATE_COLUMN = "date"
_MIN_ROWS = 2


def _matrix(values, dates, assets, noun: str) -> np.ndarray:
    """values as a float matrix, len(dates) rows by len(assets) columns."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(dates), len(assets)):
        raise DataError(f"{noun} matrix shape {values.shape} is not {len(dates)} x {len(assets)}")
    return values


@dataclass
class PricePanel:
    """A dated panel of strictly positive asset prices.

    dates are ISO-8601 strings, strictly increasing; values has one row
    per date and one column per asset.
    """

    dates: list[str]
    assets: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = _matrix(self.values, self.dates, self.assets, "price")
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            for a, b in zip(self.dates, self.dates[1:]):
                if a == b:
                    raise DataError(f"duplicate date {a}")
                if a > b:
                    raise DataError(f"dates must be strictly increasing, got {a} before {b}")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0.0):
            bad = np.argwhere(~(np.isfinite(self.values) & (self.values > 0.0)))[0]
            raise DataError(
                f"price at date {self.dates[bad[0]]}, asset {self.assets[bad[1]]} "
                "is not a positive finite number"
            )


@dataclass
class ReturnsPanel:
    """A dated panel of log-returns, one row per return date."""

    dates: list[str]
    assets: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = _matrix(self.values, self.dates, self.assets, "return")
        if not np.all(np.isfinite(self.values)):
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise DataError(
                f"return at date {self.dates[bad[0]]}, asset {self.assets[bad[1]]} "
                "is not finite"
            )


def _parse_price(cell: str, line_no: int, column: str) -> float:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise DataError(
            f"line {line_no}, column {column!r}: cannot parse {cell!r} as a price"
        )
    if value <= 0.0:
        raise DataError(
            f"line {line_no}, column {column!r}: price {cell!r} is not positive"
        )
    return value


def _parse_header(header: list, path) -> list[str]:
    """The asset names of a header row's cells, checked."""
    if not header or header[0].strip().lower() != _DATE_COLUMN:
        raise DataError(
            f"{path}: first column must be {_DATE_COLUMN!r}, "
            f"got {header[0]!r}" if header else f"{path}: empty header row"
        )
    assets = [h.strip() for h in header[1:]]
    if "" in assets:
        raise DataError(f"{path}: header column {assets.index('') + 2} has an empty asset name")
    if len(assets) < MIN_VERTICES:
        raise DataError(f"{path}: need at least {MIN_VERTICES} asset columns, got {len(assets)}")
    if len(set(assets)) != len(assets):
        raise DataError(f"{path}: duplicate asset columns in header")
    return assets


def _read_rows(reader, path) -> tuple:
    """Parse the header and data rows; returns (assets, [(date, prices)])."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    assets = _parse_header(header, path)

    rows: list[tuple[str, list[float]]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(assets) + 1:
            raise DataError(
                f"line {line_no}: expected {len(assets) + 1} cells, got {len(row)}"
            )
        date_cell = row[0].strip()
        if not _ISO_DATE.fullmatch(date_cell):
            raise DataError(
                f"line {line_no}: date {date_cell!r} is not ISO-8601 (YYYY-MM-DD)"
            )
        # the pattern alone admits 2020-13-45; fromisoformat alone would
        # admit 20200102 and 2020-W01-1 from Python 3.11 on
        try:
            datetime.date.fromisoformat(date_cell)
        except ValueError:
            raise DataError(
                f"line {line_no}: date {date_cell!r} is not a calendar date"
            ) from None
        prices = [
            _parse_price(cell.strip(), line_no, assets[j])
            for j, cell in enumerate(row[1:])
        ]
        rows.append((date_cell, prices))
    return assets, rows


def _read_block(text: str, path) -> PricePanel | None:
    """Parse a valid file in one vectorized pass; None if it does not pass.

    Every row must open with an 11-character YYYY-MM-DD date and its
    comma: one regex must delete all of those prefixes joined, and each
    date must pass date.fromisoformat, the calendar rule of _read_rows.
    One np.loadtxt reads every row's price columns. A row with fewer cells
    fails in loadtxt's usecols, so when the file holds one comma per asset
    per line, no row has more cells either. Unless the dates already
    increase, rows take a stable sort on the fixed-width ISO strings.

    Every file this returns None for goes to _read_rows, which either reads
    it (quoted cells, a lone carriage return, padded dates, prices such as
    1_0 that float() reads and np.loadtxt does not) or names its first bad
    line and cell. So this path needs no messages of its own.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(c in text for c in _CSV_ONLY):
        return None
    lines = text.split("\n")
    # a line longer than a cell may be is left to the csv module, cell by cell
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    # the csv module skips blank lines; whitespace-only ones fail the dates
    header, lines = lines[0], list(filter(None, lines[1:]))
    try:
        assets = _parse_header(header.split(","), path)
        if len(lines) < _MIN_ROWS:
            return None
        # a row shorter than 11 characters makes the joined prefixes short
        prefixes = "".join([line[:11] for line in lines])
        if len(prefixes) != 11 * len(lines) or _ISO_DATE_ROW.sub("", prefixes):
            return None
        dates = prefixes.split(",")[:-1]
        all(map(datetime.date.fromisoformat, dates))  # ValueError off the calendar
        if text.count(",") != (len(lines) + 1) * len(assets):
            return None
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                            usecols=range(1, len(assets) + 1))
        if not all(map(operator.lt, dates, dates[1:])):
            order = sorted(range(len(dates)), key=dates.__getitem__)
            dates, values = [dates[i] for i in order], values[order]
        return PricePanel(dates=dates, assets=assets, values=values)
    except ValueError:  # DataError included: duplicate dates or a bad price
        return None


def _read_text(path) -> str:
    """The file decoded whole, so a bad byte is named by its offset in the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from exc


def load_price_panel(path) -> PricePanel:
    """Read a CSV price file into a validated, date-sorted PricePanel.

    Raises DataError on a missing file, malformed header, unparseable or
    non-positive cell (reported by line and column), a date that is not
    YYYY-MM-DD or not on the calendar, duplicate dates, or a panel
    smaller than 2 rows and 4 assets.
    """
    text = _read_text(path)
    panel = _read_block(text, path)
    if panel is not None:
        return panel
    try:
        assets, rows = _read_rows(csv.reader(io.StringIO(text, newline="")), path)
    except csv.Error as exc:
        raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from exc

    if len(rows) < _MIN_ROWS:
        raise DataError(f"{path}: need at least {_MIN_ROWS} data rows, got {len(rows)}")

    rows.sort(key=lambda item: item[0])
    values = np.array([p for _, p in rows], dtype=float)
    return PricePanel(dates=[d for d, _ in rows], assets=list(assets), values=values)


def to_log_returns(panel: PricePanel) -> ReturnsPanel:
    """Convert a price panel to log-returns, dropping the first date.

    values[t, i] = ln(price[t+1, i] / price[t, i]).
    """
    values = np.diff(np.log(panel.values), axis=0)
    return ReturnsPanel(dates=list(panel.dates[1:]), assets=list(panel.assets), values=values)


def standardize_returns(panel: ReturnsPanel) -> ReturnsPanel:
    """Z-score each asset column (sample std, ddof=1) over the whole panel."""
    if len(panel.dates) < 2:
        raise DataError(f"need at least 2 return dates to standardize, got {len(panel.dates)}")
    mean = panel.values.mean(axis=0)
    std = panel.values.std(axis=0, ddof=1)
    flat = np.flatnonzero(~(std > 0.0))
    if flat.size:
        raise DataError(
            f"asset {panel.assets[flat[0]]} has zero return variance; cannot standardize"
        )
    return ReturnsPanel(
        dates=list(panel.dates),
        assets=list(panel.assets),
        values=(panel.values - mean) / std,
    )

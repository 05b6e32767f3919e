"""CSV price panel ingestion and log-return conversion.

Input files are UTF-8, comma-separated, with a header row. The first
column is the date column (named "date", case-insensitive), holding
ISO-8601 dates; every other column is one asset's price series. Prices
must be strictly positive and finite; missing values are a data error,
never imputed.
"""

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_DATE_COLUMN = "date"
_MIN_ROWS = 2
# the smallest panel the downstream graph builder accepts
_MIN_ASSETS = 4


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
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("price values must be a 2-d matrix")
        if self.values.shape != (len(self.dates), len(self.assets)):
            raise DataError(
                f"price matrix shape {self.values.shape} does not match "
                f"{len(self.dates)} dates x {len(self.assets)} assets"
            )
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
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("return values must be a 2-d matrix")
        if self.values.shape != (len(self.dates), len(self.assets)):
            raise DataError(
                f"returns matrix shape {self.values.shape} does not match "
                f"{len(self.dates)} dates x {len(self.assets)} assets"
            )
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


def _read_rows(reader, path) -> tuple:
    """Parse the header and data rows; returns (assets, [(date, prices)])."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    if not header or header[0].strip().lower() != _DATE_COLUMN:
        raise DataError(
            f"{path}: first column must be {_DATE_COLUMN!r}, "
            f"got {header[0]!r}" if header else f"{path}: empty header row"
        )
    assets = [h.strip() for h in header[1:]]
    if len(assets) < _MIN_ASSETS:
        raise DataError(
            f"{path}: need at least {_MIN_ASSETS} asset columns, got {len(assets)}"
        )
    if len(set(assets)) != len(assets):
        raise DataError(f"{path}: duplicate asset columns in header")

    rows: list[tuple[str, list[float]]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(assets) + 1:
            raise DataError(
                f"line {line_no}: expected {len(assets) + 1} cells, got {len(row)}"
            )
        date_cell = row[0].strip()
        if not _ISO_DATE.match(date_cell):
            raise DataError(
                f"line {line_no}: date {date_cell!r} is not ISO-8601 (YYYY-MM-DD)"
            )
        prices = [
            _parse_price(cell.strip(), line_no, assets[j])
            for j, cell in enumerate(row[1:])
        ]
        rows.append((date_cell, prices))
    return assets, rows


def load_price_panel(path) -> PricePanel:
    """Read a CSV price file into a validated, date-sorted PricePanel.

    Raises DataError on a missing file, malformed header, unparseable or
    non-positive cell (reported by line and column), duplicate dates, or
    a panel smaller than 2 rows and 4 assets.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    with fh:
        try:
            assets, rows = _read_rows(csv.reader(fh), path)
        except (UnicodeDecodeError, csv.Error) as exc:
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

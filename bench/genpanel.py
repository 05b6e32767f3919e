"""Seeded regime-switching price panels for the benchmark.

This generator belongs to the benchmark alone, so edits to the test
helpers cannot shift the benchmark's inputs. Each regime has its own
volatility scale, drift and block-correlation structure (a one-factor
model per block, with blocks drawn per regime). Segment lengths are
random with a stated mean, and each stretch of the history favours one
regime, as market eras do. The true regime of every return date is kept
for scoring label recovery.
"""

from dataclasses import dataclass

import numpy as np

# Per-regime settings, indexed by regime number: daily log-return scale,
# within-block correlation, drift, and a block count of its own so that
# every regime has its own correlation graph.
_VOL = (0.008, 0.014, 0.024, 0.011)
_RHO = (0.25, 0.45, 0.70, 0.35)
_DRIFT = (0.0004, 0.0, -0.0008, 0.0002)
_BLOCKS = (2, 4, 3, 6)

START_DATE = np.datetime64("1900-01-01")


@dataclass
class Panel:
    """A generated panel: the CSV text and what the verifier needs."""

    csv_text: str
    dates: list  # price dates; return dates are dates[1:]
    prices: np.ndarray  # the prices exactly as written, re-parsed
    truth: np.ndarray  # true regime per return date

    @property
    def return_dates(self) -> list:
        return self.dates[1:]

    @property
    def returns(self) -> np.ndarray:
        return np.diff(np.log(self.prices), axis=0)


def regime_sequence(t_len: int, regimes: int, mean_segment: int, rng) -> np.ndarray:
    """True regime per day.

    The history falls into one era per regime. A segment takes its era's
    regime with probability one half, else a regime drawn among the rest,
    and never repeats the previous one. A segment lasts mean/2 days plus
    an exponential of mean mean/2.
    """
    labels = np.empty(t_len, dtype=int)
    last = -1
    t = 0
    while t < t_len:
        era = t * regimes // t_len
        if era != last and rng.random() < 0.5:
            last = era
        else:
            others = [k for k in range(regimes) if k != last]
            last = others[int(rng.integers(len(others)))]
        length = max(1, int(round(mean_segment / 2 + rng.exponential(mean_segment / 2))))
        labels[t : t + length] = last
        t += length
    return labels


def _regime_returns(rng, size: int, n: int, regime: int) -> np.ndarray:
    blocks = min(_BLOCKS[regime], n)
    member = rng.permutation(np.arange(n) % blocks)
    rho = _RHO[regime]
    factors = rng.standard_normal((size, blocks))
    noise = rng.standard_normal((size, n))
    shock = np.sqrt(rho) * factors[:, member] + np.sqrt(1.0 - rho) * noise
    return _DRIFT[regime] + _VOL[regime] * shock


def generate(
    t_len: int, n: int, regimes: int, mean_segment: int, path_seed: int, seed: int
) -> Panel:
    """Panel of t_len return days (t_len + 1 price rows) on n assets.

    path_seed draws the regime path and seed draws everything else, so a
    workload can keep one path while each seed gives fresh returns.
    """
    if not 2 <= regimes <= len(_VOL):
        raise ValueError(f"regimes must be in [2, {len(_VOL)}], got {regimes}")
    rng = np.random.default_rng(seed)
    truth = regime_sequence(t_len, regimes, mean_segment, np.random.default_rng(path_seed))
    asset_scale = rng.uniform(0.8, 1.25, size=n)
    returns = np.empty((t_len, n))
    for k in range(regimes):
        rows = np.flatnonzero(truth == k)
        returns[rows] = _regime_returns(rng, rows.size, n, k) * asset_scale

    log_prices = np.vstack([np.zeros((1, n)), np.cumsum(returns, axis=0)]) + np.log(100.0)
    # Strictly increasing calendar dates, about five per seven days.
    dates = [str(d) for d in START_DATE + np.arange(t_len + 1) * 7 // 5]
    cells = np.char.mod("%.10g", np.exp(log_prices))
    header = "date," + ",".join(f"A{i:03d}" for i in range(n))
    lines = [header] + [d + "," + ",".join(row) for d, row in zip(dates, cells)]
    prices = np.array([[float(c) for c in row] for row in cells])
    return Panel(csv_text="\n".join(lines) + "\n", dates=dates, prices=prices, truth=truth)

"""Seeded synthetic panels and models shared by the unit and acceptance tests.

The three-regime panel interleaves distinct factor structures (half-blocks,
a global factor, even/odd blocks) so every regime is poorly explained by
every other regime's Gaussian: that is what lets large switching penalties
keep the true boundaries instead of collapsing to one state.
"""

import itertools
from datetime import date, timedelta

import numpy as np

from marketstates.ifn import build_tmfg, logo_precision
from marketstates.ingest import PricePanel, ReturnsPanel
from marketstates.segment import ClusterModel

N_ASSETS = 10


def block_equicorr(n, blocks, vols, rho):
    corr = np.eye(n)
    for block in blocks:
        for i, j in itertools.combinations(block, 2):
            corr[i, j] = corr[j, i] = rho
    v = np.asarray(vols, dtype=float)
    return corr * np.outer(v, v)


def _dates(count, start=date(2015, 1, 1)):
    return tuple((start + timedelta(days=i)).isoformat() for i in range(count))


def returns_panel(values, start=date(2015, 1, 1)):
    """The T x n values as a returns panel of daily dates from start and
    assets A0, A1, ..."""
    t_len, n = np.shape(values)
    return ReturnsPanel(
        dates=_dates(t_len, start), assets=tuple(f"A{i}" for i in range(n)), values=values
    )


def three_regime_specs(n=N_ASSETS):
    halves = [list(range(n // 2)), list(range(n // 2, n))]
    evens_odds = [list(range(0, n, 2)), list(range(1, n, 2))]
    whole = [list(range(n))]
    return [
        (0.012, block_equicorr(n, halves, [0.008] * (n // 2) + [0.016] * (n - n // 2), 0.9)),
        (-0.030, block_equicorr(n, whole, [0.055] * n, 0.9)),
        (0.000, block_equicorr(n, evens_odds, [0.020] * (n // 2) + [0.010] * (n - n // 2), 0.9)),
    ]


def three_regime_panel(seed=0, t_len=600, n=N_ASSETS):
    """Bull / crisis / sideways regimes in equal contiguous thirds."""
    rng = np.random.default_rng(seed)
    per = t_len // 3
    segments = [
        rng.multivariate_normal(np.full(n, mu), cov, size=per)
        for mu, cov in three_regime_specs(n)
    ]
    return returns_panel(np.vstack(segments)), np.repeat(np.arange(3), per)


def two_regime_panel(seed=3, per=150, n=8):
    """Calm positive-drift regime followed by a volatile correlated one."""
    rng = np.random.default_rng(seed)

    def equicorr(vol, rho):
        return vol**2 * (rho * np.ones((n, n)) + (1 - rho) * np.eye(n))

    bull = rng.multivariate_normal(np.full(n, 0.008), equicorr(0.010, 0.2), size=per)
    crisis = rng.multivariate_normal(np.full(n, -0.020), equicorr(0.045, 0.8), size=per)
    panel = returns_panel(np.vstack([bull, crisis]), start=date(2019, 1, 1))
    return panel, np.repeat(np.array([0, 1]), per)


# per regime of block_regime_panel: daily volatility, within-block
# correlation, drift and number of blocks, in the ranges a market shows
_BLOCK_REGIMES = ((0.008, 0.25, 0.0004, 2), (0.014, 0.45, 0.0, 4), (0.024, 0.70, -0.0008, 3))


def block_regime_panel(seed=6, t_len=1200, n=40, mean_segment=100):
    """Regimes that differ in volatility, drift and sector structure.

    Each regime draws its own assignment of assets to blocks, with one
    factor per block. Segments last mean_segment / 2 days plus an
    exponential of that mean, and never repeat the previous regime, so the
    path switches at irregular times as market eras do.
    """
    rng = np.random.default_rng(seed)
    truth = np.empty(t_len, dtype=int)
    t, last = 0, -1
    while t < t_len:
        last = int(rng.choice([k for k in range(len(_BLOCK_REGIMES)) if k != last]))
        length = max(1, round(mean_segment / 2 + rng.exponential(mean_segment / 2)))
        truth[t : t + length] = last
        t += length
    scale = rng.uniform(0.8, 1.25, size=n)
    values = np.empty((t_len, n))
    for k, (vol, rho, drift, blocks) in enumerate(_BLOCK_REGIMES):
        days = np.flatnonzero(truth == k)
        member = rng.permutation(np.arange(n) % blocks)
        factors = rng.normal(size=(days.size, blocks))
        shock = np.sqrt(rho) * factors[:, member] + np.sqrt(1.0 - rho) * rng.normal(size=(days.size, n))
        values[days] = (drift + vol * shock) * scale
    return returns_panel(values), truth


def block_similarity(rng, n, blocks=4, rho=0.5, t_len=500):
    """|correlation| of sampled returns with one factor per block of assets."""
    member = rng.integers(0, blocks, size=n)
    factors = rng.normal(size=(t_len, blocks))
    x = np.sqrt(rho) * factors[:, member] + np.sqrt(1.0 - rho) * rng.normal(size=(t_len, n))
    w = np.abs(np.corrcoef(x, rowvar=False))
    np.fill_diagonal(w, 0.0)
    return w


def near_duplicate_assets(rng, t_len=400, n=6):
    """(covariance, |correlation| similarity) of Gaussian returns whose
    assets 0 and 1 differ by 1e-14 noise, so every block holding both is
    near singular."""
    x = rng.normal(size=(t_len, n))
    x[:, 1] = x[:, 0] + 1e-14 * rng.normal(size=t_len)
    w = np.abs(np.corrcoef(x, rowvar=False))
    np.fill_diagonal(w, 0.0)
    return np.cov(x, rowvar=False, ddof=1), w


def rising_volatility_panel(seed=0, t_len=600, n=N_ASSETS):
    """Independent Gaussian returns whose scale rises fourfold over the panel.

    No regime boundary is sharp, so a fit's states hold uneven day counts.
    """
    rng = np.random.default_rng(seed)
    return returns_panel(
        0.01 * rng.normal(size=(t_len, n)) * np.linspace(0.5, 2.0, t_len)[:, None]
    )


def zero_sum_prices(seed=0, t_len=401) -> PricePanel:
    """Four assets whose log-returns sum to exactly 0 on every day.

    A and B flip between prices 1 and e in opposite directions, and C and D
    do the same on an independent flip sequence, so every state of any fit
    has a mean equal-weight return of 0.
    """
    a, c = np.random.default_rng(seed).integers(0, 2, size=(2, t_len))
    log_prices = np.column_stack([a, 1 - a, c, 1 - c]).astype(float)
    return PricePanel(dates=_dates(t_len), assets=("A", "B", "C", "D"), values=np.exp(log_prices))


def returns_to_prices(panel: ReturnsPanel, base=100.0) -> PricePanel:
    """Integrate log-returns into a price panel one day longer."""
    log_path = np.vstack([np.zeros(len(panel.assets)), np.cumsum(panel.values, axis=0)])
    first = date.fromisoformat(panel.dates[0]) - timedelta(days=1)
    dates = (first.isoformat(),) + tuple(panel.dates)
    return PricePanel(dates=dates, assets=tuple(panel.assets), values=base * np.exp(log_path))


def write_prices_csv(path, prices: PricePanel) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date," + ",".join(prices.assets) + "\n")
        for day, row in zip(prices.dates, prices.values):
            fh.write(day + "," + ",".join(repr(float(v)) for v in row) + "\n")


def matched_accuracy(predicted, truth) -> float:
    """Best label-permutation accuracy, by exhaustive permutation search.

    Deliberately independent of the package's assignment-based matcher.
    """
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    k = int(max(predicted.max(), truth.max())) + 1
    best = 0.0
    for perm in itertools.permutations(range(k)):
        mapped = np.asarray(perm)[predicted]
        best = max(best, float((mapped == truth).mean()))
    return best


def random_similarity(rng, n):
    a = rng.normal(size=(n, n))
    w = (a + a.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def random_spd(rng, n, strength=0.5):
    a = rng.normal(size=(n, 2 * n))
    return a @ a.T / (2 * n) + strength * np.eye(n)


def random_model(rng, n, label=0):
    """A state model on the TMFG of a random similarity, with a random mean
    and the LoGo precision of a random covariance, drawn in that order."""
    graph = build_tmfg(random_similarity(rng, n))
    return ClusterModel(
        label=label,
        mu=rng.normal(size=n),
        precision=logo_precision(random_spd(rng, n), graph),
        graph=graph,
        member_count=0,
    )

"""Invariance oracles: a fit must not notice units, asset order or price scale.

In exact arithmetic the model is invariant under x' = c * x + b with a
positive scale c_i per asset. Each state's correlation, and so its TMFG,
is unchanged; J' = C^-1 J C^-1 leaves every quadratic form as it was,
and log|J'| = log|J| - 2 sum(log c_i), so every state's score moves by
the same -sum(log c_i) on every day and the switching DP makes the same
choices. A permutation of the assets permutes every model. Rounding
could still flip a near-tied day, so the tests hold these only on the
panel families below, at fixed seeds.
"""

import functools
import itertools

import numpy as np
import pytest

import panels
from marketstates.analysis import likelihood_ratio
from marketstates.cli import main
from marketstates.ingest import PricePanel, ReturnsPanel
from marketstates.segment import ClusteringConfig, fit

PANELS = {
    **{f"three_regime-{s}": functools.partial(panels.three_regime_panel, s) for s in (0, 1, 2)},
    **{f"two_regime-{s}": functools.partial(panels.two_regime_panel, s) for s in (3, 4, 5)},
    **{f"block_regime-{s}": functools.partial(panels.block_regime_panel, s) for s in (6, 7, 8)},
}
CASES = list(itertools.product(PANELS, (2, 3, 4), (0.0, 10.0, 100.0)))
IDS = [f"{name}-K{k}-gamma{gamma:g}" for name, k, gamma in CASES]


@functools.lru_cache(maxsize=None)
def _panel(name: str) -> ReturnsPanel:
    return PANELS[name]()[0]


@functools.lru_cache(maxsize=None)
def _fit(name: str, k: int, gamma: float):
    return fit(_panel(name), ClusteringConfig(n_clusters=k, gamma=gamma, seed=0))


def _with_values(panel: ReturnsPanel, values, assets=None) -> ReturnsPanel:
    assets = panel.assets if assets is None else assets
    return ReturnsPanel(dates=panel.dates, assets=assets, values=values)


def _ratio(panel, models, path):
    return likelihood_ratio(panel, models, 0, len(models) - 1, scores=path.scores).values


@pytest.mark.parametrize("name, k, gamma", CASES, ids=IDS)
def test_affine_change_of_units_moves_only_the_objective(name, k, gamma):
    panel = _panel(name)
    t_len, n = panel.values.shape
    rng = np.random.default_rng(k)
    scale = np.exp(rng.uniform(-3.0, 3.0, n))
    shift = rng.normal(0.0, 0.1, n)
    models, path, report = _fit(name, k, gamma)
    moved = _with_values(panel, panel.values * scale + shift)
    models_c, path_c, report_c = fit(moved, ClusteringConfig(n_clusters=k, gamma=gamma, seed=0))

    assert np.array_equal(path_c.labels, path.labels)
    assert path_c.switches == path.switches
    assert report_c.iterations == report.iterations
    # each day's score moves by -sum(log c), whichever state holds it
    expected = path.objective - t_len * np.log(scale).sum()
    assert abs(path_c.objective - expected) <= 1e-12 * abs(expected)
    ratio, ratio_c = _ratio(panel, models, path), _ratio(moved, models_c, path_c)
    assert np.max(np.abs(ratio_c - ratio)) <= 1e-9


@pytest.mark.parametrize("name, k, gamma", CASES, ids=IDS)
def test_asset_order_does_not_change_the_fit(name, k, gamma):
    panel = _panel(name)
    order = np.random.default_rng(k).permutation(len(panel.assets))
    models, path, _ = _fit(name, k, gamma)
    shuffled = _with_values(panel, panel.values[:, order], [panel.assets[i] for i in order])
    models_p, path_p, _ = fit(shuffled, ClusteringConfig(n_clusters=k, gamma=gamma, seed=0))

    assert np.array_equal(path_p.labels, path.labels)
    for model, model_p in zip(models, models_p):
        assert np.allclose(model_p.mu, model.mu[order], rtol=1e-12, atol=0.0)
        dense = model.precision.dense()[np.ix_(order, order)]
        assert np.allclose(model_p.precision.dense(), dense, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("name", ["three_regime-0", "two_regime-3"])
def test_cli_labels_ignore_price_scale_and_standardize(name, tmp_path):
    # prices x c per asset leave the returns as they were up to rounding;
    # --standardize is an affine change of units of the returns
    panel = _panel(name)
    prices = panels.returns_to_prices(panel)
    scale = np.exp(np.random.default_rng(1).uniform(-4.0, 4.0, len(panel.assets)))
    scaled = PricePanel(dates=prices.dates, assets=prices.assets, values=prices.values * scale)
    runs = {}
    for run, price_panel, flags in (
        ("raw", prices, []),
        ("scaled", scaled, []),
        ("standardized", prices, ["--standardize"]),
    ):
        data = tmp_path / f"{run}.csv"
        panels.write_prices_csv(data, price_panel)
        out = tmp_path / run
        argv = ["--input", data, "--output", out, "--clusters", 3, "--ratio", "0,2"] + flags
        assert main([str(a) for a in argv]) == 0
        runs[run] = out

    def ratio(run):
        rows = (runs[run] / "ratio.csv").read_text().splitlines()[1:]
        return np.array([float(row.split(",")[1]) for row in rows])

    for run in ("scaled", "standardized"):
        states = (runs[run] / "states.csv").read_bytes()
        assert states == (runs["raw"] / "states.csv").read_bytes(), run
        assert np.max(np.abs(ratio(run) - ratio("raw"))) <= 1e-9, run
    raw_models = (runs["raw"] / "models.json").read_bytes()
    assert (runs["standardized"] / "models.json").read_bytes() != raw_models

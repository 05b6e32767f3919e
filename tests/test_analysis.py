import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import panels
from marketstates.analysis import (
    _matched_sum,
    label_agreement,
    likelihood_ratio,
    suggest_ratio_states,
)
from marketstates.ifn import build_tmfg, logo_precision
from marketstates.ingest import ReturnsPanel
from marketstates.segment import ClusteringConfig, ClusterModel, StatePath, fit


def _panel(values):
    values = np.asarray(values, dtype=float)
    t_len, n = values.shape
    dates = tuple(
        f"{2000 + i // 360:04d}-{1 + (i // 30) % 12:02d}-{1 + i % 30:02d}"
        for i in range(t_len)
    )
    return ReturnsPanel(dates=dates, assets=tuple(f"a{i}" for i in range(n)), values=values)


def _model(rng, n, label):
    graph = build_tmfg(panels.random_similarity(rng, n))
    return ClusterModel(
        label=label,
        mu=rng.normal(size=n),
        precision=logo_precision(panels.random_spd(rng, n), graph),
        graph=graph,
        member_count=0,
    )


def _path(labels):
    labels = np.asarray(labels, dtype=int)
    return StatePath(labels=labels, objective=0.0, switches=int(np.count_nonzero(np.diff(labels))))


def test_identical_models_give_zero_ratio(rng):
    n = 6
    model = _model(rng, n, 0)
    twin = ClusterModel(1, model.mu, model.precision, model.graph, 0)
    panel = _panel(rng.normal(size=(30, n)))
    series = likelihood_ratio(panel, [model, twin], 0, 1)
    assert np.array_equal(series.values, np.zeros(30))


def test_swap_antisymmetry_is_exact(rng):
    n = 7
    models = [_model(rng, n, k) for k in range(3)]
    panel = _panel(rng.normal(size=(50, n)))
    forward = likelihood_ratio(panel, models, 0, 2)
    backward = likelihood_ratio(panel, models, 2, 0)
    assert np.array_equal(forward.values, -backward.values)
    assert forward.state_a == 0 and forward.state_b == 2
    assert list(forward.dates) == list(panel.dates)


def test_ratio_chain_consistency(rng):
    n = 5
    models = [_model(rng, n, k) for k in range(3)]
    panel = _panel(rng.normal(size=(40, n)))
    ab = likelihood_ratio(panel, models, 0, 1).values
    bc = likelihood_ratio(panel, models, 1, 2).values
    ac = likelihood_ratio(panel, models, 0, 2).values
    assert np.allclose(ab + bc, ac, atol=1e-12)


def test_ratio_signs_on_two_regimes(two_regime):
    panel, truth = two_regime
    models, path, _ = fit(panel, ClusteringConfig(n_clusters=2, gamma=100.0, seed=0))
    crisis, bull = suggest_ratio_states(path, panel)
    series = likelihood_ratio(panel, models, crisis, bull)
    assert series.values[truth == 1].mean() > 0.0  # crisis block
    assert series.values[truth == 0].mean() < 0.0  # calm block


def test_ratio_rejects_bad_states(rng):
    models = [_model(rng, 5, k) for k in range(2)]
    panel = _panel(rng.normal(size=(10, 5)))
    with pytest.raises(ValueError):
        likelihood_ratio(panel, models, 0, 0)
    with pytest.raises(ValueError):
        likelihood_ratio(panel, models, 0, 5)


def test_suggest_ratio_states_orders_by_mean_return(rng):
    # state 1 carries the losses, state 0 the gains
    values = np.vstack([np.full((20, 4), 0.01), np.full((20, 4), -0.02)])
    values += 1e-4 * rng.normal(size=values.shape)
    panel = _panel(values)
    path = _path([0] * 20 + [1] * 20)
    assert suggest_ratio_states(path, panel) == (1, 0)


def test_suggest_ratio_states_needs_two_states(rng):
    panel = _panel(rng.normal(size=(10, 4)))
    with pytest.raises(ValueError):
        suggest_ratio_states(_path([0] * 10), panel)


def test_suggest_ratio_states_matches_numpy_means(rng):
    values = rng.normal(size=(60, 5))
    labels = rng.integers(0, 3, size=60)
    labels[:3] = [0, 1, 2]  # every state present
    pooled = {s: values[labels == s].mean(axis=1).mean() for s in (0, 1, 2)}
    expected = (min(pooled, key=pooled.get), max(pooled, key=pooled.get))
    assert suggest_ratio_states(_path(labels), _panel(values)) == expected


def test_suggest_ratio_states_rejects_length_mismatch(rng):
    panel = _panel(rng.normal(size=(10, 4)))
    with pytest.raises(ValueError, match="path length 9"):
        suggest_ratio_states(_path([0] * 5 + [1] * 4), panel)


def test_label_agreement_permutation_invariant(rng):
    labels = rng.integers(0, 4, size=200)
    permuted = np.array([2, 3, 1, 0])[labels]
    assert label_agreement(labels, permuted) == pytest.approx(1.0)
    assert label_agreement(labels, labels) == pytest.approx(1.0)


def test_label_agreement_matches_brute_force(rng):
    # the assignment solver must find the same optimum as trying every
    # permutation by hand
    for _ in range(25):
        k = int(rng.integers(2, 5))
        a = rng.integers(0, k, size=120)
        b = rng.integers(0, k, size=120)
        brute = max(
            float((np.asarray(perm)[a] == b).mean())
            for perm in itertools.permutations(range(k))
        )
        assert label_agreement(a, b) == pytest.approx(brute)


def _oracle_matched_sum(weights):
    rows, cols = linear_sum_assignment(weights, maximize=True)
    return int(weights[rows, cols].sum())


def test_matched_sum_matches_linear_sum_assignment(rng):
    cases = []
    for k_a, k_b in itertools.product(range(1, 10), repeat=2):
        for high in (2, 5, 1000):
            cases.append(rng.integers(0, high, size=(k_a, k_b)))
        cases.append(np.full((k_a, k_b), 7))
        dup = rng.integers(0, 50, size=(k_a, k_b))
        dup[k_a // 2 :] = dup[0]  # every row from the middle on repeats row 0
        cases.append(dup)
        cases.append(dup.T.copy())
    for weights in cases:
        assert _matched_sum(weights) == _oracle_matched_sum(weights), weights


def test_label_agreement_known_value():
    a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    b = np.array([1, 1, 1, 0, 0, 0, 0, 0])
    # swapping the labels lines up all but position 3
    assert label_agreement(a, b) == pytest.approx(7 / 8)


def test_label_agreement_rejects_length_mismatch():
    with pytest.raises(ValueError):
        label_agreement(np.zeros(4, dtype=int), np.zeros(5, dtype=int))


def test_label_agreement_rejects_empty_input():
    with pytest.raises(ValueError, match="empty"):
        label_agreement([], [])


@pytest.mark.parametrize(
    "labels_a, labels_b",
    [
        ([-1, -1, 0, 1], [2, 2, 0, 1]),  # -1 would index the last state
        ([0, 1, 1.7, 0.2], [0, 1, 1, 0]),  # a cast would truncate 1.7 and 0.2
        ([0, 1, 1, 0], [0, 1, np.nan, 0]),
    ],
)
def test_label_agreement_rejects_negative_or_fractional_labels(labels_a, labels_b):
    with pytest.raises(ValueError, match="non-negative integers"):
        label_agreement(labels_a, labels_b)
    with pytest.raises(ValueError, match="non-negative integers"):
        label_agreement(labels_b, labels_a)


def test_label_agreement_accepts_integral_floats():
    assert label_agreement([0.0, 0.0, 1.0, 1.0], [1, 1, 0, 0]) == 1.0

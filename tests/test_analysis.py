import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import panels
from marketstates import segment
from marketstates.analysis import (
    _matched_sum,
    label_agreement,
    likelihood_ratio,
    suggest_ratio_states,
)
from marketstates.errors import EstimationError
from marketstates.segment import ClusteringConfig, ClusterModel, ScoreMatrix, StatePath, fit


def _path(labels):
    labels = np.asarray(labels, dtype=int)
    return StatePath(labels=labels, objective=0.0, switches=int(np.count_nonzero(np.diff(labels))))


def test_identical_models_give_zero_ratio(rng):
    n = 6
    model = panels.random_model(rng, n, 0)
    twin = ClusterModel(1, model.mu, model.precision, model.graph, 0)
    panel = panels.returns_panel(rng.normal(size=(30, n)))
    series = likelihood_ratio(panel, [model, twin], 0, 1)
    assert np.array_equal(series.values, np.zeros(30))


def test_swap_antisymmetry_is_exact(rng):
    n = 7
    models = [panels.random_model(rng, n, k) for k in range(3)]
    panel = panels.returns_panel(rng.normal(size=(50, n)))
    forward = likelihood_ratio(panel, models, 0, 2)
    backward = likelihood_ratio(panel, models, 2, 0)
    assert np.array_equal(forward.values, -backward.values)
    assert forward.state_a == 0 and forward.state_b == 2
    assert list(forward.dates) == list(panel.dates)


def test_ratio_chain_consistency(rng):
    n = 5
    models = [panels.random_model(rng, n, k) for k in range(3)]
    panel = panels.returns_panel(rng.normal(size=(40, n)))
    ab = likelihood_ratio(panel, models, 0, 1).values
    bc = likelihood_ratio(panel, models, 1, 2).values
    ac = likelihood_ratio(panel, models, 0, 2).values
    assert np.allclose(ab + bc, ac, atol=1e-12)


def test_ratio_rejects_bad_states(rng):
    models = [panels.random_model(rng, 5, k) for k in range(2)]
    panel = panels.returns_panel(rng.normal(size=(10, 5)))
    with pytest.raises(ValueError):
        likelihood_ratio(panel, models, 0, 0)
    with pytest.raises(ValueError):
        likelihood_ratio(panel, models, 0, 5)


def _assert_ratio_from_fit_scores(panel, models, path):
    """Every pair's ratio from path.scores equals the rescored one, bit for bit."""
    assert path.scores.values.shape == (len(panel.dates), len(models))
    for a, b in itertools.permutations(range(len(models)), 2):
        taken = likelihood_ratio(panel, models, a, b, scores=path.scores)
        rescored = likelihood_ratio(panel, models, a, b)
        assert np.array_equal(taken.values, rescored.values), (a, b)
        assert (taken.state_a, taken.state_b, taken.dates) == (a, b, rescored.dates)


@pytest.mark.parametrize("max_iterations", [50, 1])
def test_ratio_from_the_fit_scores_is_the_rescored_one(three_regime, max_iterations):
    panel, _ = three_regime
    # four states on three regimes: the start is not yet a fixed point
    config = ClusteringConfig(n_clusters=4, gamma=100.0, seed=0, max_iterations=max_iterations)
    models, path, report = fit(panel, config)
    assert report.converged == (max_iterations == 50) == (report.iterations > 1)
    _assert_ratio_from_fit_scores(panel, models, path)


@pytest.mark.parametrize("rejection", ["estimate failed", "refit scored worse"])
def test_ratio_from_the_fit_scores_after_a_rejected_refit(three_regime, monkeypatch, rejection):
    # the first estimate after the start raises or has its mean moved 5
    # sigma off its days, so its state keeps its first model and column
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=0.0, seed=0, max_iterations=2)
    estimate = segment.estimate_cluster
    calls = []

    def rejected_once(returns, member_indices, config, label=0):
        calls.append(label)
        model = estimate(returns, member_indices, config, label=label)
        if len(calls) == config.n_clusters + 1:
            if rejection == "estimate failed":
                raise EstimationError(f"state {label}: forced failure")
            sigma = returns.values[np.asarray(member_indices)].std(axis=0)
            model = ClusterModel(label, model.mu + 5.0 * sigma, model.precision,
                                 model.graph, model.member_count)
        return model

    monkeypatch.setattr(segment, "estimate_cluster", rejected_once)
    models, path, report = fit(panel, config)
    assert report.iterations == 2 and report.repairs >= 1
    _assert_ratio_from_fit_scores(panel, models, path)


def test_ratio_rejects_scores_of_another_shape(rng):
    models = [panels.random_model(rng, 5, k) for k in range(3)]
    panel = panels.returns_panel(rng.normal(size=(10, 5)))
    for shape in ((10, 2), (9, 3), (10, 4)):
        with pytest.raises(ValueError, match="shape"):
            likelihood_ratio(panel, models, 0, 1, scores=ScoreMatrix(np.zeros(shape)))


def test_suggest_ratio_states_orders_by_mean_return(rng):
    # state 1 carries the losses, state 0 the gains
    values = np.vstack([np.full((20, 4), 0.01), np.full((20, 4), -0.02)])
    values += 1e-4 * rng.normal(size=values.shape)
    panel = panels.returns_panel(values)
    path = _path([0] * 20 + [1] * 20)
    assert suggest_ratio_states(path, panel) == (1, 0)


def test_suggest_ratio_states_needs_two_states(rng):
    panel = panels.returns_panel(rng.normal(size=(10, 4)))
    with pytest.raises(ValueError):
        suggest_ratio_states(_path([0] * 10), panel)
    # each day's returns cancel in pairs, so three states share mean return 0
    a, b = rng.normal(size=(2, 30))
    panel = panels.returns_panel(np.column_stack([a, -a, b, -b]))
    with pytest.raises(ValueError, match="different mean return"):
        suggest_ratio_states(_path([0, 1, 2] * 10), panel)


def test_suggest_ratio_states_matches_numpy_means(rng):
    values = rng.normal(size=(60, 5))
    labels = rng.integers(0, 3, size=60)
    labels[:3] = [0, 1, 2]  # every state present
    pooled = {s: values[labels == s].mean(axis=1).mean() for s in (0, 1, 2)}
    expected = (min(pooled, key=pooled.get), max(pooled, key=pooled.get))
    assert suggest_ratio_states(_path(labels), panels.returns_panel(values)) == expected


def test_suggest_ratio_states_rejects_length_mismatch(rng):
    panel = panels.returns_panel(rng.normal(size=(10, 4)))
    with pytest.raises(ValueError, match="path length 9"):
        suggest_ratio_states(_path([0] * 5 + [1] * 4), panel)


def test_label_agreement_permutation_invariant(rng):
    labels = rng.integers(0, 4, size=200)
    permuted = np.array([2, 3, 1, 0])[labels]
    assert label_agreement(labels, permuted) == pytest.approx(1.0)
    assert label_agreement(labels, labels) == pytest.approx(1.0)


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


def test_label_agreement_keeps_integer_labels_exact():
    # read as floats, 2**53 and 2**53 + 1 would be one label
    big = [2**53, 2**53 + 1, 2**53 + 1]
    assert label_agreement(big, [0, 1, 1]) == 1.0
    assert label_agreement([0, 1, 1], big) == 1.0
    for bad in (["a", "b", "b"], [None, 0, 1]):
        with pytest.raises(ValueError):
            label_agreement(bad, [0, 1, 1])
        with pytest.raises(ValueError):
            label_agreement([0, 1, 1], bad)


@pytest.mark.parametrize(
    "labels_a, labels_b",
    [
        ([0, 0, 10**12], [0, 0, 1]),  # 10**12 + 1 rows if sized by the largest label
        ([0.0, 1e300], [1, 0]),  # past every integer type
    ],
)
def test_label_agreement_of_large_labels(labels_a, labels_b):
    assert label_agreement(labels_a, labels_b) == 1.0
    assert label_agreement(labels_b, labels_a) == 1.0


def test_label_agreement_of_sparse_labels_matches_brute_force(rng):
    # the assignment solver finds the optimum of trying every permutation
    # by hand, and only which labels differ counts, not their values:
    # k -> 10**9 k + 7 on either sequence, or both, leaves it
    for _ in range(25):
        k = int(rng.integers(2, 5))
        a = rng.integers(0, k, size=120)
        b = rng.integers(0, k, size=120)
        brute = max(
            float((np.asarray(perm)[a] == b).mean())
            for perm in itertools.permutations(range(k))
        )
        sparse_a, sparse_b = 10**9 * a + 7, 10**9 * b + 7
        for x, y in ((a, b), (sparse_a, b), (a, sparse_b), (sparse_a, sparse_b)):
            assert label_agreement(x, y) == brute

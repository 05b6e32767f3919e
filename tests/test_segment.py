import itertools
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import panels
from marketstates import segment
from marketstates.errors import ConfigError, EstimationError, FitError
from marketstates.ifn import build_tmfg, logo_precision
from marketstates.ingest import ReturnsPanel, standardize_returns
from marketstates.segment import (
    ClusteringConfig,
    ClusterModel,
    ScoreMatrix,
    estimate_cluster,
    fit,
    score_states,
    solve_path,
)


def _panel(values):
    values = np.asarray(values, dtype=float)
    t_len, n = values.shape
    dates = tuple(
        f"{2000 + i // 360:04d}-{1 + (i // 30) % 12:02d}-{1 + i % 30:02d}"
        for i in range(t_len)
    )
    return ReturnsPanel(dates=dates, assets=tuple(f"a{i}" for i in range(n)), values=values)


def _model(rng, n, label=0, mu=None, cov=None):
    if cov is None:
        cov = panels.random_spd(rng, n)
    if mu is None:
        mu = rng.normal(size=n)
    graph = build_tmfg(panels.random_similarity(rng, n))
    return ClusterModel(
        label=label,
        mu=np.asarray(mu, dtype=float),
        precision=logo_precision(cov, graph),
        graph=graph,
        member_count=0,
    )


def brute_force_path(values, gamma):
    t_len, k_len = values.shape
    best = -np.inf
    for seq in itertools.product(range(k_len), repeat=t_len):
        total = values[np.arange(t_len), seq].sum()
        total -= gamma * sum(seq[t] != seq[t - 1] for t in range(1, t_len))
        if total > best:
            best = total
    return best


def reference_path(values, gamma):
    """The switching DP with numpy arrays per day and an int back-pointer
    matrix: stay when the state's value is at least the best value minus
    gamma (ties stay), otherwise switch from the first best state."""
    t_len, k_len = values.shape
    back = np.zeros((t_len, k_len), dtype=int)
    value = values[0].copy()
    ks = np.arange(k_len)
    for t in range(1, t_len):
        best_j = int(np.argmax(value))
        switch_value = value[best_j] - gamma
        stay = value >= switch_value
        back[t] = np.where(stay, ks, best_j)
        value = values[t] + np.where(stay, value, switch_value)
    labels = np.empty(t_len, dtype=int)
    k = int(np.argmax(value))
    labels[-1] = k
    for t in range(t_len - 1, 0, -1):
        k = int(back[t, k])
        labels[t - 1] = k
    switches = int(np.count_nonzero(np.diff(labels)))
    objective = float(values[np.arange(t_len), labels].sum() - gamma * switches)
    return labels, objective


# --- configuration


def test_config_defaults():
    config = ClusteringConfig()
    assert config.n_clusters == 4
    assert config.gamma == 100.0
    assert config.scoring_mode == "likelihood"
    assert config.max_iterations == 50
    assert config.resolved_min_cluster_size(10) == 11
    assert config.resolved_min_cluster_size(3) == 5  # floor


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_clusters": 1},
        {"n_clusters": 2.5},
        {"gamma": -1.0},
        {"gamma": float("nan")},
        {"scoring_mode": "bayes"},
        {"similarity_mode": "cosine"},
        {"max_iterations": 0},
        {"min_cluster_size": 4},
        {"restarts": -1},
        {"gamma": float("inf")},
        {"gamma": True},  # a bool passes numbers.Real but is no penalty
        {"gamma": "1"},
        {"gamma": None},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        ClusteringConfig(**kwargs).validate()


@pytest.mark.parametrize(
    "name", ["n_clusters", "max_iterations", "seed", "min_cluster_size", "restarts"]
)
def test_config_rejects_bool_for_integer_fields(name):
    # bool is an int subclass; True must not pass as a count or a seed
    with pytest.raises(ConfigError, match=name):
        ClusteringConfig(**{name: True}).validate()


def test_config_rejects_negative_seed(three_regime):
    # numpy's generator would reject it later with a bare ValueError
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        ClusteringConfig(seed=-1).validate()
    panel, _ = three_regime
    with pytest.raises(ConfigError, match="seed"):
        fit(panel, ClusteringConfig(n_clusters=3, seed=-1, restarts=1))


# --- scoring


def test_score_at_mean_with_identity_precision(rng):
    n = 6
    graph = build_tmfg(panels.random_similarity(rng, n))
    mu = rng.normal(size=n)
    model_a = ClusterModel(0, mu, logo_precision(np.eye(n), graph), graph, 0)
    model_b = _model(rng, n, label=1)
    panel = _panel(np.tile(mu, (3, 1)))
    scores = score_states(panel, [model_a, model_b], "likelihood")
    # quadratic term vanishes at the mean and log|I| = 0
    assert np.allclose(scores.values[:, 0], 0.0, atol=1e-12)
    mah = score_states(panel, [model_a, model_b], "mahalanobis")
    assert np.allclose(mah.values[:, 0], 0.0, atol=1e-12)


def test_score_matches_dense_formula(rng):
    t_len, n = 40, 7
    panel = _panel(rng.normal(size=(t_len, n)))
    models = [_model(rng, n, label=k) for k in range(3)]
    scores = score_states(panel, models, "likelihood")
    for k, model in enumerate(models):
        dense = model.precision.matrix.toarray()
        for t in range(t_len):
            d = panel.values[t] - model.mu
            expected = -0.5 * d @ dense @ d + 0.5 * model.precision.log_det
            assert scores.values[t, k] == pytest.approx(expected, abs=1e-12)
    mah = score_states(panel, models, "mahalanobis")
    for k, model in enumerate(models):
        shift = 0.5 * model.precision.log_det
        assert np.allclose(scores.values[:, k] - mah.values[:, k], shift, atol=1e-12)


def test_dense_scores_match_csr_product(rng):
    # scoring multiplies by a dense J; the CSR product sums each row in
    # another order, so the two agree to rounding only
    for t_len, n in ((50, 4), (40, 12), (30, 60)):
        panel = _panel(rng.normal(size=(t_len, n)))
        models = [_model(rng, n, label=k) for k in range(3)]
        scores = score_states(panel, models, "mahalanobis")
        for k, model in enumerate(models):
            d = panel.values - model.mu
            quad = np.einsum("ti,ti->t", d, (model.precision.matrix @ d.T).T)
            assert np.allclose(scores.values[:, k], -0.5 * quad, rtol=1e-12, atol=0.0)


def test_identical_models_identical_columns(rng):
    n = 5
    model = _model(rng, n)
    panel = _panel(rng.normal(size=(20, n)))
    scores = score_states(panel, [model, model], "likelihood")
    assert np.array_equal(scores.values[:, 0], scores.values[:, 1])


def test_score_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match=r"t=1.*state=0|1, state"):
        ScoreMatrix(np.array([[0.0, 1.0], [np.inf, 2.0]]))


# --- path solving


def test_gamma_zero_is_pointwise_argmax(rng):
    values = rng.normal(size=(100, 5))
    path = solve_path(values, 0.0)
    assert np.array_equal(path.labels, values.argmax(axis=1))
    assert path.objective == pytest.approx(values.max(axis=1).sum())


def test_huge_gamma_freezes_best_column(rng):
    values = rng.normal(size=(80, 4))
    path = solve_path(values, 1e9)
    assert path.switches == 0
    assert len(np.unique(path.labels)) == 1
    assert path.labels[0] == values.sum(axis=0).argmax()


def test_matches_brute_force(rng):
    for _ in range(150):
        t_len = int(rng.integers(1, 9))
        k_len = int(rng.integers(1, 4))
        values = 3.0 * rng.normal(size=(t_len, k_len))
        gamma = float(rng.choice([0.0, 0.4, 1.0, 4.0, 1e6]))
        path = solve_path(values, gamma)
        assert path.objective == pytest.approx(brute_force_path(values, gamma), abs=1e-9)
        recomputed = values[np.arange(t_len), path.labels].sum() - gamma * path.switches
        assert path.objective == pytest.approx(recomputed, abs=1e-12)


def test_labels_match_reference_on_ties(rng):
    # integer scores in {0, 1, 2} tie often, so the labels pin the
    # tie-break rule and not only the optimal objective
    for k_len in range(1, 7):
        for gamma in (0.0, 1.0, 2.0, 1e6):
            for t_len in (1, 2, 3, 300, *rng.integers(4, 300, size=4)):
                values = rng.integers(0, 3, size=(int(t_len), k_len)).astype(float)
                path = solve_path(values, gamma)
                labels, objective = reference_path(values, gamma)
                assert np.array_equal(path.labels, labels)
                assert path.labels.dtype == labels.dtype
                assert path.objective == objective


def test_known_switch_layout():
    # state 0 wins early, state 1 late; moderate gamma keeps one switch
    values = np.full((6, 2), -1.0)
    values[:3, 0] = 0.0
    values[3:, 1] = 0.0
    path = solve_path(values, 0.5)
    assert path.labels.tolist() == [0, 0, 0, 1, 1, 1]
    assert path.switches == 1
    assert path.objective == pytest.approx(-0.5)
    # a gamma above the total gain flattens the path
    flat = solve_path(values, 10.0)
    assert flat.switches == 0


def test_tie_prefers_staying():
    values = np.zeros((5, 3))
    path = solve_path(values, 0.0)
    assert path.switches == 0


@settings(max_examples=60, deadline=None)
@given(
    values=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 3)),
        elements=st.floats(-50, 50, allow_nan=False, width=32),
    ),
    gamma=st.floats(0, 100, allow_nan=False),
)
def test_solve_path_never_beaten_by_enumeration(values, gamma):
    path = solve_path(values, float(gamma))
    assert path.objective >= brute_force_path(values, float(gamma)) - 1e-9


def test_rejects_bad_gamma():
    values = np.zeros((4, 2))
    with pytest.raises(ValueError):
        solve_path(values, -1.0)
    with pytest.raises(ValueError):
        solve_path(values, float("nan"))


# --- estimation


def test_estimate_recovers_moments(rng):
    n, m = 5, 10_000
    x = rng.multivariate_normal(np.zeros(n), np.eye(n), size=m)
    config = ClusteringConfig(n_clusters=2, seed=0)
    model = estimate_cluster(_panel(x), np.arange(m), config, label=1)
    assert model.label == 1
    assert model.member_count == m
    assert np.allclose(model.mu, 0.0, atol=0.05)
    assert np.allclose(model.precision.matrix.toarray(), np.eye(n), atol=0.1)
    assert abs(model.precision.log_det) < 0.5


def test_estimate_rejects_undersized(rng):
    panel = _panel(rng.normal(size=(30, 6)))
    config = ClusteringConfig(n_clusters=2)
    with pytest.raises(EstimationError, match="at least 7"):
        estimate_cluster(panel, np.arange(5), config)


def test_estimate_rejects_constant_column(rng):
    values = rng.normal(size=(40, 6))
    values[:, 2] = 1.25
    with pytest.raises(EstimationError, match="zero variance"):
        estimate_cluster(_panel(values), np.arange(40), ClusteringConfig(n_clusters=2))


# --- full fit


def test_fit_recovers_three_regimes(three_regime):
    panel, truth = three_regime
    models, path, report = fit(panel, ClusteringConfig(n_clusters=3, gamma=100.0, seed=0))
    assert panels.matched_accuracy(path.labels, truth) >= 0.9
    assert report.objective == pytest.approx(path.objective)
    assert len(models) == 3
    assert sum(m.member_count for m in models) == len(panel.dates)
    occupancy = np.bincount(path.labels, minlength=3)
    for model in models:
        assert model.member_count == occupancy[model.label]


def test_fit_objective_is_best_of_trajectory(three_regime):
    panel, _ = three_regime
    _, _, report = fit(panel, ClusteringConfig(n_clusters=3, gamma=100.0, seed=0))
    assert report.objective == pytest.approx(max(report.objective_trajectory))
    assert report.iterations == len(report.objective_trajectory)
    assert 0 <= report.best_iteration < report.iterations
    assert report.objective_trajectory[report.best_iteration] == report.objective


def test_gamma_zero_switches_more(three_regime):
    panel, _ = three_regime
    _, loose, _ = fit(panel, ClusteringConfig(n_clusters=3, gamma=0.0, seed=0))
    _, tight, _ = fit(panel, ClusteringConfig(n_clusters=3, gamma=100.0, seed=0))
    assert loose.switches > tight.switches


def test_gamma_robustness(three_regime):
    panel, _ = three_regime
    runs = {}
    for gamma in (10.0, 100.0, 1000.0):
        _, path, _ = fit(panel, ClusteringConfig(n_clusters=3, gamma=gamma, seed=0))
        runs[gamma] = path.labels
    for a, b in itertools.combinations(runs, 2):
        assert panels.matched_accuracy(runs[a], runs[b]) >= 0.85


def test_fit_deterministic(three_regime):
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0, restarts=2)
    _, path_a, report_a = fit(panel, config)
    _, path_b, report_b = fit(panel, config)
    assert np.array_equal(path_a.labels, path_b.labels)
    assert path_a.objective == path_b.objective
    assert report_a.objective_trajectory == report_b.objective_trajectory


def test_fit_single_regime_stays_put(rng):
    n = 6
    cov = panels.random_spd(rng, n, strength=0.2) * 1e-4
    values = rng.multivariate_normal(np.zeros(n), cov, size=240)
    _, path, _ = fit(_panel(values), ClusteringConfig(n_clusters=2, gamma=100.0, seed=0))
    assert path.switches <= 2


def test_fit_standardize_flag(three_regime):
    # fit takes the panel as given; z-scoring is the caller's choice
    panel, truth = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0)
    _, path, _ = fit(standardize_returns(panel), config)
    assert panels.matched_accuracy(path.labels, truth) >= 0.9


def test_fit_mahalanobis_mode(rng):
    # without the log-determinant term only mean separation can drive the
    # assignment, so the regimes here share one covariance
    n = 6
    cov = (0.01**2) * np.eye(n)
    a = rng.multivariate_normal(np.full(n, 0.02), cov, size=100)
    b = rng.multivariate_normal(np.full(n, -0.02), cov, size=100)
    truth = np.repeat([0, 1], 100)
    config = ClusteringConfig(n_clusters=2, gamma=10.0, seed=0, scoring_mode="mahalanobis")
    _, path, _ = fit(_panel(np.vstack([a, b])), config)
    assert panels.matched_accuracy(path.labels, truth) >= 0.9


def test_fit_restarts_only_improve(three_regime):
    panel, _ = three_regime
    base = ClusteringConfig(n_clusters=2, gamma=100.0, seed=0)
    _, p0, _ = fit(panel, base)
    _, p5, r5 = fit(panel, ClusteringConfig(n_clusters=2, gamma=100.0, seed=0, restarts=5))
    assert r5.restarts_used == 5
    assert p5.objective >= p0.objective


def test_fit_rejects_infeasible(rng):
    # 4 states x 6 minimum points > 20 available rows
    panel = _panel(rng.normal(size=(20, 5)))
    with pytest.raises(ConfigError, match="infeasible"):
        fit(panel, ClusteringConfig(n_clusters=4, gamma=1.0))


def test_fit_rejects_few_assets(rng):
    values = rng.normal(size=(100, 3))
    dates = tuple(f"2001-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(100))
    panel = ReturnsPanel(dates=dates, assets=("a", "b", "c"), values=values)
    with pytest.raises(ConfigError, match="at least 4"):
        fit(panel, ClusteringConfig(n_clusters=2))


def test_fit_degenerate_panel_fails_cleanly():
    values = np.zeros((60, 5))
    values[:, 0] = np.linspace(-1, 1, 60)  # only one asset moves
    with pytest.raises((FitError, EstimationError)):
        fit(_panel(values), ClusteringConfig(n_clusters=2, gamma=1.0, seed=0))


def test_monotone_improvement_between_iterations(three_regime):
    # each E-step solves the penalized problem exactly for the current
    # models, so the trajectory can only drop when graphs are re-selected;
    # the fit must then stop and keep the best iterate
    panel, _ = three_regime
    _, _, report = fit(panel, ClusteringConfig(n_clusters=3, gamma=100.0, seed=0))
    best = max(report.objective_trajectory)
    assert report.objective == pytest.approx(best)
    if report.objective_decreased:
        assert report.objective_trajectory[-1] < best


# --- repair pass


def _record_rounds(monkeypatch):
    """Record the labels of every re-estimation round fit makes."""
    rounds = []
    estimate_all = segment._estimate_all

    def recording(panel, labels, config, known):
        rounds.append(labels.copy())
        return estimate_all(panel, labels, config, known)

    monkeypatch.setattr(segment, "_estimate_all", recording)
    return rounds


def _count_absorbs(monkeypatch):
    """Record the state of every window that the repair pass absorbs."""
    states = []
    absorb = segment._absorb_window

    def counting(labels, realized_scores, state, length, blocked):
        states.append(state)
        return absorb(labels, realized_scores, state, length, blocked)

    monkeypatch.setattr(segment, "_absorb_window", counting)
    return states


def test_undersized_state_is_repaired_at_the_refit(three_regime, monkeypatch):
    # four states on three regimes: the first assignment empties state 1,
    # and the refit gives it back the worst-scoring window of min_size days
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=4, gamma=100.0, seed=0, max_iterations=2)
    min_size = config.resolved_min_cluster_size(len(panel.assets))
    rounds = _record_rounds(monkeypatch)
    models, _, report = fit(panel, config)
    assert report.repairs == 1
    assert len(rounds) == 2
    window = np.flatnonzero(rounds[1] == 1)
    assert window.size == min_size
    assert np.array_equal(window, np.arange(window[0], window[0] + min_size))
    assert all(m.member_count >= min_size for m in models)
    assert sum(m.member_count for m in models) == len(panel.dates)


def test_failed_estimate_is_repaired_at_the_refit(three_regime, monkeypatch):
    # the first state estimated after the starting round raises once; the
    # refit absorbs a window into that state and estimates it again
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=0.0, seed=0, max_iterations=2)
    min_size = config.resolved_min_cluster_size(len(panel.assets))
    estimate = segment.estimate_cluster
    calls, failed = [], []

    def failing_once(returns, member_indices, config, label=0):
        calls.append(label)
        if len(calls) == config.n_clusters + 1:
            failed.append(label)
            raise EstimationError(f"state {label}: forced failure")
        return estimate(returns, member_indices, config, label=label)

    monkeypatch.setattr(segment, "estimate_cluster", failing_once)
    absorbed = _count_absorbs(monkeypatch)
    models, _, report = fit(panel, config)
    assert len(failed) == 1
    assert absorbed == failed
    assert report.repairs == 1
    assert report.iterations == 2
    assert all(m.member_count >= min_size for m in models)


def test_undersized_start_cannot_be_repaired(three_regime):
    # the first iteration has no earlier scores to pick a window by
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0)
    min_size = config.resolved_min_cluster_size(len(panel.assets))
    labels0 = np.zeros(len(panel.dates), dtype=int)
    labels0[:3] = 2
    with pytest.raises(FitError, match=r"cannot repair undersized state\(s\) \[1, 2\]"):
        segment._fit_once(panel, config, labels0, min_size, None)


def test_estimate_failing_every_attempt_stops_after_two_repairs(three_regime, monkeypatch):
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=0.0, seed=0)
    estimate = segment.estimate_cluster
    calls = []

    def failing_after_start(returns, member_indices, config, label=0):
        calls.append(label)
        if len(calls) > config.n_clusters:
            raise EstimationError(f"state {label}: forced failure")
        return estimate(returns, member_indices, config, label=label)

    monkeypatch.setattr(segment, "estimate_cluster", failing_after_start)
    absorbed = _count_absorbs(monkeypatch)
    with pytest.raises(FitError, match="state estimation failed: state .: forced failure") as info:
        fit(panel, config)
    assert len(absorbed) == 2
    assert isinstance(info.value.__cause__, EstimationError)


# --- state-estimate memo


def _count_estimates(monkeypatch):
    """Record the member set of every estimate_cluster call made by fit."""
    calls = []
    estimate = segment.estimate_cluster

    def counting(returns, member_indices, config, label=0):
        calls.append(np.asarray(member_indices).tobytes())
        return estimate(returns, member_indices, config, label=label)

    monkeypatch.setattr(segment, "estimate_cluster", counting)
    return calls


def _assert_same_fit(a, b):
    (models_a, path_a, report_a), (models_b, path_b, report_b) = a, b
    assert np.array_equal(path_a.labels, path_b.labels)
    assert path_a.objective == path_b.objective
    assert asdict(report_a) == asdict(report_b)
    assert len(models_a) == len(models_b)
    for ma, mb in zip(models_a, models_b):
        assert (ma.label, ma.member_count) == (mb.label, mb.member_count)
        assert np.array_equal(ma.mu, mb.mu)
        assert ma.precision.log_det == mb.precision.log_det
        ja, jb = ma.precision.matrix, mb.precision.matrix
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ja, name), getattr(jb, name))


def test_shared_memo_gives_the_same_fit(three_regime):
    # the memo is warmed under every setting it keys on, so a key that
    # left one out would hand a fit another setting's states
    panel, _ = three_regime
    keyed = ("signed", "absolute", "squared")
    memo = {}
    for similarity in keyed:
        warm = ClusteringConfig(n_clusters=3, gamma=10.0, seed=0, similarity_mode=similarity)
        fit(panel, warm, memo=memo)
    for similarity in keyed:
        config = ClusteringConfig(
            n_clusters=3, gamma=100.0, seed=0, restarts=2, similarity_mode=similarity
        )
        _assert_same_fit(fit(panel, config), fit(panel, config, memo=memo))


def test_memo_keeps_only_the_starting_states(three_regime, monkeypatch):
    # restarts share the memo for their starts; refit states stay out of
    # it, so what a memo holds does not grow with the iterations
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0, restarts=3)
    calls = _count_estimates(monkeypatch)
    memo = {}
    _, _, report = fit(panel, config, memo=memo)
    assert report.restarts_used == 3
    assert len(calls) > len(memo) == 3 * (1 + 3)  # the states of each start
    blocks = np.repeat(np.arange(3), 200)
    assert {(np.flatnonzero(blocks == k).tobytes(), "signed") for k in range(3)} <= memo.keys()
    # a second fit of the same panel estimates only its refit states
    first = list(calls)
    calls.clear()
    fit(panel, config, memo=memo)
    assert len(calls) == len(first) - len(memo)


def test_refit_reuses_the_states_of_the_iterate_before(three_regime, monkeypatch):
    panel, truth = three_regime
    calls = _count_estimates(monkeypatch)
    rounds = []
    estimate_all = segment._estimate_all

    def recording(panel, labels, config, known):
        before = len(calls)
        models, keys = estimate_all(panel, labels, config, known)
        rounds.append((keys, calls[before:]))
        return models, keys

    monkeypatch.setattr(segment, "_estimate_all", recording)
    # state 0 starts 40 days into state 1, so the refit moves those two
    # and leaves state 2 as it was
    labels0 = truth.copy()
    labels0[200:240] = 0
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0)
    min_size = config.resolved_min_cluster_size(len(panel.assets))
    segment._fit_once(panel, config, labels0, min_size, None)
    assert len(rounds) >= 2
    assert rounds[0][1] == [key[0] for key in rounds[0][0]]
    reused = 0
    for (before, _), (keys, estimated) in zip(rounds, rounds[1:]):
        fresh = [key[0] for key in keys if key not in before]
        assert estimated == fresh
        reused += len(keys) - len(fresh)
    assert reused > 0


def test_memo_hit_under_another_label_gets_that_label(three_regime, monkeypatch):
    panel, truth = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0, max_iterations=1)
    min_size = config.resolved_min_cluster_size(len(panel.assets))
    memo = {}
    first, _, _ = segment._fit_once(panel, config, truth, min_size, memo)
    calls = _count_estimates(monkeypatch)
    perm = np.array([2, 0, 1])
    second, _, _ = segment._fit_once(panel, config, perm[truth], min_size, memo)
    assert calls == []  # every state came from the memo
    assert [m.label for m in first] == [0, 1, 2]
    assert [m.label for m in second] == [0, 1, 2]
    for k in range(3):
        assert second[perm[k]].mu is first[k].mu
        assert second[perm[k]].member_count == first[k].member_count

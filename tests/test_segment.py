import itertools
import math
import tracemalloc
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import panels
from marketstates import segment
from marketstates.errors import ConfigError, EstimationError, FitError
from marketstates.ifn import build_tmfg, logo_precision
from marketstates.ingest import standardize_returns
from marketstates.segment import (
    ClusteringConfig,
    ClusterModel,
    ScoreMatrix,
    estimate_cluster,
    fit,
    score_states,
    solve_path,
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
    assert config.max_iterations == 50
    assert config.resolved_min_cluster_size(10) == 11
    assert config.resolved_min_cluster_size(3) == 5  # floor


# the one rule of segment._gamma_float, read by validate and solve_path
BAD_GAMMAS = {
    "negative": -1.0,
    "nan": float("nan"),
    "inf": float("inf"),
    "bool": True,  # a bool passes numbers.Real but is no penalty
    "numpy-bool": np.True_,
    "str-int": "1",
    "str-float": "0.5",
    "none": None,
    "int-past-float": 10**400,  # float() overflows
    "fraction-past-float": Fraction(10**400, 3),
    "int-past-str": 10**5000,  # too many digits for str
}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_clusters": 1},
        {"n_clusters": 2.5},
        {"max_iterations": 2.5},
        {"similarity_mode": "cosine"},
        {"max_iterations": 0},
        {"min_cluster_size": 4},
        {"restarts": -1},
        *({"gamma": gamma} for gamma in BAD_GAMMAS.values()),
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        ClusteringConfig(**kwargs).validate()


INTEGER_FIELDS = ["n_clusters", "max_iterations", "seed", "min_cluster_size", "restarts"]


@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_config_rejects_bool_for_integer_fields(name):
    # bool is an int subclass; True must not pass as a count or a seed
    for flag in (True, np.bool_(True)):
        with pytest.raises(ConfigError, match=name):
            ClusteringConfig(**{name: flag}).validate()
    # a str shows its quotes, so "9" does not read as the valid 9
    with pytest.raises(ConfigError, match=f"{name} must be .*, got '9'$"):
        ClusteringConfig(**{name: "9"}).validate()


def test_config_accepts_numpy_integers(three_regime):
    # such as the k of `for k in np.arange(2, 6)`
    panel, _ = three_regime
    settings = {"n_clusters": 3, "max_iterations": 20, "seed": 1, "min_cluster_size": 12,
                "restarts": 1}
    numpy_settings = {name: np.int64(value) for name, value in settings.items()}
    _assert_same_fit(
        fit(panel, ClusteringConfig(**numpy_settings)), fit(panel, ClusteringConfig(**settings))
    )
    # a gamma of any real type fits as its float
    for gamma in (np.float16(2.7), Fraction(1, 3)):
        _assert_same_fit(
            fit(panel, ClusteringConfig(**settings, gamma=gamma)),
            fit(panel, ClusteringConfig(**settings, gamma=float(gamma))),
        )


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
    model_b = panels.random_model(rng, n, label=1)
    panel = panels.returns_panel(np.tile(mu, (3, 1)))
    scores = score_states(panel, [model_a, model_b], "likelihood")
    # quadratic term vanishes at the mean and log|I| = 0
    assert np.allclose(scores.values[:, 0], 0.0, atol=1e-12)
    quad = scores.values[:, 0] - 0.5 * model_a.precision.log_det
    assert np.allclose(quad, 0.0, atol=1e-12)


def test_score_matches_dense_formula(rng):
    t_len, n = 40, 7
    panel = panels.returns_panel(rng.normal(size=(t_len, n)))
    models = [panels.random_model(rng, n, label=k) for k in range(3)]
    scores = score_states(panel, models, "likelihood")
    for k, model in enumerate(models):
        dense = model.precision.matrix.toarray()
        for t in range(t_len):
            d = panel.values[t] - model.mu
            expected = -0.5 * d @ dense @ d + 0.5 * model.precision.log_det
            assert scores.values[t, k] == pytest.approx(expected, abs=1e-12)
    # the quadratic term alone, with the log-determinant term taken off
    for k, model in enumerate(models):
        d = panel.values - model.mu
        quad = np.einsum("ti,ti->t", d, d @ model.precision.matrix.toarray())
        shift = 0.5 * model.precision.log_det
        assert np.allclose(scores.values[:, k] - shift, -0.5 * quad, atol=1e-12)


def test_dense_scores_match_csr_product(rng):
    # scoring multiplies by a dense J; the CSR product sums each row in
    # another order, so the two agree to rounding only
    for t_len, n in ((50, 4), (40, 12), (30, 60)):
        panel = panels.returns_panel(rng.normal(size=(t_len, n)))
        models = [panels.random_model(rng, n, label=k) for k in range(3)]
        scores = score_states(panel, models, "likelihood")
        for k, model in enumerate(models):
            d = panel.values - model.mu
            quad = np.einsum("ti,ti->t", d, (model.precision.matrix @ d.T).T)
            shift = 0.5 * model.precision.log_det
            assert np.allclose(scores.values[:, k] - shift, -0.5 * quad, rtol=1e-12, atol=0.0)


def test_identical_models_identical_columns(rng):
    n = 5
    model = panels.random_model(rng, n)
    panel = panels.returns_panel(rng.normal(size=(20, n)))
    scores = score_states(panel, [model, model], "likelihood")
    assert np.array_equal(scores.values[:, 0], scores.values[:, 1])


def test_one_model_scores_as_its_column_of_many(rng):
    # a refit scores only the states it re-estimated, so a column must not
    # depend on the other models in the call
    panel = panels.returns_panel(rng.normal(size=(60, 9)))
    models = [panels.random_model(rng, 9, label=k) for k in range(4)]
    together = score_states(panel, models).values
    for k, model in enumerate(models):
        alone = score_states(panel, [model]).values
        assert alone.shape == (60, 1)
        assert np.array_equal(alone[:, 0], together[:, k])
    with pytest.raises(ValueError, match="at least 1 state model"):
        score_states(panel, [])
    with pytest.raises(ConfigError, match="'likelihood'"):
        score_states(panel, models, "mahalanobis")


def test_score_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match=r"t=1.*state=0|1, state"):
        ScoreMatrix(np.array([[0.0, 1.0], [np.inf, 2.0]]))


@pytest.mark.parametrize(
    "values",
    [np.zeros(3), np.zeros((0, 2)), np.zeros((2, 0))],
    ids=["1-d", "no-days", "no-states"],
)
def test_score_matrix_rejects_a_1d_or_empty_matrix(values):
    with pytest.raises(ValueError, match="2-d and non-empty"):
        ScoreMatrix(values)


def test_score_states_rejects_a_model_of_another_width(rng):
    panel = panels.returns_panel(rng.normal(size=(20, 6)))
    narrow = panels.random_model(rng, 5, label=1)
    short_mean = replace(panels.random_model(rng, 6, label=1), mu=np.zeros(5))
    for other in (narrow, short_mean):
        with pytest.raises(ValueError, match="state 1 dimension does not match panel width 6"):
            score_states(panel, [panels.random_model(rng, 6), other])


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


# the float16 and the Fraction are read as their floats, objective
# included; at the last two, two switch penalties add past the float range
GAMMAS = (0.0, 0.4, 4.0, 50.0, 1e6, np.float16(2.7), Fraction(1, 3), 1e308, np.finfo(float).max)


def _assert_same_path_as_reference(values, gamma):
    path = solve_path(values, gamma)
    labels, objective = reference_path(values, float(gamma))
    assert np.array_equal(path.labels, labels)
    assert path.labels.dtype == labels.dtype
    assert path.switches == np.count_nonzero(np.diff(labels))
    assert path.objective == objective


def test_labels_match_reference_on_ties(rng):
    # integer scores in {0, 1, 2} tie often, so the labels pin the
    # tie-break rule and not only the optimal objective
    for k_len in range(1, 7):
        for gamma in (0.0, 1.0, 2.0, 1e6):
            for t_len in (1, 2, 3, 300, *rng.integers(4, 300, size=4)):
                values = rng.integers(0, 3, size=(int(t_len), k_len)).astype(float)
                _assert_same_path_as_reference(values, gamma)


def _rounded_cbrt(t_len):
    return round(t_len ** (1 / 3))


def _floor_cbrt(t_len):
    return max(v for v in range(1, 20) if v**3 <= t_len)


def _layout(t_len, width=_rounded_cbrt):
    """solve_path's (block width, transfers per group, groups) at T days:
    blocks of w = the cube root of T rounded to the nearest integer, the
    T / w - 1 block transfers (rounded up) in groups of their square root
    rounded down. width=_floor_cbrt gives an earlier layout's."""
    w = width(t_len)
    transfers = -(-t_len // w) - 1
    per_group = max(1, math.isqrt(transfers))
    return w, per_group, -(-transfers // per_group)


def _block_edge_lengths():
    """T on both sides of each block and group edge: T - 1 or T is
    w^2 - 1, w^2, w^2 + 1 or w(w + 1) for w in 2..40 (the square-root
    blocks of an earlier layout), w^3 - 1, w^3, w^3 + 1 or w^2(w + 1) for
    w in 2..12, within 2 of (m + 1/2)^3 for m in 1..14 (where the rounded
    width steps), or, below 2200 days, a length at which the block width,
    the group size or the group count changes; T - 1, T and T + 1 where
    the last block and the last group are both full. The last two rules
    hold for the rounded width and for the cube root rounded down of an
    earlier layout."""
    lengths = set()
    for w in range(2, 41):
        for days in (w * w - 1, w * w, w * w + 1, w * (w + 1)):
            lengths |= {days, days + 1}
    for w in range(2, 13):
        for days in (w**3 - 1, w**3, w**3 + 1, w * w * (w + 1)):
            lengths |= {days, days + 1}
    for m in range(1, 15):
        step = math.ceil((m + 0.5) ** 3)
        lengths |= set(range(step - 2, step + 2))
    for days, width in itertools.product(range(2, 2200), (_rounded_cbrt, _floor_cbrt)):
        w, per_group, groups = _layout(days, width)
        if _layout(days - 1, width) != (w, per_group, groups):
            lengths |= {days - 1, days}
        if days % w == 0 and (days // w - 1) % per_group == 0:
            lengths |= {days - 1, days, days + 1}
    return sorted(lengths)


def test_blocked_path_matches_reference_at_block_edges(rng):
    # real-valued scores, which the blocks sum in another grouping than
    # the per-day loop; each length takes the next (K, gamma) pair
    cases = itertools.cycle(itertools.product(range(1, 7), GAMMAS))
    for t_len, (k_len, gamma) in zip(_block_edge_lengths(), cases):
        _assert_same_path_as_reference(3.0 * rng.normal(size=(t_len, k_len)), gamma)


@pytest.mark.parametrize("t_len", [1, 2, 3, 2000])
def test_blocked_path_matches_reference_for_every_k_and_gamma(rng, t_len):
    for k_len, gamma in itertools.product(range(1, 7), GAMMAS):
        _assert_same_path_as_reference(3.0 * rng.normal(size=(t_len, k_len)), gamma)


# gamma = 0 switches almost every day: the backtrack's worst case
@pytest.mark.parametrize("gamma, k_len", zip(GAMMAS, [4, 6, 3, 4, 2]))
def test_blocked_path_matches_reference_over_a_long_history(rng, gamma, k_len):
    _assert_same_path_as_reference(3.0 * rng.normal(size=(25000, k_len)), gamma)


@pytest.mark.parametrize("t_len, k_len", [(25000, 4), (25000, 8), (2500, 3), (2500, 16), (2500, 24)])
def test_solve_path_memory_is_bounded(rng, t_len, k_len):
    # a padded copy of the scores, the run starts and the flags: no
    # T x K x K array and no Python object per day, at any gamma
    scores = ScoreMatrix(3.0 * rng.normal(size=(t_len, k_len)))
    for gamma in (0.0, 50.0):
        tracemalloc.start()
        try:
            solve_path(scores, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * scores.values.nbytes, (gamma, peak)


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


@pytest.mark.parametrize("gamma", BAD_GAMMAS.values(), ids=list(BAD_GAMMAS))
def test_rejects_bad_gamma(gamma):
    # the rule of ClusteringConfig.validate, not whatever float() takes
    with pytest.raises(ConfigError, match="gamma must be"):
        solve_path(np.zeros((4, 2)), gamma)


# --- estimation


def test_estimate_recovers_moments(rng):
    n, m = 5, 10_000
    x = rng.multivariate_normal(np.zeros(n), np.eye(n), size=m)
    config = ClusteringConfig(n_clusters=2, seed=0)
    model = estimate_cluster(panels.returns_panel(x), np.arange(m), config, label=1)
    assert model.label == 1
    assert model.member_count == m
    assert np.allclose(model.mu, 0.0, atol=0.05)
    assert np.allclose(model.precision.matrix.toarray(), np.eye(n), atol=0.1)
    assert abs(model.precision.log_det) < 0.5


def test_estimate_rejects_undersized(rng):
    panel = panels.returns_panel(rng.normal(size=(30, 6)))
    config = ClusteringConfig(n_clusters=2)
    with pytest.raises(EstimationError, match="at least 7"):
        estimate_cluster(panel, np.arange(5), config)


@pytest.mark.parametrize(
    "members",
    [
        [-1, *range(1, 200)],  # numpy would read day -1 as day 599
        list(range(100)) * 2,  # each day would count twice
        [*range(199), 600],
        np.arange(200) + 0.7,  # int() would read days 0-199
    ],
    ids=["negative", "repeated", "past-end", "fractional"],
)
def test_estimate_rejects_bad_member_indices(three_regime, members):
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3)
    message = r"state 2: member indices must be distinct days in \[0, 600\)"
    with pytest.raises(ValueError, match=message):
        estimate_cluster(panel, members, config, label=2)


def test_estimate_rejects_constant_column(rng):
    values = rng.normal(size=(40, 6))
    values[:, 2] = 1.25
    panel = panels.returns_panel(values)
    with pytest.raises(EstimationError, match="zero variance"):
        estimate_cluster(panel, np.arange(40), ClusteringConfig(n_clusters=2))


def test_estimate_rejects_a_mistyped_similarity_mode(rng):
    # estimate_cluster is public, so it checks the config that fit checks
    config = ClusteringConfig(n_clusters=2, similarity_mode="Squared")
    with pytest.raises(ConfigError, match="similarity_mode"):
        estimate_cluster(panels.returns_panel(rng.normal(size=(40, 6))), np.arange(40), config)


@pytest.mark.parametrize("mode", segment.SIMILARITY_MODES)
def test_similarity_from_the_covariance_is_corrcoef_bit_for_bit(rng, mode):
    # the estimate's own covariance gives the correlation np.corrcoef would
    transform = {"signed": lambda c: c, "absolute": np.abs, "squared": lambda c: c * c}
    for t_len, n in ((700, 250), (830, 100), (6000, 12), (40, 6)):
        rows = rng.normal(size=(t_len, n)) @ rng.normal(size=(n, n)) + rng.normal(size=n)
        cov = np.cov(rows, rowvar=False, ddof=1)
        want = transform[mode](np.corrcoef(rows, rowvar=False))
        assert np.array_equal(segment._similarity_matrix(cov, mode), want), (t_len, n)


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
    # the trajectory never falls, so the last iterate is the best one
    panel, _ = three_regime
    _, _, report = fit(panel, ClusteringConfig(n_clusters=3, gamma=100.0, seed=0))
    assert report.objective == report.objective_trajectory[-1]
    assert report.objective == pytest.approx(max(report.objective_trajectory))
    assert report.iterations == len(report.objective_trajectory)
    assert report.best_iteration == report.iterations - 1


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
    config = ClusteringConfig(n_clusters=2, gamma=100.0, seed=0)
    _, path, _ = fit(panels.returns_panel(values), config)
    assert path.switches <= 2


def test_fit_standardize_flag(three_regime):
    # fit takes the panel as given; z-scoring is the caller's choice
    panel, truth = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0)
    _, path, _ = fit(standardize_returns(panel), config)
    assert panels.matched_accuracy(path.labels, truth) >= 0.9


def test_fit_restarts_only_improve(three_regime):
    panel, _ = three_regime
    base = ClusteringConfig(n_clusters=2, gamma=100.0, seed=0)
    _, p0, _ = fit(panel, base)
    _, p5, _ = fit(panel, ClusteringConfig(n_clusters=2, gamma=100.0, seed=0, restarts=5))
    assert p5.objective >= p0.objective


@pytest.mark.parametrize("t_len, k, min_size", [(600, 3, 11), (601, 4, 95), (1000, 6, 7)])
def test_starts_are_equal_blocks_then_seeded_contiguous_partitions(
    t_len, k, min_size, monkeypatch
):
    # K blocks of equal length give or take a day, then restarts contiguous
    # partitions of at least min_size days each, drawn from seed
    config = ClusteringConfig(n_clusters=k, seed=3, restarts=4)
    first, *drawn = segment._starts(t_len, config, min_size)
    assert np.array_equal(first, np.arange(t_len) * k // t_len)
    assert len(drawn) == config.restarts
    for labels in drawn:
        sizes = np.bincount(labels, minlength=k)
        assert np.array_equal(labels, np.repeat(np.arange(k), sizes))
        assert sizes.sum() == t_len and sizes.min() >= min_size
    again = list(segment._starts(t_len, config, min_size))[1:]
    other = list(segment._starts(t_len, replace(config, seed=4), min_size))[1:]
    assert all(np.array_equal(a, b) for a, b in zip(drawn, again))
    assert not any(np.array_equal(a, b) for a, b in zip(drawn, other))
    # no restarts: the equal blocks alone, and no generator is built
    def no_generator(*args, **kwargs):
        raise AssertionError("a start without restarts built a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    only = list(segment._starts(t_len, replace(config, restarts=0), min_size))
    assert len(only) == 1 and np.array_equal(only[0], first)


def test_fit_rejects_infeasible(rng):
    # 4 states x 6 minimum points > 20 available rows
    panel = panels.returns_panel(rng.normal(size=(20, 5)))
    with pytest.raises(ConfigError, match="infeasible"):
        fit(panel, ClusteringConfig(n_clusters=4, gamma=1.0))


def test_fit_rejects_few_assets(rng):
    panel = panels.returns_panel(rng.normal(size=(100, 3)))
    with pytest.raises(ConfigError, match="at least 4"):
        fit(panel, ClusteringConfig(n_clusters=2))


def test_fit_degenerate_panel_fails_cleanly():
    values = np.zeros((60, 5))
    values[:, 0] = np.linspace(-1, 1, 60)  # only one asset moves
    with pytest.raises((FitError, EstimationError)):
        fit(panels.returns_panel(values), ClusteringConfig(n_clusters=2, gamma=1.0, seed=0))


def test_monotone_improvement_between_iterations(three_regime):
    # the assignment is exact for fixed models, and a refit keeps a state's
    # old model when the new one scores the state's days worse, so no step
    # falls beyond rounding
    panel, _ = three_regime
    steps_seen = 0
    for k, gamma in itertools.product((2, 4), (0.0, 100.0)):
        config = ClusteringConfig(n_clusters=k, gamma=gamma, seed=0)
        _, _, report = fit(panel, config)
        assert report.converged, (k, gamma)
        trajectory = report.objective_trajectory
        for before, after in zip(trajectory, trajectory[1:]):
            assert after >= before - 1e-9 * abs(before), (k, gamma, trajectory)
        steps_seen += len(trajectory) - 1
    assert steps_seen >= 4


# --- states kept at a refit


def _record_rounds(monkeypatch, alter=None):
    """Record each assignment round of a fit, one dict per solve_path call.

    A round holds the estimate_cluster calls made since the assignment
    before it as [label, members, model] (model None where the call
    raised), the labels of the models each score_states call got, and the
    labels solve_path returned. Round 0 is the start. alter(round, model,
    returns, members) sees every estimate and returns the model fit gets,
    or raises.
    """
    rounds = []
    estimate, score, solve = segment.estimate_cluster, segment.score_states, segment.solve_path

    def current():
        if not rounds or "labels" in rounds[-1]:
            rounds.append({"estimates": [], "scored": []})
        return rounds[-1]

    def estimating(returns, member_indices, config, label=0):
        record = [label, np.asarray(member_indices), None]
        current()["estimates"].append(record)
        model = estimate(returns, member_indices, config, label=label)
        if alter is not None:
            model = alter(len(rounds) - 1, model, returns, member_indices)
        record[2] = model
        return model

    def scoring(returns, models, mode="likelihood"):
        current()["scored"].append([model.label for model in models])
        return score(returns, models, mode)

    def solving(scores, gamma):
        path = solve(scores, gamma)
        current()["labels"] = path.labels.copy()
        return path

    monkeypatch.setattr(segment, "estimate_cluster", estimating)
    monkeypatch.setattr(segment, "score_states", scoring)
    monkeypatch.setattr(segment, "solve_path", solving)
    return rounds


def _changed_states(rounds, labels0, k_len):
    """Per refit round, the states whose days differ from the iterate before."""
    iterates = [labels0] + [r["labels"] for r in rounds]
    return [
        [k for k in range(k_len) if not np.array_equal(after == k, before == k)]
        for before, after in zip(iterates, iterates[1:-1])
    ]


def _estimated(round_):
    return [label for label, _, _ in round_["estimates"]]


def _failed(round_):
    """(label, day count) of each estimate in the round that raised."""
    estimates = round_["estimates"]
    return [(label, members.size) for label, members, model in estimates if model is None]


def _start_models(rounds):
    return [model for _, _, model in rounds[0]["estimates"]]


def _shift(model, returns, members, sigmas):
    sigma = returns.values[np.asarray(members)].std(axis=0)
    return replace(model, mu=model.mu + sigmas * sigma)


def test_undersized_state_is_repaired_at_the_refit(three_regime, monkeypatch):
    # four equal blocks on three regimes: the first assignment empties
    # state 1, which keeps its model from the first iteration and is not
    # rescored
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=4, gamma=100.0, seed=0, max_iterations=2)
    labels0 = np.repeat(np.arange(4), 600 // 4)
    rounds = _record_rounds(monkeypatch)
    models, path, report = segment._fit_once(panel, config, labels0, None)
    _, refit = rounds
    assert _failed(refit) == [(1, 0)]
    assert report.repairs == 1
    assert refit["scored"] == [[k] for k in _estimated(refit) if k != 1]
    assert models[1].mu is _start_models(rounds)[1].mu
    assert report.occupancy[1] == np.count_nonzero(path.labels == 1) == 0


def test_failed_estimate_is_repaired_at_the_refit(three_regime, monkeypatch):
    # the first state estimated after the starting round raises once, and
    # keeps its model from the iteration before
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=0.0, seed=0, max_iterations=2)
    failed = []

    def failing_once(round_, model, returns, members):
        if round_ == 1 and not failed:
            failed.append(model.label)
            raise EstimationError(f"state {model.label}: forced failure")
        return model

    rounds = _record_rounds(monkeypatch, failing_once)
    models, _, report = fit(panel, config)
    assert report.iterations == 2
    (k,) = failed
    first = _start_models(rounds)
    assert models[k].mu is first[k].mu
    assert [k] not in rounds[1]["scored"]
    # one refit, so repairs counts the refit states that end on their
    # first model: the failed one and those whose new model scored worse
    kept = [j for j in _estimated(rounds[1]) if models[j].mu is first[j].mu]
    assert k in kept
    assert report.repairs == len(kept)


def test_undersized_start_cannot_be_repaired(three_regime):
    # the first iteration has no earlier model to keep
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0)
    labels0 = np.zeros(len(panel.dates), dtype=int)
    labels0[:3] = 2
    with pytest.raises(
        FitError, match=r"state estimation failed: state 1: 0 member\(s\), need at least 11"
    ) as info:
        segment._fit_once(panel, config, labels0, None)
    assert isinstance(info.value.__cause__, EstimationError)


def test_estimate_failing_at_every_refit_keeps_every_state(three_regime, monkeypatch):
    # the refit keeps every model, so its assignment repeats the first one
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
    _, _, report = fit(panel, config)
    assert report.converged
    assert report.iterations == 2
    assert report.repairs == config.n_clusters


def test_states_emptied_together_keep_their_own_models(three_regime, monkeypatch):
    # five states on three regimes: the first assignment empties states 1
    # and 3, whose (empty) day sets are then the same
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=5, gamma=100.0, seed=0)
    rounds = _record_rounds(monkeypatch)
    models, path, report = fit(panel, config)
    first = _start_models(rounds)
    assert _failed(rounds[1]) == [(1, 0), (3, 0)]
    assert not np.any((path.labels == 1) | (path.labels == 3))
    assert not np.array_equal(first[1].mu, first[3].mu)
    for k in (1, 3):
        assert models[k].mu is first[k].mu
    assert report.repairs >= 2


def test_refit_scoring_its_days_worse_is_rejected(three_regime, monkeypatch):
    # the first model estimated at the refit has its mean shifted 5 sigma
    # off its days; its state keeps the model and score column it had
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=2, gamma=100.0, seed=0, max_iterations=2)
    worsened = []

    def worse_once(round_, model, returns, members):
        if round_ == 1 and not worsened:
            worsened.append(model.label)
            return _shift(model, returns, members, 5.0)
        return model

    rounds = _record_rounds(monkeypatch, worse_once)
    models, path, report = fit(panel, config)
    (k,) = worsened
    assert len(rounds) == report.iterations == 2
    rejected = rounds[1]["estimates"][0][2]
    assert k in rounds[1]["scored"][0]
    assert models[k] is not rejected
    assert models[k].mu is _start_models(rounds)[k].mu
    assert report.repairs == 1
    first, second = report.objective_trajectory
    assert second >= first
    # the restored column is the one a fresh scoring of the kept model gives
    rescored = solve_path(score_states(panel, models), config.gamma)
    assert report.objective == rescored.objective == path.objective
    assert np.array_equal(rescored.labels, path.labels)


def test_rejected_days_that_recur_reuse_the_kept_model(three_regime, monkeypatch):
    # every refit estimate of state 0 is shifted 5 sigma and rejected; when
    # its days come back unchanged at the next iterate the state keeps its
    # model without a new estimate or a second count in repairs
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=4, gamma=0.0, seed=0)
    labels0 = np.repeat(np.arange(4), 600 // 4)

    def worse_for_state_0(round_, model, returns, members):
        if round_ > 0 and model.label == 0:
            return _shift(model, returns, members, 5.0)
        return model

    rounds = _record_rounds(monkeypatch, worse_for_state_0)
    models, _, report = segment._fit_once(panel, config, labels0, None)
    assert report.converged
    refits = rounds[1:]
    worsened = sum(_estimated(r).count(0) for r in refits)
    assert report.repairs == worsened > 0
    assert models[0].mu is _start_models(rounds)[0].mu
    changed = _changed_states(rounds, labels0, 4)
    recurring = 0
    for before, after, moved in zip(refits, refits[1:], changed[1:]):
        if 0 in _estimated(before) and 0 not in moved:
            recurring += 1
            assert 0 not in _estimated(after)
    assert recurring > 0


def test_unchanged_state_is_neither_reestimated_nor_rescored(three_regime, monkeypatch):
    # state 0 starts 40 days into state 1, so the refit moves those two
    # and leaves state 2 on its starting model and score column
    panel, truth = three_regime
    labels0 = truth.copy()
    labels0[200:240] = 0
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0, max_iterations=2)
    rounds = _record_rounds(monkeypatch)
    models, path, report = segment._fit_once(panel, config, labels0, None)
    _, refit = rounds
    assert _changed_states(rounds, labels0, 3) == [[0, 1]]
    assert _estimated(refit) == [0, 1]
    assert refit["scored"] == [[0], [1]]
    assert models[2].mu is _start_models(rounds)[2].mu
    # the kept column is the one a fresh scoring of the state's model gives
    rescored = solve_path(score_states(panel, models), config.gamma)
    assert report.objective == rescored.objective == path.objective


def test_state_that_stays_empty_counts_once_in_repairs(monkeypatch):
    # state 3's starting mean is moved far off every day, so the first
    # assignment empties it; it stays empty while the other states still
    # move, and its one change of days is its one repair
    panel, _ = panels.three_regime_panel(seed=1)
    config = ClusteringConfig(n_clusters=4, gamma=5.0, seed=0)
    labels0 = np.repeat(np.arange(4), 600 // 4)

    def far_start_for_state_3(round_, model, returns, members):
        if round_ == 0 and model.label == 3:
            return _shift(model, returns, members, 50.0)
        return model

    rounds = _record_rounds(monkeypatch, far_start_for_state_3)
    _, path, report = segment._fit_once(panel, config, labels0, None)
    assert report.converged and report.iterations >= 3
    assert all(not np.any(r["labels"] == 3) for r in rounds)
    assert [_failed(r) for r in rounds[1:]] == [[(3, 0)]] + [[]] * (len(rounds) - 2)
    assert report.repairs == 1


def test_kept_states_end_a_cycle():
    # two states stay empty; with their models kept, the refit repeats
    # the assignment and the loop stops at its fixed point
    panel, _ = panels.three_regime_panel(seed=1)
    config = ClusteringConfig(n_clusters=5, gamma=100.0, seed=0, min_cluster_size=95)
    _, _, report = fit(panel, config)
    assert report.converged
    assert report.iterations < 5
    assert report.repairs > 0


# --- state-estimate memo


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
    # left one out would hand a fit another setting's states or scores
    panel, _ = three_regime
    memo = {}
    for similarity in segment.SIMILARITY_MODES:
        warm = ClusteringConfig(n_clusters=3, gamma=10.0, seed=0, similarity_mode=similarity)
        fit(panel, warm, memo=memo)
    for similarity in segment.SIMILARITY_MODES:
        config = ClusteringConfig(
            n_clusters=3, gamma=100.0, seed=0, restarts=2, similarity_mode=similarity
        )
        _assert_same_fit(fit(panel, config), fit(panel, config, memo=memo))


def test_memo_keeps_only_the_starting_states(three_regime, spy):
    # restarts share the memo, one entry per start; refit states stay out
    # of it, so what a memo holds does not grow with the iterations
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=3, gamma=100.0, seed=0, restarts=3)
    calls = spy(segment, "estimate_cluster", lambda returns, days, *rest, **kw: len(days))
    starts = spy(segment, "_fit_once", lambda returns, config, labels, memo: labels)
    memo = {}
    fit(panel, config, memo=memo)
    assert len(memo) == len(starts) == 1 + 3
    assert set(memo) == {(labels.tobytes(), "signed") for labels in starts}
    assert len(calls) > 3 * len(memo)  # the refits estimated states too
    # a second fit of the same panel estimates only its refit states
    first = list(calls)
    calls.clear()
    fit(panel, config, memo=memo)
    assert len(calls) == len(first) - 3 * len(memo)


def test_memo_hit_is_not_changed_by_the_fit_that_made_it(three_regime):
    # refits write score columns in place; a fit that takes its start from
    # the memo must not see the columns an earlier fit refit
    panel, _ = three_regime
    labels0 = np.repeat(np.arange(4), 600 // 4)
    memo = {}
    warm_config = ClusteringConfig(n_clusters=4, gamma=0.0, seed=0)
    _, _, warm = segment._fit_once(panel, warm_config, labels0, memo)
    assert warm.iterations == 7
    config = ClusteringConfig(n_clusters=4, gamma=100.0, seed=0, max_iterations=1)
    _assert_same_fit(
        segment._fit_once(panel, config, labels0, None),
        segment._fit_once(panel, config, labels0, memo),
    )


def test_refit_reuses_the_states_of_the_iterate_before(three_regime, monkeypatch):
    # four states, no switching penalty: states 1 and 2 trade days for
    # several iterates while states 0 and 3 keep theirs
    panel, _ = three_regime
    config = ClusteringConfig(n_clusters=4, gamma=0.0, seed=0)
    rounds = _record_rounds(monkeypatch)
    _, _, report = fit(panel, config)
    assert report.iterations >= 3
    changed = _changed_states(rounds, np.repeat(np.arange(4), 150), 4)
    reused = 0
    for refit, moved in zip(rounds[1:], changed):
        assert _estimated(refit) == moved
        succeeded = [label for label, _, model in refit["estimates"] if model is not None]
        assert refit["scored"] == [[label] for label in succeeded]
        reused += 4 - len(moved)
    assert reused > 0

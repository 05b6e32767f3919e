"""Market state segmentation.

Each state k is a Gaussian with mean mu_k and a sparse LoGo precision J_k
built on that state's own TMFG. A time point t scores
-0.5 (x_t - mu_k)' J_k (x_t - mu_k) + 0.5 log |J_k| under state k, and a
switching penalty gamma is charged whenever consecutive assignments
differ. Because the penalty only couples neighboring time points, the
optimal assignment given fixed states is found exactly by dynamic
programming; fitting alternates that assignment step with per-state
re-estimation until the labels stop changing.

Scoring multiplies by each J as a dense array built from the precision's
upper-triangle entries, so fitting imports numpy only.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EstimationError, FitError
from .ifn import SparsePrecision, TmfgGraph, build_tmfg, logo_precision
from .ingest import ReturnsPanel

SCORING_MODES = ("likelihood", "mahalanobis")
SIMILARITY_MODES = ("signed", "absolute", "squared")

_DECREASE_TOL = 1e-9
_MAX_REPAIR_ATTEMPTS = 2


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no iteration budget or cluster count
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ClusteringConfig:
    """Fit settings.

    min_cluster_size defaults to n_assets + 1 (at least 5) when left as
    None; gamma is in log-likelihood units. restarts adds that many
    random contiguous-block initializations on top of the deterministic
    equal-block one, keeping the best final objective.
    """

    n_clusters: int = 4
    gamma: float = 100.0
    scoring_mode: str = "likelihood"
    similarity_mode: str = "signed"
    max_iterations: int = 50
    seed: int = 0
    min_cluster_size: int | None = None
    restarts: int = 0

    def validate(self) -> None:
        if not _is_int(self.n_clusters) or self.n_clusters < 2:
            raise ConfigError(f"n_clusters must be an integer >= 2, got {self.n_clusters}")
        if isinstance(self.gamma, bool) or not isinstance(self.gamma, numbers.Real):
            raise ConfigError(f"gamma must be a real number other than a bool, got {self.gamma!r}")
        if not 0.0 <= self.gamma < np.inf:  # NaN fails both comparisons
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.scoring_mode not in SCORING_MODES:
            raise ConfigError(f"scoring_mode must be one of {SCORING_MODES}, got {self.scoring_mode!r}")
        if self.similarity_mode not in SIMILARITY_MODES:
            raise ConfigError(
                f"similarity_mode must be one of {SIMILARITY_MODES}, got {self.similarity_mode!r}"
            )
        if not _is_int(self.max_iterations) or self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be a positive integer, got {self.max_iterations}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.min_cluster_size is not None and (
            not _is_int(self.min_cluster_size) or self.min_cluster_size < 5
        ):
            raise ConfigError(f"min_cluster_size must be an integer >= 5, got {self.min_cluster_size}")
        if not _is_int(self.restarts) or self.restarts < 0:
            raise ConfigError(f"restarts must be a non-negative integer, got {self.restarts}")

    def resolved_min_cluster_size(self, n_assets: int) -> int:
        if self.min_cluster_size is not None:
            return self.min_cluster_size
        return max(n_assets + 1, 5)


@dataclass
class ClusterModel:
    """Fitted parameters of one market state."""

    label: int
    mu: np.ndarray
    precision: SparsePrecision
    graph: TmfgGraph
    member_count: int


@dataclass
class ScoreMatrix:
    """T x K matrix of per-point, per-state scores (switching penalty excluded)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError("score matrix must be 2-d and non-empty")
        if not np.all(np.isfinite(self.values)):
            t, k = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(f"score at t={t}, state={k} is not finite")


@dataclass
class StatePath:
    """A label per time point plus the penalized objective it achieves."""

    labels: np.ndarray
    objective: float
    switches: int


@dataclass
class FitReport:
    """Diagnostics from one fit; plain Python values, so asdict is its JSON form."""

    iterations: int
    objective_trajectory: list
    objective: float
    switches: int
    occupancy: list
    converged: bool
    objective_decreased: bool
    repairs: int
    best_iteration: int
    restarts_used: int


def score_states(returns: ReturnsPanel, models, mode: str = "likelihood") -> ScoreMatrix:
    """Score every (time point, state) pair, penalty excluded.

    likelihood mode: -0.5 d' J d + 0.5 log |J| with d = x_t - mu_k;
    mahalanobis mode drops the log-determinant term. Each J is scattered
    into a dense n x n array for the product d @ J, one code path for
    every n.
    """
    if mode not in SCORING_MODES:
        raise ConfigError(f"scoring mode must be one of {SCORING_MODES}, got {mode!r}")
    if len(models) < 2:
        raise ValueError(f"need at least 2 state models, got {len(models)}")
    x = returns.values
    t_len, n = x.shape
    values = np.empty((t_len, len(models)))
    for k, model in enumerate(models):
        mu = np.asarray(model.mu, dtype=float)
        if mu.shape != (n,) or model.precision.n != n:
            raise ValueError(f"state {k} dimension does not match panel width {n}")
        d = x - mu
        quad = np.einsum("ti,ti->t", d, d @ model.precision.dense())
        values[:, k] = -0.5 * quad
        if mode == "likelihood":
            values[:, k] += 0.5 * model.precision.log_det
    return ScoreMatrix(values=values)


def solve_path(scores: ScoreMatrix, gamma: float) -> StatePath:
    """Maximize sum_t score[t, k_t] - gamma * #switches over all label paths.

    Exact dynamic programming: the penalty only looks one step back, so
    each state's best predecessor is either itself (no penalty) or the
    globally best previous state (penalized; the lowest index among equal
    bests, as np.argmax picks). Ties between staying and switching prefer
    staying. The recursion runs over plain Python floats, one addition per
    (day, state) in day order, and keeps a stay byte per (day, state) and
    the best state per day to backtrack.
    """
    if not np.isfinite(gamma) or gamma < 0.0:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if not isinstance(scores, ScoreMatrix):
        scores = ScoreMatrix(np.asarray(scores, dtype=float))
    v = scores.values
    t_len, k_len = v.shape

    rows = v.tolist()
    penalty = float(gamma)  # float64 arithmetic whatever type gamma has
    stays = bytearray(t_len * k_len)
    best = [0] * t_len
    value = rows[0]
    for t in range(1, t_len):
        top = max(value)
        best[t] = value.index(top)
        switch_value = top - penalty
        row = rows[t]
        base = t * k_len
        new = []
        for k in range(k_len):
            x = value[k]
            if x >= switch_value:
                stays[base + k] = 1
                new.append(row[k] + x)
            else:
                new.append(row[k] + switch_value)
        value = new

    k = value.index(max(value))
    path = [k] * t_len
    for t in range(t_len - 1, 0, -1):
        if not stays[t * k_len + k]:
            k = best[t]
        path[t - 1] = k
    labels = np.array(path, dtype=int)

    switches = int(np.count_nonzero(np.diff(labels)))
    objective = float(v[np.arange(t_len), labels].sum() - gamma * switches)
    return StatePath(labels=labels, objective=objective, switches=switches)


def _similarity_matrix(rows: np.ndarray, mode: str) -> np.ndarray:
    std = rows.std(axis=0)
    flat = np.flatnonzero(~(std > 0.0))
    if flat.size:
        raise EstimationError(
            f"degenerate covariance: asset column {flat[0]} has zero variance in cluster"
        )
    corr = np.corrcoef(rows, rowvar=False)
    if mode == "absolute":
        return np.abs(corr)
    if mode == "squared":
        return corr * corr
    return corr


def estimate_cluster(
    returns: ReturnsPanel, member_indices, config: ClusteringConfig, label: int = 0
) -> ClusterModel:
    """Fit one state from its member time points.

    mu and the covariance are the sample mean/covariance of the member
    rows; the TMFG is rebuilt on the configured similarity of those rows
    and the precision is the LoGo estimate on it.
    """
    idx = np.asarray(sorted(member_indices), dtype=int)
    n = returns.values.shape[1]
    min_size = config.resolved_min_cluster_size(n)
    if idx.size < min_size:
        raise EstimationError(
            f"state {label}: {idx.size} member(s), need at least {min_size}"
        )
    rows = returns.values[idx]
    mu = rows.mean(axis=0)
    cov = np.cov(rows, rowvar=False, ddof=1)
    graph = build_tmfg(_similarity_matrix(rows, config.similarity_mode))
    precision = logo_precision(cov, graph)
    return ClusterModel(
        label=label, mu=mu, precision=precision, graph=graph, member_count=int(idx.size)
    )


def _starts(t_len: int, config: ClusteringConfig, min_size: int):
    """The equal-block labels, then config.restarts random contiguous ones."""
    k = config.n_clusters
    yield np.minimum(np.arange(t_len) * k // t_len, k - 1).astype(int)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.restarts):
        lengths = min_size + rng.multinomial(t_len - k * min_size, np.full(k, 1.0 / k))
        yield np.repeat(np.arange(k), lengths)


def _absorb_window(labels, realized_scores, state, length, blocked):
    """Reassign the worst-scoring contiguous window of time points to `state`.

    realized_scores[t] is the previous score of t under its own label;
    blocked marks stretches already consumed by an earlier repair.
    """
    t_len = labels.shape[0]
    cost = np.where(blocked, np.inf, realized_scores)
    window_cost = np.convolve(cost, np.ones(length), mode="valid")
    start = int(np.argmin(window_cost))
    if not np.isfinite(window_cost[start]):
        raise FitError(f"state {state}: no free window of {length} points left to absorb")
    labels = labels.copy()
    labels[start : start + length] = state
    blocked[start : start + length] = True
    return labels


def _estimate_all(panel, labels, config: ClusteringConfig, known: dict):
    """One model per state, reusing those whose member set known holds.

    known maps (member-index bytes, similarity mode) to a model and gains
    every state estimated here; EstimationError is not kept. A member set
    can come back under another label, so the label is set on the way
    out. Returns the models and their keys, in label order.
    """
    models, keys = [], []
    for k in range(config.n_clusters):
        idx = np.flatnonzero(labels == k)
        key = (idx.tobytes(), config.similarity_mode)
        model = known.get(key)
        if model is None:
            try:
                model = estimate_cluster(panel, idx, config, label=k)
            except EstimationError as exc:
                exc.cluster_label = k
                raise
            known[key] = model
        models.append(replace(model, label=k))
        keys.append(key)
    return models, keys


def _fit_once(panel: ReturnsPanel, config: ClusteringConfig, labels, min_size, memo):
    # The starting states come from and go into memo, if given. A later
    # iteration looks only among the states of the current iterate, which
    # the fit holds anyway, so refits keep no extra models alive.
    known = {} if memo is None else memo
    k_len = config.n_clusters
    t_len = panel.values.shape[0]
    prev_scores = None

    trajectory: list = []
    repairs = 0
    converged = False
    decreased = False
    best = None  # (objective, models, path, iteration)

    for _ in range(config.max_iterations):
        # Repair pass: the undersized states, or the one state whose
        # estimate raised, absorb the worst-scoring contiguous run of
        # min_size points before re-estimation. The first iteration has no
        # scores to choose a run by, and a third failed attempt aborts.
        realized = None if prev_scores is None else prev_scores[np.arange(t_len), labels]
        blocked = np.zeros(t_len, dtype=bool)
        attempts = 0
        while True:
            sizes = np.bincount(labels, minlength=k_len)
            to_repair = np.flatnonzero(sizes < min_size).tolist()
            cause = None
            if to_repair:
                problem = (
                    f"cannot repair undersized state(s) {to_repair} "
                    f"(sizes {sizes.tolist()}, need {min_size})"
                )
            else:
                try:
                    models, keys = _estimate_all(panel, labels, config, known)
                    break
                except EstimationError as exc:
                    to_repair, cause = [exc.cluster_label], exc
                    problem = f"state estimation failed: {exc}"
            if realized is None or attempts >= _MAX_REPAIR_ATTEMPTS:
                raise FitError(problem) from cause
            for k in to_repair:
                labels = _absorb_window(labels, realized, k, min_size, blocked)
                repairs += 1
            attempts += 1
        known = dict(zip(keys, models))

        scores = score_states(panel, models, config.scoring_mode)
        path = solve_path(scores, config.gamma)
        trajectory.append(path.objective)

        if best is None or path.objective > best[0]:
            best = (path.objective, models, path, len(trajectory) - 1)

        if len(trajectory) >= 2 and path.objective < trajectory[-2] - _DECREASE_TOL:
            # Graph re-selection can lower the objective; stop and keep
            # the best iterate seen so far.
            decreased = True
            break
        if np.array_equal(path.labels, labels):
            converged = True
            break
        prev_scores = scores.values
        labels = path.labels.copy()

    objective, models, path, best_iteration = best
    report = FitReport(
        iterations=len(trajectory),
        objective_trajectory=trajectory,
        objective=objective,
        switches=path.switches,
        occupancy=np.bincount(path.labels, minlength=k_len).tolist(),
        converged=converged,
        objective_decreased=decreased,
        repairs=repairs,
        best_iteration=best_iteration,
        restarts_used=config.restarts,
    )
    return models, path, report


def fit(returns: ReturnsPanel, config: ClusteringConfig, *, memo=None):
    """Fit K market states to a returns panel.

    Alternates exact penalized assignment (solve_path) with per-state
    re-estimation (estimate_cluster) until the label sequence stops
    changing, the iteration budget runs out, or the objective drops after
    a graph re-selection; the best-objective iterate is returned either
    way. Deterministic for a given (panel, config, seed). The panel is
    fitted as given: to fit z-scores, pass standardize_returns(returns).

    Each start runs the loop to its end: the equal-block labels first,
    then config.restarts random contiguous partitions (at least
    min_cluster_size points per state) drawn from config.seed. The first
    start with the best final objective is returned.

    A refit iteration reuses each state whose members did not change.
    memo, if given, is a dict from (member-index bytes, similarity mode)
    to the model of a starting state: each start reuses the states it
    holds and adds those it estimates, so fits that start from the same
    labels, such as the sweep cells that share K, estimate them once. Its
    keys hold member indices, not data, so one memo is only valid for one
    returns panel. Left as None, no start is kept.

    Returns (models, path, report).
    """
    config.validate()
    t_len, n = returns.values.shape
    if n < 4:
        raise ConfigError(f"need at least 4 assets, got {n}")
    min_size = config.resolved_min_cluster_size(n)
    if t_len < config.n_clusters * min_size:
        raise ConfigError(
            f"infeasible: {t_len} time points cannot hold {config.n_clusters} "
            f"states of at least {min_size} points each"
        )

    starts = _starts(t_len, config, min_size)
    # max keeps the first of equal bests, and only one result at a time
    fits = (_fit_once(returns, config, labels0, min_size, memo) for labels0 in starts)
    return max(fits, key=lambda result: result[1].objective)

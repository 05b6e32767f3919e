"""Market state segmentation.

Each state k is a Gaussian with mean mu_k and a sparse LoGo precision J_k
built on that state's own TMFG. A time point t scores
-0.5 (x_t - mu_k)' J_k (x_t - mu_k) + 0.5 log |J_k| under state k, and a
switching penalty gamma is charged whenever consecutive assignments
differ. Because the penalty only couples neighboring time points, the
optimal assignment given fixed states is found exactly by dynamic
programming, run in numpy over blocks of about T^(1/3) days whose
chain is itself grouped (see solve_path); fitting alternates that
assignment step with per-state re-estimation until the labels stop
changing; a state keeps its old model if the new one scores the
state's days worse.

Scoring multiplies by each J as a dense array built from the precision's
upper-triangle entries, so fitting imports numpy only.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError, FitError
from .ifn import MIN_VERTICES, SparsePrecision, TmfgGraph, build_tmfg, logo_precision
from .ingest import ReturnsPanel

_SIMILARITY = {"signed": lambda corr: corr, "absolute": np.abs, "squared": np.square}
SIMILARITY_MODES = tuple(_SIMILARITY)

# the fewest days whose sample covariance gives a 4-clique block full rank
MIN_CLUSTER_SIZE = MIN_VERTICES + 1


def _is_int(value) -> bool:
    # numpy integers count; bool is Integral, but True is no iteration
    # budget or cluster count (np.bool_ is not Integral)
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _gamma_float(gamma) -> float:
    """gamma as a float64; ConfigError unless it is a real number other than
    a bool (np.bool_ is not Real) whose float is finite and >= 0."""
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real):
        raise ConfigError(f"gamma must be a real number other than a bool, got {gamma!r}")
    try:
        value = float(gamma)
    except OverflowError:  # str() may refuse so many digits
        raise ConfigError("gamma must be finite and >= 0, got a number past the float range") from None
    if not 0.0 <= value < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"gamma must be finite and >= 0, got {gamma}")
    return value


@dataclass(frozen=True)
class ClusteringConfig:
    """Fit settings.

    min_cluster_size is the fewest days a state's model is estimated from;
    fit says when a state keeps its previous model at a refit, as one
    assigned fewer does, and report.repairs counts that once per change
    of the state's days. It defaults to n_assets + 1 (at least 5) when left
    as None. gamma is in log-likelihood units. restarts adds that many
    random contiguous-block initializations on top of the deterministic
    equal-block one, keeping the best final objective.
    """

    n_clusters: int = 4
    gamma: float = 100.0
    similarity_mode: str = "signed"
    max_iterations: int = 50
    seed: int = 0
    min_cluster_size: int | None = None
    restarts: int = 0

    def validate(self) -> None:
        if not _is_int(self.n_clusters) or self.n_clusters < 2:
            raise ConfigError(f"n_clusters must be an integer >= 2, got {self.n_clusters!r}")
        _gamma_float(self.gamma)
        if self.similarity_mode not in SIMILARITY_MODES:
            raise ConfigError(
                f"similarity_mode must be one of {SIMILARITY_MODES}, got {self.similarity_mode!r}"
            )
        if not _is_int(self.max_iterations) or self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be a positive integer, got {self.max_iterations!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        size = self.min_cluster_size
        if size is not None and (not _is_int(size) or size < MIN_CLUSTER_SIZE):
            raise ConfigError(f"min_cluster_size must be an integer >= {MIN_CLUSTER_SIZE}, got {size!r}")
        if not _is_int(self.restarts) or self.restarts < 0:
            raise ConfigError(f"restarts must be a non-negative integer, got {self.restarts!r}")

    def resolved_min_cluster_size(self, n_assets: int) -> int:
        if self.min_cluster_size is not None:
            return self.min_cluster_size
        return max(n_assets + 1, MIN_CLUSTER_SIZE)


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
    """A label per time point plus the penalized objective it achieves.

    scores is the matrix solve_path solved on, the object itself, not a
    copy. In fit's result its column k is the score of models[k], so the
    fit's likelihood ratio needs no second scoring. It is in no output
    file.
    """

    labels: np.ndarray
    objective: float
    switches: int
    scores: ScoreMatrix | None = None


@dataclass
class FitReport:
    """Diagnostics from one fit; plain Python values, so asdict is its JSON form."""

    iterations: int
    objective_trajectory: list
    objective: float
    switches: int
    occupancy: list
    converged: bool
    repairs: int
    best_iteration: int  # always iterations - 1: the last iterate is the best


def score_states(returns: ReturnsPanel, models, mode: str = "likelihood") -> ScoreMatrix:
    """Score every (time point, state) pair, penalty excluded.

    The score is -0.5 d' J d + 0.5 log |J| with d = x_t - mu_k; "likelihood"
    is the one mode. Each J is scattered into a dense n x n array for the
    product d @ J, one code path for every n. A column depends on its own
    model only, bit for bit, so a refit scores just the states it
    re-estimated.
    """
    if mode != "likelihood":
        raise ConfigError(f"scoring mode must be 'likelihood', got {mode!r}")
    if not models:
        raise ValueError("need at least 1 state model, got none")
    x = returns.values
    t_len, n = x.shape
    values = np.empty((t_len, len(models)))
    for k, model in enumerate(models):
        mu = np.asarray(model.mu, dtype=float)
        if mu.shape != (n,) or model.precision.n != n:
            raise ValueError(f"state {k} dimension does not match panel width {n}")
        d = x - mu
        quad = np.einsum("ti,ti->t", d, d @ model.precision.dense())
        values[:, k] = -0.5 * quad + 0.5 * model.precision.log_det
    return ScoreMatrix(values=values)


def solve_path(scores: ScoreMatrix, gamma: float) -> StatePath:
    """Maximize sum_t score[t, k_t] - gamma * #switches over all label paths.

    Exact dynamic programming: the penalty only looks one step back, so
    each state's best predecessor is either itself (no penalty) or the
    globally best previous state (penalized; the lowest index among equal
    bests, as np.argmax picks). Ties between staying and switching prefer
    staying, and the path ends in the lowest-index best state.

    The recursion runs in numpy over blocks of w = round(T^(1/3)) days,
    all blocks at once: each block's K x K max-plus transfer (its best
    score entering in state j and ending in k) in w steps. The
    chain of the T / w transfers is itself cut into groups of g = isqrt of
    their count: g - 1 batched max-plus products give every group's
    running products, one step per group chains the groups' entry
    values, and one batched product gives every block's entry values from
    those. A replay of every block then records per day, in w steps, the
    first best state and the states that cannot stay
    (value < best - gamma). Each loop runs about T^(1/3) steps. Day 0
    follows all-zero values and, where w does not divide T, zero-score
    padding days, so every block is full; the last group is filled up
    with identity transfers. None of these moves a value or a decision.
    The backtrack takes one step per switch: a running maximum over each
    state's cannot-stay days gives the day its run began.

    The maxima are the per-day recursion's, but each transfer sums its
    days from 0, and the transfers of a group are combined before they
    are added to the entry values, so a label can differ from a
    day-by-day float loop only where two choices lie within rounding;
    integer-valued scores are exact either way. Memory is
    O(T * K + K^2 * T^(2/3)), with no T x K x K or K^3 array.
    """
    gamma = _gamma_float(gamma)  # float64 arithmetic whatever real type gamma has
    if not isinstance(scores, ScoreMatrix):
        scores = ScoreMatrix(scores)
    v = scores.values
    t_len, k_len = v.shape

    # padded day p = b * w + i is offset i of block b; s[i, k, b] is its
    # score in state k, state-major so that a day's step spans every block
    w = round(t_len ** (1 / 3))
    n_blocks = -(-t_len // w)
    pad = n_blocks * w - t_len
    s = np.empty((w, k_len, n_blocks))
    by_block = s.transpose(2, 0, 1)
    by_block[0, :pad] = 0.0
    by_block[0, pad:] = v[: w - pad]
    by_block[1:] = v[w - pad :].reshape(n_blocks - 1, w, k_len)

    # transfer[j, k, b], from the max-plus identity; the last block's is
    # never needed. Transfer b is offset m of group G, b = G * g + m; the
    # last group is filled up with identities, which move no value.
    inner = n_blocks - 1
    g = max(1, math.isqrt(inner))
    n_groups = -(-inner // g)
    identity = np.where(np.eye(k_len, dtype=bool), 0.0, -np.inf)
    transfer = np.repeat(identity[:, :, None], n_groups * g, axis=2)
    block = transfer[:, :, :inner]
    top = np.empty((k_len, inner))
    for i in range(w):
        np.maximum.reduce(block, axis=1, out=top)
        top -= gamma
        np.maximum(block, top[:, None, :], out=block)
        block += s[i, :, :inner]

    # in place, chain[j, k, G, m]: the max-plus product of group G's
    # transfers 0..m; entry[:, G]: the values entering group G's first
    # block; value[:, b]: block b's entry values, then its running values.
    # Two transfers near -gamma may sum to -inf, which no best path takes.
    chain = transfer.reshape(k_len, k_len, n_groups, g)
    entry = np.zeros((k_len, n_groups))
    value = np.zeros((k_len, n_blocks))
    with np.errstate(over="ignore"):
        for m in range(1, g):
            chain[:, :, :, m] = functools.reduce(np.maximum, (
                chain[:, l, None, :, m - 1] + chain[None, l, :, :, m] for l in range(k_len)))
        for group in range(1, n_groups):
            entry[:, group] = (entry[:, group - 1, None] + chain[:, :, group - 1, -1]).max(axis=0)
        within = (entry[:, None, :, None] + chain).max(axis=0)
    value[:, 1:] = within.reshape(k_len, n_groups * g)[:, :inner]

    # per padded day, day-major: the state that cannot stay, the first best
    stuck = np.empty((n_blocks, w, k_len), dtype=bool)
    best = np.empty((n_blocks, w), dtype=np.intp)
    for i in range(w):
        best[:, i] = value.argmax(axis=0)
        switch = np.maximum.reduce(value, axis=0)
        switch -= gamma
        np.less(value, switch, out=stuck[:, i].T)
        np.maximum(value, switch, out=value)
        value += s[i]
    k = int(value[:, -1].argmax())

    # began[p, k]: the last day <= p on which state k had to be entered by
    # a switch, or -1; day 0 and the padding start from equal values, so
    # none of them is one
    began = np.where(stuck.reshape(-1, k_len), np.arange(n_blocks * w)[:, None], -1)
    np.maximum.accumulate(began, axis=0, out=began)
    states, lengths = [], []
    p = n_blocks * w - 1
    while True:
        day = began.item(p, k)
        states.append(k)
        lengths.append(p + 1 - max(day, pad))
        if day < 0:
            break
        k = best.item(day)
        p = day - 1
    labels = np.repeat(np.array(states[::-1], dtype=int), lengths[::-1])

    # each run but the first was entered from another state: a stuck state is never the best
    switches = len(states) - 1
    objective = float(v[np.arange(t_len), labels].sum() - gamma * switches)
    return StatePath(labels=labels, objective=objective, switches=switches, scores=scores)


def _similarity_matrix(cov: np.ndarray, mode: str) -> np.ndarray:
    """mode's transform of cov's correlation, equal to np.corrcoef's bit for bit."""
    variance = np.diag(cov)
    flat = np.flatnonzero(~(variance > 0.0))
    if flat.size:
        raise EstimationError(
            f"degenerate covariance: asset column {flat[0]} has zero variance in cluster"
        )
    std = np.sqrt(variance)
    corr = cov / std[:, None]
    corr /= std[None, :]
    np.clip(corr, -1.0, 1.0, out=corr)
    return _SIMILARITY[mode](corr)


def estimate_cluster(
    returns: ReturnsPanel, member_indices, config: ClusteringConfig, label: int = 0
) -> ClusterModel:
    """Fit one state from its member time points.

    mu and the covariance are the sample mean/covariance of the member
    rows; the TMFG is rebuilt on the configured similarity of those rows
    and the precision is the LoGo estimate on it. An invalid config
    raises ConfigError, and member_indices that are not distinct integer
    days in [0, T) raise ValueError.
    """
    config.validate()
    idx = np.sort(np.asarray(member_indices))
    t_len, n = returns.values.shape
    if idx.size and (
        idx.dtype.kind not in "iu" or idx[0] < 0 or idx[-1] >= t_len or not np.all(np.diff(idx))
    ):
        raise ValueError(f"state {label}: member indices must be distinct days in [0, {t_len})")
    min_size = config.resolved_min_cluster_size(n)
    if idx.size < min_size:
        raise EstimationError(
            f"state {label}: {idx.size} member(s), need at least {min_size}"
        )
    rows = returns.values[idx]
    mu = rows.mean(axis=0)
    cov = np.cov(rows, rowvar=False, ddof=1)
    graph = build_tmfg(_similarity_matrix(cov, config.similarity_mode))
    precision = logo_precision(cov, graph)
    return ClusterModel(
        label=label, mu=mu, precision=precision, graph=graph, member_count=int(idx.size)
    )


def _starts(t_len: int, config: ClusteringConfig, min_size: int):
    """The equal-block labels, then config.restarts random contiguous ones."""
    k = config.n_clusters
    yield np.arange(t_len) * k // t_len
    if config.restarts:  # numpy.random takes about 11 ms to import
        rng = np.random.default_rng(config.seed)
        for _ in range(config.restarts):
            lengths = min_size + rng.multinomial(t_len - k * min_size, np.full(k, 1.0 / k))
            yield np.repeat(np.arange(k), lengths)


def _fit_once(panel: ReturnsPanel, config: ClusteringConfig, labels, memo):
    # A start's models and score values come from and go into memo, if
    # given; refits write score columns in place, so a hit takes a copy.
    memo = {} if memo is None else memo
    key = (labels.tobytes(), config.similarity_mode)
    if key not in memo:
        days = (np.flatnonzero(labels == k) for k in range(config.n_clusters))
        try:
            start = [estimate_cluster(panel, idx, config, label=k) for k, idx in enumerate(days)]
        except EstimationError as exc:
            raise FitError(f"state estimation failed: {exc}") from exc
        memo[key] = (start, score_states(panel, start).values)
    start, values = memo[key]
    models = list(start)
    scores = ScoreMatrix(values.copy())
    trajectory: list = []
    repairs = 0

    while True:
        path = solve_path(scores, config.gamma)
        trajectory.append(path.objective)
        converged = np.array_equal(path.labels, labels)
        if converged or len(trajectory) == config.max_iterations:
            break
        # Refit the states whose days changed. Graph re-selection and the
        # ddof=1 covariance do not maximize the score, so a new model
        # replaces the old one and its column only if it scores the
        # state's days no worse; a failed estimate (too few days
        # included) or a rejected one is a repair.
        for k in range(config.n_clusters):
            days = path.labels == k
            if np.array_equal(days, labels == k):
                continue
            try:
                model = estimate_cluster(panel, np.flatnonzero(days), config, label=k)
            except EstimationError:
                repairs += 1
                continue
            fresh = score_states(panel, [model]).values[:, 0]
            if fresh[days].sum() < scores.values[days, k].sum():
                repairs += 1
            else:
                models[k] = model
                scores.values[:, k] = fresh
        labels = path.labels

    report = FitReport(
        iterations=len(trajectory),
        objective_trajectory=trajectory,
        objective=path.objective,
        switches=path.switches,
        occupancy=np.bincount(path.labels, minlength=config.n_clusters).tolist(),
        converged=converged,
        repairs=repairs,
        best_iteration=len(trajectory) - 1,
    )
    return models, path, report


def fit(returns: ReturnsPanel, config: ClusteringConfig, *, memo=None):
    """Fit K market states to a returns panel.

    Alternates exact penalized assignment (solve_path) with per-state
    re-estimation (estimate_cluster) until the label sequence stops
    changing or the iteration budget runs out, and returns the last
    iterate. Deterministic for a given (panel, config, seed). The panel is
    fitted as given: to fit z-scores, pass standardize_returns(returns).

    A refit re-estimates and rescores only the states whose days
    changed. Such a state keeps its previous model if it is assigned
    fewer than min_cluster_size days, its estimate fails otherwise, or the
    new model scores the state's days lower than the old one did, so
    neither step can lower report.objective_trajectory (up to float
    rounding). A kept state may end with fewer days, even none.
    report.repairs counts the kept models, one for each change of a
    state's days that leaves it on its old model; a state whose days stay
    the same is not counted again. A failed estimate at the first
    iteration raises FitError.

    Each start runs the loop to its end: the equal-block labels first,
    then config.restarts random contiguous partitions (at least
    min_cluster_size points per state) drawn from config.seed. The first
    start with the best final objective is returned.

    memo, if given, is a dict from (start label bytes, similarity mode)
    to that start's K models and T x K score values: fits that start from
    the same labels, such as the sweep cells that share K, estimate and
    score them once. One entry holds one T x K float matrix. Its keys
    hold labels, not data, so one memo is only valid for one returns
    panel. Left as None, no start is kept.

    Returns (models, path, report). path.scores holds the scores the last
    assignment was solved on; column k is models[k]'s, a kept model's
    included.
    """
    config.validate()
    t_len, n = returns.values.shape
    if n < MIN_VERTICES:
        raise ConfigError(f"need at least {MIN_VERTICES} assets, got {n}")
    min_size = config.resolved_min_cluster_size(n)
    if t_len < config.n_clusters * min_size:
        raise ConfigError(
            f"infeasible: {t_len} time points cannot hold {config.n_clusters} "
            f"states of at least {min_size} points each"
        )

    starts = _starts(t_len, config, min_size)
    # max keeps the first of equal bests, and only one result at a time
    fits = (_fit_once(returns, config, labels0, memo) for labels0 in starts)
    return max(fits, key=lambda result: result[1].objective)

"""Post-fit diagnostics.

likelihood_ratio compares two fitted states pointwise: the per-date
difference of two columns of one score matrix, the fit's own or one
scored here, positive when the first state explains that date better.
The switching penalty is a property of paths, not of single dates, so it
never enters the ratio.
suggest_ratio_states ranks occupied states by mean equal-weight return.
label_agreement matches the states of two label paths with an exact
Hungarian method on their integer confusion counts (Kuhn, Naval Res.
Logistics Quarterly 1955), in plain Python, with one row and one column
per label that occurs, so its cost follows the number of states.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ingest import ReturnsPanel
from .segment import ScoreMatrix, StatePath, score_states


@dataclass
class RatioSeries:
    """Per-date log-likelihood difference of state_a over state_b."""

    dates: list
    values: np.ndarray
    state_a: int
    state_b: int


def likelihood_ratio(
    returns: ReturnsPanel, models, state_a: int, state_b: int, scores: ScoreMatrix | None = None
) -> RatioSeries:
    """Pointwise score difference between two states (penalty-free).

    values[t] = score(t, state_a) - score(t, state_b), the difference of
    two columns of the T x len(models) score matrix of these models on
    returns; swapping the states negates the series exactly. scores, if
    given, is that matrix, such as fit's path.scores; another shape is a
    ValueError. Left as None, every model is scored here.
    """
    k_len = len(models)
    for s in (state_a, state_b):
        if not 0 <= s < k_len:
            raise ValueError(f"state {s} out of range for {k_len} models")
    if state_a == state_b:
        raise ValueError("state_a and state_b must differ")
    values = (score_states(returns, models) if scores is None else scores).values
    if values.shape != (len(returns.dates), k_len):
        raise ValueError(f"scores have shape {values.shape}, need {(len(returns.dates), k_len)}")
    ratio = values[:, state_a] - values[:, state_b]
    return RatioSeries(dates=list(returns.dates), values=ratio, state_a=state_a, state_b=state_b)


def suggest_ratio_states(path: StatePath, returns: ReturnsPanel) -> tuple:
    """Pick (crisis, bull) as the states of lowest/highest mean equal-weight return."""
    labels = np.asarray(path.labels)
    if labels.shape[0] != len(returns.dates):
        raise ValueError(
            f"path length {labels.shape[0]} does not match panel length {len(returns.dates)}"
        )
    equal_weight = returns.values.mean(axis=1)
    # not np.unique: called without return_inverse, its first call imports
    # numpy.ma (10-18 ms); the calls in LoGo and label_agreement pass it
    states = sorted(set(labels.tolist()))
    mean_return = {s: float(equal_weight[labels == s].mean()) for s in states}
    crisis = min(states, key=lambda s: (mean_return[s], s))
    bull = max(states, key=lambda s: (mean_return[s], -s))
    if crisis == bull:  # one occupied state, or all of one mean return
        raise ValueError("need two occupied states of different mean return to compare")
    return crisis, bull


def _matched_sum(weights) -> int:
    """The largest sum of a one-to-one matching of rows to columns.

    weights is a k_a x k_b matrix of non-negative integers. It is padded
    with zeros to a square and solved by the O(k^3) Hungarian method with
    row and column potentials, minimizing the negated weights. Integer
    arithmetic keeps it exact; the maximum is unique even when several
    matchings reach it.
    """
    negated = [[-int(x) for x in line] for line in np.asarray(weights).tolist()]
    k_a, k_b = len(negated), len(negated[0])
    k = max(k_a, k_b)
    cost = [line + [0] * (k - k_b) for line in negated] + [[0] * k for _ in range(k - k_a)]
    # 1-based: column 0 is a virtual start; owner[j] is the row matched to
    # column j (0 while free), via[j] the column before j on the best path
    u, v = [0] * (k + 1), [0] * (k + 1)
    owner, via = [0] * (k + 1), [0] * (k + 1)
    for i in range(1, k + 1):
        owner[0] = i
        col = 0
        slack = [math.inf] * (k + 1)
        used = [False] * (k + 1)
        while owner[col]:
            used[col] = True
            row = owner[col]
            delta, nxt = math.inf, 0
            for j in range(1, k + 1):
                if used[j]:
                    continue
                reduced = cost[row - 1][j - 1] - u[row] - v[j]
                if reduced < slack[j]:
                    slack[j], via[j] = reduced, col
                if slack[j] < delta:
                    delta, nxt = slack[j], j
            for j in range(k + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            col = nxt
        while col:
            prev = via[col]
            owner[col] = owner[prev]
            col = prev
    # the padding weighs 0, so it adds nothing to the sum
    return -sum(cost[owner[j] - 1][j - 1] for j in range(1, k + 1))


def label_agreement(labels_a, labels_b) -> float:
    """Fraction of points agreeing after maximum-overlap label matching.

    Builds the confusion matrix of the two label sequences, one row and
    one column per label that occurs, and matches states by Hungarian
    assignment (_matched_sum), so arbitrary per-run label identities do
    not matter and the cost follows the number of distinct labels, not
    their values. Sequences may use different state counts. Labels must
    be non-negative integers, compared as given (not cast or wrapped).
    """
    a, b = np.asarray(labels_a), np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label sequences must be 1-d and equally long")
    if a.size == 0:
        raise ValueError("label sequences are empty; agreement is undefined")
    both = np.concatenate([a.astype(float), b.astype(float)])
    if not np.all((both >= 0) & (both < np.inf) & (both == np.floor(both))):
        raise ValueError("labels must be non-negative integers")
    states_a, a = np.unique(a, return_inverse=True)
    states_b, b = np.unique(b, return_inverse=True)
    k_a, k_b = states_a.size, states_b.size
    confusion = np.bincount(a * k_b + b, minlength=k_a * k_b).reshape(k_a, k_b)
    return _matched_sum(confusion) / a.shape[0]

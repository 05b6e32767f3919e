"""Checks on the files a CLI run writes, independent of the program's code.

verify_fit() returns a list of problems for one fit's output directory;
an empty list means the outputs are consistent with the input panel. The
objective is recomputed from models.json and the returns as
sum_t score(t, label_t) - gamma * switches with dense algebra.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

# Relative tolerance of a recomputed objective or ratio value, relative
# to the sum of the magnitudes of the score terms that enter it.
OBJECTIVE_RTOL = 1e-9

HASHED_FILES = ("states.csv", "models.json", "ratio.csv")


def digests(out_dir: Path) -> dict:
    """sha256 of each output that must repeat byte for byte."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in HASHED_FILES
        if (out_dir / name).is_file()
    }


def standardize(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def read_labels(path: Path, dates: list, k_len: int, problems: list):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "date,label":
        problems.append(f"{path.name}: bad header")
        return None
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != list(dates):
        problems.append(f"{path.name}: dates differ from the input's return dates")
        return None
    try:
        labels = np.array([int(r[1]) for r in rows], dtype=int)
    except (IndexError, ValueError):
        problems.append(f"{path.name}: malformed label")
        return None
    if labels.size and (labels.min() < 0 or labels.max() >= k_len):
        problems.append(f"{path.name}: label outside [0, {k_len})")
        return None
    return labels


def state_scores(models: dict, x: np.ndarray, k_len: int) -> np.ndarray:
    """T x K likelihood scores -0.5 d'Jd + 0.5 log|J| from models.json."""
    n = x.shape[1]
    states = models["states"]
    if len(states) != k_len or [s["label"] for s in states] != list(range(k_len)):
        raise ValueError(f"models.json must hold states 0..{k_len - 1}")
    scores = np.empty((x.shape[0], k_len))
    for k, state in enumerate(states):
        mu = np.asarray(state["mu"], dtype=float)
        j = np.diag(np.asarray(state["diagonal"], dtype=float))
        if mu.shape != (n,) or j.shape != (n, n):
            raise ValueError(f"state {k}: mu or diagonal has the wrong length")
        for a, b, v in state["edges"]:
            if not 0 <= a < b < n:
                raise ValueError(f"state {k}: edge ({a}, {b}) out of range")
            j[a, b] = j[b, a] = v
        d = x - mu
        scores[:, k] = -0.5 * np.einsum("ti,ti->t", d @ j, d) + 0.5 * float(state["log_det"])
    return scores


def verify_fit(
    out_dir: Path, dates: list, returns: np.ndarray, k_len: int, gamma: float,
    standardized: bool,
) -> list:
    """Problems found in one fit's outputs; dates are the return dates."""
    problems: list = []
    needed = ("states.csv", "models.json", "report.json", "ratio.csv")
    missing = [name for name in needed if not (out_dir / name).is_file()]
    if missing:
        return [f"{out_dir.name}: missing {', '.join(missing)}"]
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        models = json.loads((out_dir / "models.json").read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"{out_dir.name}: malformed JSON ({exc})"]
    if report.get("status") != "ok":
        return [f"{out_dir.name}: report status {report.get('status')!r}"]

    labels = read_labels(out_dir / "states.csv", dates, k_len, problems)
    if labels is None:
        return problems
    x = standardize(returns) if standardized else returns
    try:
        scores = state_scores(models, x, k_len)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{out_dir.name}/models.json: {exc}"]

    realized = scores[np.arange(labels.size), labels]
    switches = int(np.count_nonzero(np.diff(labels)))
    objective = float(realized.sum() - gamma * switches)
    reported = report.get("objective")
    scale = float(np.abs(realized).sum()) + gamma * switches + 1.0
    if not isinstance(reported, (int, float)) or abs(objective - reported) > (
        OBJECTIVE_RTOL * scale
    ):
        problems.append(
            f"{out_dir.name}: objective {reported!r} differs from recomputed {objective!r}"
        )
    if report.get("switches") != switches:
        problems.append(
            f"{out_dir.name}: {report.get('switches')} switches reported, "
            f"{switches} in states.csv"
        )
    return problems + _verify_ratio(out_dir, dates, scores, report)


def _verify_ratio(out_dir: Path, dates: list, scores: np.ndarray, report: dict) -> list:
    lines = (out_dir / "ratio.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "date,value":
        return ["ratio.csv: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    try:
        a, b = (int(s) for s in report["ratio_states"])
        values = np.array([float(r[1]) for r in rows])
    except (KeyError, IndexError, TypeError, ValueError):
        return ["ratio.csv: malformed row or missing ratio_states"]
    if not (0 <= a < scores.shape[1] and 0 <= b < scores.shape[1]):
        return [f"report.json: ratio_states {a}, {b} out of range"]
    if [r[0] for r in rows] != list(dates):
        return ["ratio.csv: dates differ from the input's return dates"]
    expected = scores[:, a] - scores[:, b]
    tol = OBJECTIVE_RTOL * (np.abs(scores[:, a]) + np.abs(scores[:, b]) + 1.0)
    if not np.all(np.abs(values - expected) <= tol):
        return ["ratio.csv: values differ from the recomputed likelihood ratio"]
    return []


def matched_accuracy(truth: np.ndarray, labels: np.ndarray) -> float:
    """Share of days whose label matches the truth after Hungarian matching."""
    confusion = np.zeros((truth.max() + 1, labels.max() + 1), dtype=int)
    np.add.at(confusion, (truth, labels), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum() / truth.size)


def read_sweep(out_dir: Path, expected_cells: int):
    """(cells, problems) from sweep.json."""
    try:
        sweep = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
        cells = sweep["cells"]
        agreement = sweep["agreement"]
    except (OSError, ValueError, KeyError) as exc:
        return [], [f"sweep.json: {exc}"]
    if len(cells) != expected_cells or len(agreement) != len(cells):
        return cells, [f"sweep.json: {len(cells)} cells and {len(agreement)} agreement "
                       f"rows, expected {expected_cells}"]
    problems = []
    ok = [c.get("exit_code") == 0 for c in cells]
    for i, row in enumerate(agreement):
        for j, value in enumerate(row):
            if (value is None) == (ok[i] and ok[j]) or (
                value is not None and not 0.0 <= value <= 1.0 + 1e-12
            ):
                problems.append(f"sweep.json: bad agreement[{i}][{j}] = {value!r}")
    return cells, problems

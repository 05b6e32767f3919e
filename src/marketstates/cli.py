"""Command-line pipeline: load prices, fit states, write plot-ready files.

A run writes four files into the output directory:

  states.csv   date,label for every return date
  models.json  assets (the column names) and, per state, label, mu, the
               precision's diagonal and edges ([i, j, value] with i < j),
               log_det and occupancy
  report.json  status, objective, objective_trajectory, iterations, converged,
               switches, occupancy, repairs, best_iteration, config and, with
               --ratio, ratio_states: the [A, B] pair ratio.csv compares (a
               failed run writes status, error_kind, error and config)
  ratio.csv    date,value likelihood-ratio series (when --ratio is given)

Every JSON file (models.json, report.json, sweep.json) is one line of
sorted-key JSON plus a newline, written by _write_json.

main validates what it runs, the one fit or every sweep cell, creates the
output directory and loads the panel once, z-scored if --standardize is
set; run_fit and run_sweep work on that panel in memory. A sweep writes
each cell's files into its own subdirectory plus sweep.json; if the input
fails to load or standardize, no cell runs and the failure report.json
goes into the output directory.

Exit codes: 0 success, 1 configuration or output error, 2 data error,
3 fit failure, each with a one-line diagnostic on stderr. _EXIT_CODES is
the only place an exception becomes an exit code.
"""

import argparse
import itertools
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .analysis import label_agreement, likelihood_ratio, suggest_ratio_states
from .errors import ConfigError, DataError, FitError
from .ingest import ReturnsPanel, load_price_panel, standardize_returns, to_log_returns
from .segment import SIMILARITY_MODES, ClusteringConfig, StatePath, fit

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_FIT = 3

# (exception type, exit code, diagnostic kind); the first matching row wins.
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG, "config"),
    (OSError, EXIT_CONFIG, "config"),
    (DataError, EXIT_DATA, "data"),
    (FitError, EXIT_FIT, "fit"),
)
_HANDLED = tuple(row[0] for row in _EXIT_CODES)


@dataclass
class RunConfig:
    """Everything one CLI invocation needs."""

    input: str
    output: str
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    ratio: str | None = None  # "auto" or "A,B"
    standardize: bool = False  # z-score the returns once, as loaded

    def validate(self) -> None:
        if not self.input:
            raise ConfigError("input path must not be empty")
        if not self.output:
            raise ConfigError("output directory must not be empty")
        self.clustering.validate()
        _parse_ratio(self.ratio, self.clustering.n_clusters)


def _parse_ratio(ratio: str | None, n_clusters: int):
    """Return (a, b) labels, "auto", or None; raise ConfigError otherwise."""
    if ratio is None or ratio == "auto":
        return ratio
    parts = ratio.split(",")
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--ratio must be 'A,B' or 'auto', got {ratio!r}") from None
    if a == b or not (0 <= a < n_clusters and 0 <= b < n_clusters):
        raise ConfigError(f"--ratio states must be distinct labels in [0, {n_clusters})")
    return a, b


def _write_json(path: Path, payload: dict) -> None:
    """Write payload as one line of sorted-key JSON plus a newline.

    json.dumps, not json.dump(fh) or indent=, so that json's C encoder
    runs: the other two take its pure-Python encoder.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, dates, cells) -> None:
    """Write the header, then one date,cell line per date, in one join.

    cells are strings already formatted by the caller: run_fit gives a
    label's digits and a float's repr, which is a Python float's str.
    """
    text = "\n".join([header, *map(",".join, zip(dates, cells))])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _models_payload(models, occupancy, assets) -> dict:
    """models.json's content; occupancy[k] is the days state k holds in states.csv.

    The diagonal is the stored i == j entries, as every vertex lies in a
    clique; the off-diagonal entries are [i, j, value] edges in the sorted
    (i, j) order that precision.indices() gives them.
    """
    states = []
    for model, days in zip(models, occupancy):
        precision = model.precision
        i, j = precision.indices()
        off = i != j
        states.append({
            "diagonal": precision.sums[~off].tolist(),
            "edges": list(zip(i[off].tolist(), j[off].tolist(), precision.sums[off].tolist())),
            "label": int(model.label),
            "log_det": float(precision.log_det),
            "mu": np.asarray(model.mu, dtype=float).tolist(),
            "occupancy": int(days),
        })
    return {"assets": list(assets), "states": states}


def _report_failure(exc: Exception, config: RunConfig | None, report_dir: Path | None):
    """Return exc's (exit code, kind) from _EXIT_CODES.

    A failure report.json goes into report_dir when one is given, on a best
    effort basis: a directory that cannot take it leaves the code unchanged.
    """
    code, kind = next((c, k) for types, c, k in _EXIT_CODES if isinstance(exc, types))
    if report_dir is not None:
        try:
            _write_json(
                report_dir / "report.json",
                {
                    "status": "error",
                    "error_kind": kind,
                    "error": str(exc),
                    "config": asdict(config),
                },
            )
        except OSError:
            pass
    return code, kind


def run_fit(config: RunConfig, returns: ReturnsPanel, *, memo=None) -> StatePath:
    """Fit one configuration to loaded returns and write its output files.

    returns are fitted and scored as given (main standardizes them once).
    memo is fit's memo of starting states, valid for these returns only.
    Returns the fitted path; every failure raises for the caller to map.
    """
    out_dir = Path(config.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    models, path, report = fit(returns, config.clustering, memo=memo)

    ratio_pair = _parse_ratio(config.ratio, config.clustering.n_clusters)
    if ratio_pair == "auto":
        try:
            ratio_pair = suggest_ratio_states(path, returns)
        except ValueError as exc:
            raise FitError(str(exc)) from exc

    payload = {"status": "ok", "config": asdict(config), **asdict(report)}
    label_text = [str(k) for k in range(config.clustering.n_clusters)]
    _write_csv(out_dir / "states.csv", "date,label", returns.dates,
               map(label_text.__getitem__, path.labels.tolist()))
    if ratio_pair is not None:
        series = likelihood_ratio(returns, models, *ratio_pair, scores=path.scores)
        _write_csv(out_dir / "ratio.csv", "date,value", series.dates,
                   map(repr, series.values.tolist()))
        payload["ratio_states"] = [int(series.state_a), int(series.state_b)]
    _write_json(out_dir / "models.json", _models_payload(models, report.occupancy, returns.assets))
    _write_json(out_dir / "report.json", payload)
    return path


def _sweep_cells(config: RunConfig, k_list, gamma_list) -> list:
    """Validated (directory name, RunConfig) of every (clusters, gamma) cell.

    config's own clusters and gamma run in no cell, so they go unchecked.
    """
    if not k_list or not gamma_list:
        raise ConfigError("sweep lists must be non-empty")
    cells = []
    for k, gamma in itertools.product(k_list, gamma_list):
        name = f"K{k}_gamma{gamma:g}"
        if any(name == other for other, _ in cells):
            raise ConfigError(
                f"sweep cell K={k}, gamma={gamma!r} would write into {name!r}, "
                "the directory of an earlier cell"
            )
        clustering = replace(config.clustering, n_clusters=k, gamma=float(gamma))
        cell = replace(config, clustering=clustering)
        cell.validate()  # on the sweep's own paths, so an empty output still fails
        cells.append((name, replace(cell, output=str(Path(config.output) / name))))
    return cells


def run_sweep(config: RunConfig, returns: ReturnsPanel, cells) -> int:
    """Run the fit once per cell on the same returns; summarize agreement.

    Each cell writes the standard outputs into its own subdirectory;
    sweep.json holds the pairwise matched-label agreement matrix. Returns
    0 only if every cell succeeded, else the first failing cell's code,
    after one stderr line naming that cell. All cells share one memo of
    starts, so cells of equal K estimate and score their start once.
    """
    summary = []
    labels = []
    failures = []  # (exit code, diagnostic) per failed cell
    memo = {}
    for name, cell in cells:
        try:
            labels.append(run_fit(cell, returns, memo=memo).labels)
            code = EXIT_OK
        except _HANDLED as exc:
            labels.append(None)
            code, kind = _report_failure(exc, cell, Path(cell.output))
            failures.append((code, f"marketstates: {kind} error: sweep cell {name}: {exc}"))
        k, gamma = cell.clustering.n_clusters, cell.clustering.gamma
        summary.append({"clusters": k, "gamma": gamma, "dir": name, "exit_code": code})

    # unknown against a failed cell, not fabricated; symmetric, so one match per pair
    agreement = [[None] * len(labels) for _ in labels]
    for i, j in itertools.combinations_with_replacement(range(len(labels)), 2):
        if labels[i] is not None and labels[j] is not None:
            agreement[i][j] = agreement[j][i] = label_agreement(labels[i], labels[j])
    _write_json(
        Path(config.output) / "sweep.json", {"cells": summary, "agreement": agreement}
    )
    if not failures:
        return EXIT_OK
    code, diagnostic = failures[0]
    print(f"{diagnostic} ({len(failures)} of {len(cells)} cells failed)", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through ConfigError so
    # every configuration problem lands on exit code 1.
    def error(self, message):
        raise ConfigError(message)


def _list_of(convert, noun: str):
    """argparse type for a comma-separated list of convert(item) values."""

    def parse(text: str) -> list:
        try:
            return [convert(p) for p in text.split(",") if p.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}"
            ) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The CLI's flags, each stored under the name of the field it sets.

    The dests are RunConfig's and ClusteringConfig's fields plus sweep_k and
    sweep_gamma; ClusteringConfig gives the defaults, restarts included.
    """
    parser = _Parser(
        prog="marketstates",
        description="Detect market states in an asset price panel and "
        "emit plot-ready CSV/JSON outputs.",
    )
    parser.set_defaults(**asdict(ClusteringConfig()))
    parser.add_argument("--input", required=True, help="price panel CSV (date column first)")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--clusters", dest="n_clusters", type=int,
                        help="number of states (default %(default)s)")
    parser.add_argument("--gamma", type=float, help="switching penalty (default %(default)s)")
    parser.add_argument(
        "--similarity", dest="similarity_mode", choices=SIMILARITY_MODES,
        help="correlation transform used to build each state's graph (default %(default)s)",
    )
    parser.add_argument("--standardize", action="store_true",
                        help="z-score each asset first; this changes models.json and "
                        "the objective, but no label and no ratio of a given pair of states")
    parser.add_argument("--max-iter", dest="max_iterations", type=int,
                        help="fit iteration budget (default %(default)s)")
    parser.add_argument("--seed", type=int,
                        help="seed for random restarts; the CLI runs none, so it "
                        "only reaches report.json (default %(default)s)")
    parser.add_argument("--min-cluster-size", type=int,
                        help="fewest days a state's model is estimated from; a state "
                        "assigned fewer at a refit keeps its previous model "
                        "(default: assets + 1)")
    parser.add_argument("--ratio",
                        help="'A,B' state labels or 'auto' for lowest-vs-highest mean return")
    parser.add_argument("--sweep-k", type=_list_of(int, "integers"),
                        help="comma-separated cluster counts")
    parser.add_argument("--sweep-gamma", type=_list_of(float, "numbers"),
                        help="comma-separated gamma values")
    return parser


def main(argv=None) -> int:
    """Run the CLI and return its exit code; each flag sets the field its dest names."""
    config = report_dir = None
    try:
        args = vars(build_parser().parse_args(argv))
        sweep_k, sweep_gamma = args.pop("sweep_k"), args.pop("sweep_gamma")
        settings = {f.name: args.pop(f.name) for f in fields(ClusteringConfig)}
        config = RunConfig(clustering=ClusteringConfig(**settings), **args)
        if sweep_k is None and sweep_gamma is None:
            config.validate()
            cells = None
        else:
            cells = _sweep_cells(
                config,
                sweep_k if sweep_k is not None else [config.clustering.n_clusters],
                sweep_gamma if sweep_gamma is not None else [config.clustering.gamma],
            )
        out_dir = Path(config.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_dir = out_dir
        returns = to_log_returns(load_price_panel(config.input))
        if config.standardize:
            returns = standardize_returns(returns)
        if cells is not None:
            return run_sweep(config, returns, cells)
        run_fit(config, returns)
        return EXIT_OK
    except _HANDLED as exc:
        code, kind = _report_failure(exc, config, report_dir)
        print(f"marketstates: {kind} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

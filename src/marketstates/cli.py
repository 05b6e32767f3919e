"""Command-line pipeline: load prices, fit states, write plot-ready files.

A run writes four files into the output directory:

  states.csv   date,label for every return date
  models.json  per-state mean, precision edge list, log-determinant, occupancy
  report.json  objective trajectory, iterations, switches (always written,
               with diagnostics, even when the fit fails)
  ratio.csv    date,value likelihood-ratio series (when --ratio is given)

main validates the whole configuration, sweep cells included, creates the
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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import label_agreement, likelihood_ratio, suggest_ratio_states
from .errors import ConfigError, DataError, EstimationError, FitError
from .ingest import ReturnsPanel, load_price_panel, standardize_returns, to_log_returns
from .segment import ClusteringConfig, StatePath, fit

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
    (EstimationError, EXIT_FIT, "fit"),
)
_HANDLED = tuple(row[0] for row in _EXIT_CODES)


@dataclass
class RunConfig:
    """Everything one CLI invocation needs."""

    input_path: str
    output_dir: str
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    ratio: str | None = None  # "auto" or "A,B"
    standardize: bool = False  # z-score the returns once, as loaded

    def validate(self) -> None:
        if not self.input_path:
            raise ConfigError("input path must not be empty")
        if not self.output_dir:
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: str, dates, cells) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{header}\n")
        for date, cell in zip(dates, cells):
            fh.write(f"{date},{cell}\n")


def _models_payload(models, assets) -> dict:
    states = []
    for model in models:
        # the upper-triangle entries come sorted by (i, j), so the edges
        # need no sort
        precision = model.precision
        i, j = precision.indices()
        off = i != j
        diagonal = np.zeros(precision.n)
        diagonal[i[~off]] = precision.sums[~off]
        edges = zip(i[off].tolist(), j[off].tolist(), precision.sums[off].tolist())
        states.append(
            {
                "label": int(model.label),
                "mu": [float(v) for v in model.mu],
                "log_det": float(precision.log_det),
                "occupancy": int(model.member_count),
                "diagonal": diagonal.tolist(),
                "edges": [list(edge) for edge in edges],
            }
        )
    return {"assets": list(assets), "states": states}


def _config_payload(config: RunConfig) -> dict:
    c = config.clustering
    return {
        "input": str(config.input_path),
        "output": str(config.output_dir),
        "clusters": c.n_clusters,
        "gamma": float(c.gamma),
        "mode": c.scoring_mode,
        "similarity": c.similarity_mode,
        "standardize": config.standardize,
        "max_iterations": c.max_iterations,
        "seed": c.seed,
        "min_cluster_size": c.min_cluster_size,
        "ratio": config.ratio,
    }


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
                    "config": _config_payload(config),
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
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    models, path, report = fit(returns, config.clustering, memo=memo)

    ratio_pair = _parse_ratio(config.ratio, config.clustering.n_clusters)
    series = None
    if ratio_pair == "auto":
        try:
            ratio_pair = suggest_ratio_states(path, returns)
        except ValueError as exc:
            raise FitError(str(exc)) from exc
    if ratio_pair is not None:
        series = likelihood_ratio(returns, models, ratio_pair[0], ratio_pair[1])

    _write_csv(out_dir / "states.csv", "date,label", returns.dates, map(int, path.labels))
    if series is not None:
        cells = (repr(float(v)) for v in series.values)
        _write_csv(out_dir / "ratio.csv", "date,value", series.dates, cells)
    _write_json(out_dir / "models.json", _models_payload(models, returns.assets))

    payload = {"status": "ok", "config": _config_payload(config)}
    payload.update(asdict(report), standardized=config.standardize)
    if series is not None:
        payload["ratio_states"] = [int(series.state_a), int(series.state_b)]
    _write_json(out_dir / "report.json", payload)
    return path


def _sweep_cells(config: RunConfig, k_list, gamma_list) -> list:
    """Validated (directory name, RunConfig) of every (clusters, gamma) cell."""
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
        cell = replace(
            config,
            output_dir=str(Path(config.output_dir) / name),
            clustering=replace(config.clustering, n_clusters=k, gamma=float(gamma)),
        )
        cell.validate()
        cells.append((name, cell))
    return cells


def run_sweep(config: RunConfig, returns: ReturnsPanel, cells) -> int:
    """Run the fit once per cell on the same returns; summarize agreement.

    Each cell writes the standard outputs into its own subdirectory;
    sweep.json holds the pairwise matched-label agreement matrix. Returns
    0 only if every cell succeeded, else the first failing cell's code,
    after one stderr line naming that cell. Cells of equal K share one
    memo of starting states, so the states they all start from are
    estimated once.
    """
    summary = []
    labels = []
    failures = []  # (exit code, diagnostic) per failed cell
    memo, memo_k = {}, None
    for name, cell in cells:
        if cell.clustering.n_clusters != memo_k:
            # no start of another K can match, so those are dropped
            memo, memo_k = {}, cell.clustering.n_clusters
        try:
            labels.append(run_fit(cell, returns, memo=memo).labels)
            code = EXIT_OK
        except _HANDLED as exc:
            labels.append(None)
            code, kind = _report_failure(exc, cell, Path(cell.output_dir))
            failures.append((code, f"marketstates: {kind} error: sweep cell {name}: {exc}"))
        k, gamma = cell.clustering.n_clusters, cell.clustering.gamma
        summary.append({"clusters": k, "gamma": gamma, "dir": name, "exit_code": code})

    # agreement against a failed cell is unknown, not fabricated
    agreement = [
        [None if a is None or b is None else label_agreement(a, b) for b in labels]
        for a in labels
    ]
    _write_json(
        Path(config.output_dir) / "sweep.json", {"cells": summary, "agreement": agreement}
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
    parser = _Parser(
        prog="marketstates",
        description="Detect market states in an asset price panel and "
        "emit plot-ready CSV/JSON outputs.",
    )
    parser.add_argument("--input", required=True, help="price panel CSV (date column first)")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--clusters", type=int, default=4, help="number of states (default 4)")
    parser.add_argument("--gamma", type=float, default=100.0, help="switching penalty (default 100)")
    parser.add_argument(
        "--mode", choices=["likelihood", "mahalanobis"], default="likelihood",
        help="scoring mode (mahalanobis drops the log-determinant term)",
    )
    parser.add_argument(
        "--similarity", choices=["signed", "absolute", "squared"], default="signed",
        help="correlation transform used to build each state's graph",
    )
    parser.add_argument("--standardize", action="store_true", help="z-score each asset first")
    parser.add_argument("--max-iter", type=int, default=50, help="fit iteration budget")
    parser.add_argument("--seed", type=int, default=0, help="seed for random restarts")
    parser.add_argument("--min-cluster-size", type=int, default=None,
                        help="minimum points per state (default: assets + 1)")
    parser.add_argument("--ratio", default=None,
                        help="'A,B' state labels or 'auto' for lowest-vs-highest mean return")
    parser.add_argument("--sweep-k", type=_list_of(int, "integers"), default=None,
                        help="comma-separated cluster counts")
    parser.add_argument("--sweep-gamma", type=_list_of(float, "numbers"), default=None,
                        help="comma-separated gamma values")
    return parser


def main(argv=None) -> int:
    config = report_dir = None
    try:
        args = build_parser().parse_args(argv)
        clustering = ClusteringConfig(
            n_clusters=args.clusters,
            gamma=args.gamma,
            scoring_mode=args.mode,
            similarity_mode=args.similarity,
            max_iterations=args.max_iter,
            seed=args.seed,
            min_cluster_size=args.min_cluster_size,
        )
        config = RunConfig(
            input_path=args.input,
            output_dir=args.output,
            clustering=clustering,
            ratio=args.ratio,
            standardize=args.standardize,
        )
        config.validate()
        cells = None
        if args.sweep_k is not None or args.sweep_gamma is not None:
            cells = _sweep_cells(
                config,
                args.sweep_k if args.sweep_k is not None else [args.clusters],
                args.sweep_gamma if args.sweep_gamma is not None else [args.gamma],
            )
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_dir = out_dir
        returns = to_log_returns(load_price_panel(config.input_path))
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

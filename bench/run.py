"""End-to-end and per-layer benchmark of the marketstates CLI.

Usage, from the repository root:

    python3 bench/run.py --workload wide --seed 1 --seconds 35 --trace 0

The run generates a seeded price panel, then runs the CLI on it in a
fresh interpreter per invocation, one after another (closed loop, one
client), as a user runs it. Every invocation's outputs are checked
outside the timed region. --trace 0 times untraced invocations and
prints the end-to-end metrics; --trace 1 alternates untraced and traced
invocations and prints the per-layer metrics from the traced ones. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Work files go to bench/.work and are
removed at the end.

wall_s and setup_s are given at a reference host speed. The shared
host this runs on switches between a fast and a slow speed, about 1.7
times apart, for spells of seconds to minutes, so raw times of the same
code spread by tens of percent between runs. Each worker therefore also
times a fixed calibration kernel (benchmark code and numpy only, see
worker.py) just before and just after main(argv), and every raw time t
is reported as t * CALIBRATION_REF_S / calibration. A change to the
program moves the reported time as it moves the raw time; a change of
host speed moves both the time and the calibration. The raw medians
and quartiles are printed beside the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

import genpanel
import spans
import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

MIN_TIMED = 2  # untraced invocations, so that reruns are compared
MIN_TRACED_MODE = 3  # untraced, traced, untraced
RUN_LIMIT_S = 150.0  # start no invocation that would end later than this
INVOCATION_TIMEOUT_S = 120.0
# The calibration kernel's time at the fast speed of a 2-vCPU VM (Xeon
# host); times are rescaled to the host speed at which it takes this long.
CALIBRATION_REF_S = 0.035


@dataclass(frozen=True)
class Workload:
    """A panel shape plus the CLI flags run on it.

    The flags must name the clusters and gamma (or both sweep lists), so
    that the verifier knows what each fit was asked for. path_seed fixes the regime path of the workload, so every --seed
    asks the fit for the same kind of work; --seed draws the returns.
    """

    name: str
    t_len: int
    n: int
    regimes: int
    mean_segment: int
    path_seed: int
    cli: tuple

    def _flag(self, name: str) -> str:
        return self.cli[self.cli.index(name) + 1]

    @property
    def sweep(self) -> bool:
        return "--sweep-k" in self.cli

    @property
    def standardize(self) -> bool:
        return "--standardize" in self.cli

    def cells(self) -> list:
        """(clusters, gamma) of every fit one invocation runs."""
        if self.sweep:
            ks = [int(k) for k in self._flag("--sweep-k").split(",")]
            gammas = [float(g) for g in self._flag("--sweep-gamma").split(",")]
            return list(product(ks, gammas))
        return [(int(self._flag("--clusters")), float(self._flag("--gamma")))]


# --max-iter fixes the refit count. Without a cap the count moves from 2 to
# 50 with the seed, and wall time with it; on long the fit either stops on
# an objective decrease at iteration 3 or repairs back and forth until any
# larger cap, 1.3 s against 8 s at a cap of 20. wide and sweep stop after
# the first assignment so that a run holds enough timed invocations for a
# steady wall_s; sweep cells of equal K still repeat their estimates
# across gammas.
WORKLOADS = {
    "wide": Workload(
        "wide", 2500, 100, 3, 100, 102,
        ("--clusters", "3", "--gamma", "100", "--max-iter", "1", "--ratio", "auto"),
    ),
    "long": Workload(
        "long", 25000, 12, 4, 500, 4,
        ("--clusters", "4", "--gamma", "50", "--standardize", "--max-iter", "3",
         "--ratio", "auto"),
    ),
    "sweep": Workload(
        "sweep", 2000, 250, 3, 100, 103,
        ("--sweep-k", "2,3,4", "--sweep-gamma", "50,200", "--max-iter", "1",
         "--ratio", "auto"),
    ),
}

# name -> unit; fail_frac is carried by the result's attempted and failed.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "objective_per_day": "log-lik/day",
    "regime_accuracy": "ratio",
}

# name -> (unit, better, the end-to-end metric and workloads it should move).
# "no move" marks fit-trajectory facts that a pure speed change must keep.
PER_LAYER = {
    "ingest.load_price_panel.calls": ("count", "lower", "wall_s on sweep"),
    "ingest.load_price_panel.s": ("s", "lower", "wall_s on sweep, long"),
    "ingest.load_price_panel.mb_per_s": ("MB/s", "higher", "wall_s on sweep, long"),
    "ingest.to_log_returns.s": ("s", "lower", "wall_s on sweep, long"),
    "ingest.standardize_returns.calls": ("count", "lower", "wall_s on long"),
    "ifn.build_tmfg.calls": ("count", "lower", "wall_s on wide, sweep"),
    "ifn.build_tmfg.s": ("s", "lower", "wall_s on wide"),
    "ifn.build_tmfg.ms_per_call": ("ms", "lower", "wall_s on wide"),
    "ifn.logo_precision.self_s": ("s", "lower", "wall_s on sweep"),
    "ifn.logdet_precision.s": ("s", "lower", "wall_s on sweep"),
    "segment.solve_path.s": ("s", "lower", "wall_s on long"),
    "segment.solve_path.us_per_day": ("us", "lower", "wall_s on long"),
    "segment.score_states.calls": ("count", "lower", "wall_s on long, sweep"),
    "segment.score_states.s": ("s", "lower", "wall_s on long, sweep"),
    "segment.estimate_cluster.calls": ("count", "lower", "wall_s on sweep, long"),
    "segment.estimate_cluster.self_s": ("s", "lower", "wall_s on sweep, long"),
    "segment.estimate_cluster.repeat_frac": ("ratio", "lower", "wall_s on sweep, long"),
    "segment.fit.self_s": ("s", "lower", "no move"),
    "segment.fit.iterations": ("count", "lower", "no move"),
    "segment.fit.repairs": ("count", "lower", "no move"),
    "segment.fit.wasted_iter_frac": ("ratio", "lower", "no move"),
    "analysis.likelihood_ratio.self_s": ("s", "lower", "small everywhere"),
    "analysis.suggest_ratio_states.s": ("s", "lower", "small everywhere"),
    "analysis.label_agreement.s": ("s", "lower", "small everywhere"),
    "cli.run_fit.self_s": ("s", "lower", "wall_s on long"),
    "cli.output_bytes": ("bytes", "lower", "wall_s on long"),
    "cli.run_sweep.self_s": ("s", "lower", "wall_s on sweep"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall_s"),
    "trace.missing_layers": ("count", "lower", "layers that ran at the baseline"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def layers_expected(workload: Workload) -> set:
    """Layers that record calls on this workload at the baseline commit."""
    layers = {
        "ingest.load_price_panel", "ingest.to_log_returns", "ifn.build_tmfg",
        "ifn.logo_precision", "ifn.logdet_precision", "segment.solve_path",
        "segment.score_states", "segment.estimate_cluster", "segment.fit",
        "analysis.likelihood_ratio", "analysis.suggest_ratio_states", "cli.run_fit",
    }
    if workload.standardize:
        layers.add("ingest.standardize_returns")
    if workload.sweep:
        layers |= {"cli.run_sweep", "analysis.label_agreement"}
    return layers


def _openblas_threads():
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def run_facts(workload: Workload, seed: int) -> dict:
    import platform

    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "marketstates").glob("*.py"))
        ),
        "workload": workload.name,
        "seed": seed,
    }


def invoke(workload: Workload, csv_path: Path, out_dir: Path, traced: bool) -> dict:
    """Run the CLI once in a fresh worker; returns the worker's result.

    setup_s is the time from the launch until the worker has imported
    marketstates.cli. Both ends read time.time(), the clock that processes
    share. The *_ref_s times are rescaled to the reference host speed:
    setup by the calibration that follows the import, wall by the mean of
    the calibrations around main.
    """
    result_path = out_dir.parent / f"{out_dir.name}.result.json"
    argv = ["--input", str(csv_path), "--output", str(out_dir), *workload.cli]
    launched_at = time.time()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(result_path), "1" if traced else "0",
         "--", *argv],
        env=worker_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=INVOCATION_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result.pop("imported_at") - launched_at
        before, after = result["calib_s"]
        result["setup_ref_s"] = result["setup_s"] * CALIBRATION_REF_S / before
        result["wall_ref_s"] = result["wall_s"] * CALIBRATION_REF_S / ((before + after) / 2)
    else:
        # The program raised out of main(): its operations fail the checks
        # and the invocation gives no timing.
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        result = {"exit_code": proc.returncode, "wall_s": None, "crash": tail[0]}
    result.update(out_dir=out_dir, traced=traced, elapsed_s=elapsed)
    return result


def _report_without_paths(path: Path):
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    report.get("config", {}).pop("output", None)
    return report


def operations(workload: Workload, result: dict) -> list:
    """(name, directory, clusters, gamma, problems) of every fit in one invocation."""
    out_dir = result["out_dir"]
    if not workload.sweep:
        k, gamma = workload.cells()[0]
        code = result["exit_code"]
        return [("fit", out_dir, k, gamma, [f"exit code {code}"] if code else [])]
    cells, problems = verify.read_sweep(out_dir, len(workload.cells()))
    by_cell = {(c.get("clusters"), c.get("gamma")): c for c in cells}
    ops = []
    for k, gamma in workload.cells():
        cell = by_cell.get((k, gamma))
        name = f"K{k}_gamma{gamma:g}"
        if cell is None:
            ops.append((name, out_dir / name, k, gamma, ["missing from sweep.json"] + problems))
            continue
        cell_problems = list(problems)
        if cell.get("exit_code") != 0:
            cell_problems.append(f"exit code {cell.get('exit_code')}")
        ops.append((name, out_dir / str(cell.get("dir")), k, gamma, cell_problems))
    return ops


def check_first(workload: Workload, panel, result: dict) -> list:
    """Fully verify the first invocation; returns one record per operation."""
    records = []
    returns = panel.returns
    for name, op_dir, k, gamma, problems in operations(workload, result):
        if not problems:
            problems = verify.verify_fit(
                op_dir, panel.return_dates, returns, k, gamma, workload.standardize
            )
        record = {"name": name, "dir": op_dir, "problems": problems}
        if not problems:
            labels = np.loadtxt(op_dir / "states.csv", delimiter=",", skiprows=1,
                                usecols=1, dtype=int, ndmin=1)
            report = json.loads((op_dir / "report.json").read_text(encoding="utf-8"))
            record.update(
                digests=verify.digests(op_dir),
                report=report,
                comparable_report=_report_without_paths(op_dir / "report.json"),
                objective_per_day=report["objective"] / labels.size,
                accuracy=verify.matched_accuracy(panel.truth, labels),
            )
        records.append(record)
    return records


def check_rerun(workload: Workload, first: list, result: dict) -> list:
    """Problems per operation of a rerun, against the first invocation."""
    out = []
    for record, (name, op_dir, _, _, problems) in zip(
        first, operations(workload, result)
    ):
        problems = list(problems)
        if not problems and "digests" not in record:
            problems.append("no verified first invocation to compare with")
        elif not problems:
            if verify.digests(op_dir) != record["digests"]:
                problems.append("outputs differ from the first invocation")
            if _report_without_paths(op_dir / "report.json") != record["comparable_report"]:
                problems.append("report.json differs from the first invocation")
        out.append(problems)
    return out


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _sample_loop(workload, csv_path, work, seconds, traced_pattern, minimum, run_start,
                 emit):
    """Invocations in the given traced/untraced rotation until time is up."""
    results = []
    loop_start = time.perf_counter()
    while True:
        i = len(results)
        traced = traced_pattern[i % len(traced_pattern)]
        results.append(invoke(workload, csv_path, work / f"run{i}", traced))
        if "crash" in results[-1]:
            emit(f"# worker for run{i} ended without a result: {results[-1]['crash']}")
        typical = statistics.median(r["elapsed_s"] for r in results)
        now = time.perf_counter()
        if now + typical - run_start > RUN_LIMIT_S:
            break
        if len(results) >= minimum and now + typical - loop_start > seconds:
            break
    return results


def _layer_values(workload: Workload, result: dict) -> dict:
    totals = spans.layer_totals(result["spans"])

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    load_s = get("ingest.load_price_panel", "s")
    tmfg_calls = get("ifn.build_tmfg", "calls")
    estimates = result["estimate_calls"]
    return {
        "ingest.load_price_panel.calls": get("ingest.load_price_panel", "calls"),
        "ingest.load_price_panel.s": load_s,
        "ingest.load_price_panel.mb_per_s": result["csv_bytes"] / 1e6 / load_s if load_s else 0.0,
        "ingest.to_log_returns.s": get("ingest.to_log_returns", "s"),
        "ingest.standardize_returns.calls": get("ingest.standardize_returns", "calls"),
        "ifn.build_tmfg.calls": tmfg_calls,
        "ifn.build_tmfg.s": get("ifn.build_tmfg", "s"),
        "ifn.build_tmfg.ms_per_call": (
            1e3 * get("ifn.build_tmfg", "s") / tmfg_calls if tmfg_calls else 0.0
        ),
        "ifn.logo_precision.self_s": get("ifn.logo_precision", "self_s"),
        "ifn.logdet_precision.s": get("ifn.logdet_precision", "s"),
        "segment.solve_path.s": get("segment.solve_path", "s"),
        "segment.solve_path.us_per_day": (
            1e6 * get("segment.solve_path", "s") / result["solved_days"]
            if result["solved_days"] else 0.0
        ),
        "segment.score_states.calls": get("segment.score_states", "calls"),
        "segment.score_states.s": get("segment.score_states", "s"),
        "segment.estimate_cluster.calls": get("segment.estimate_cluster", "calls"),
        "segment.estimate_cluster.self_s": get("segment.estimate_cluster", "self_s"),
        "segment.estimate_cluster.repeat_frac": (
            result["repeated_estimates"] / estimates if estimates else 0.0
        ),
        "segment.fit.self_s": get("segment.fit", "self_s"),
        "analysis.likelihood_ratio.self_s": get("analysis.likelihood_ratio", "self_s"),
        "analysis.suggest_ratio_states.s": get("analysis.suggest_ratio_states", "s"),
        "analysis.label_agreement.s": get("analysis.label_agreement", "s"),
        "cli.run_fit.self_s": get("cli.run_fit", "self_s"),
        "cli.run_sweep.self_s": get("cli.run_sweep", "self_s"),
        "cli.output_bytes": sum(
            p.stat().st_size for p in result["out_dir"].rglob("*") if p.is_file()
        ),
    }, totals


def _timed(results: list, traced: bool) -> list:
    return [r for r in results if r["traced"] == traced and r["wall_s"] is not None]


def per_layer(workload: Workload, results: list, records: list, emit) -> dict:
    traced = _timed(results, True)
    untraced = _timed(results, False)
    if not traced or not untraced:
        raise BenchError("no traced or no untraced invocation finished")
    per_run = [_layer_values(workload, r) for r in traced]
    metrics = {
        name: statistics.median(values[name] for values, _ in per_run)
        for name in per_run[0][0]
    }
    reports = [r["report"] for r in records if "report" in r]
    iterations = sum(r["iterations"] for r in reports)
    metrics["segment.fit.iterations"] = iterations
    metrics["segment.fit.repairs"] = sum(r["repairs"] for r in reports)
    metrics["segment.fit.wasted_iter_frac"] = (
        sum(r["iterations"] - 1 - r["best_iteration"] for r in reports) / iterations
        if iterations else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(r["wall_ref_s"] for r in traced) - (
        statistics.median(r["wall_ref_s"] for r in untraced)
    )

    totals = per_run[0][1]
    missing = sorted(
        layer for layer in layers_expected(workload) if not totals.get(layer, {}).get("calls")
    )
    metrics["trace.missing_layers"] = len(missing)
    for layer in missing:
        emit(f"# MISSING layer {layer}: no calls recorded; its times below are not measured")
    top = sorted(totals.items(), key=lambda item: -item[1]["self_s"])[:6]
    emit("# largest self times: " + ", ".join(
        f"{name} {entry['self_s']:.3f}s/{entry['calls']}" for name, entry in top
    ))
    emit(f"# traced invocations {len(traced)}, untraced {len(untraced)}")
    for name, (unit, _, moves) in PER_LAYER.items():
        layer = name.rsplit(".", 1)[0]
        shown = "MISSING" if layer in missing else f"{metrics[name]:.6g}"
        emit(f"{name:40s} {shown:>14s} {unit:6s} n={len(traced)}  ({moves})")
    return {name: {"value": metrics[name], "unit": spec[0]} for name, spec in PER_LAYER.items()}


def end_to_end(results: list, records: list, failed: int, attempted: int, emit) -> dict:
    timed = _timed(results, False)
    if not timed:
        raise BenchError("no invocation finished")
    ok = [r for r in records if "report" in r]
    values = {
        "wall_s": [r["wall_ref_s"] for r in timed],
        "setup_s": [r["setup_ref_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["objective_per_day"] = (
        statistics.fmean(r["objective_per_day"] for r in ok) if ok else 0.0
    )
    metrics["regime_accuracy"] = (
        statistics.fmean(r["accuracy"] for r in ok) if ok else 0.0
    )
    emit("# raw wall_s samples: " + " ".join(f"{r['wall_s']:.4f}" for r in timed))
    emit("# raw setup_s samples: " + " ".join(f"{r['setup_s']:.4f}" for r in timed))
    emit("# calibration samples: " + " ".join(
        f"{r['calib_s'][0]:.4f}/{r['calib_s'][1]:.4f}" for r in timed
    ))
    for name in ("wall_s", "setup_s"):
        raw = [r[name] for r in timed]
        q1, q3 = _quartiles(raw)
        emit(f"# raw {name}: median {statistics.median(raw):.6g} q1 {q1:.6g} q3 {q3:.6g} "
             f"n={len(raw)} s (reported at the reference speed, "
             f"calibration {CALIBRATION_REF_S} s)")
    emit(f"{'metric':20s} {'value':>12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s} unit")
    for name, unit in END_TO_END.items():
        if name in values:
            median, (q1, q3) = statistics.median(values[name]), _quartiles(values[name])
        else:
            median = q1 = q3 = metrics[name]
        n = len(values.get(name, ok))
        emit(f"{name:20s} {metrics[name]:12.6g} {median:12.6g} {q1:12.6g} {q3:12.6g} {n:4d} {unit}")
    emit(f"{'fail_frac':20s} {failed / attempted:12.6g} {'':12s} {'':12s} {'':12s} "
         f"{attempted:4d} ratio")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        emit=print) -> dict:
    """One benchmark run; prints the report lines and returns the result object."""
    run_start = time.perf_counter()
    if not (SRC / "marketstates" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        panel = genpanel.generate(
            workload.t_len, workload.n, workload.regimes, workload.mean_segment,
            workload.path_seed, seed,
        )
        csv_path = work / "prices.csv"
        csv_path.write_text(panel.csv_text, encoding="utf-8")
        facts = run_facts(workload, seed)
        emit("# run facts: " + " ".join(f"{k}={v}" for k, v in facts.items()))
        emit(f"# command: marketstates --input prices.csv --output OUT {' '.join(workload.cli)}")

        pattern, minimum = ((False, True), MIN_TRACED_MODE) if trace else ((False,), MIN_TIMED)
        results = _sample_loop(
            workload, csv_path, work, seconds, pattern, minimum, run_start, emit
        )

        records = check_first(workload, panel, results[0])
        problems = [[r["problems"] for r in records]] + [
            check_rerun(workload, records, result) for result in results[1:]
        ]
        attempted = sum(len(per_op) for per_op in problems)
        failed = sum(1 for per_op in problems for found in per_op if found)
        for result, per_op in zip(results, problems):
            for record, found in zip(records, per_op):
                for problem in found:
                    emit(f"# FAILED {record['name']} ({result['out_dir'].name}): {problem}")
        for record in records:
            for name, digest in record.get("digests", {}).items():
                emit(f"# sha256 {record['name']}/{name} {digest}")

        if trace:
            metrics = per_layer(workload, results, records, emit)
        else:
            metrics = end_to_end(results, records, failed, attempted, emit)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

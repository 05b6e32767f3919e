import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panels
from marketstates import analysis, cli, segment
from marketstates.cli import main
from marketstates.ifn import SparsePrecision, build_tmfg, logo_precision
from marketstates.ingest import load_price_panel, standardize_returns, to_log_returns


@pytest.fixture(scope="module")
def price_csv(tmp_path_factory):
    panel, _ = panels.three_regime_panel(seed=0)
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    panels.write_prices_csv(path, panels.returns_to_prices(panel))
    return path


def _run(argv):
    return main([str(a) for a in argv])


def _one_stderr_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    return err


def _assert_one_json_layout(out: Path) -> None:
    """Every JSON file under out is one line of sorted-key JSON plus a newline."""
    paths = sorted(out.rglob("*.json"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", path


def test_fit_writes_all_outputs(price_csv, tmp_path):
    out = tmp_path / "run"
    code = _run(
        ["--input", price_csv, "--output", out, "--clusters", 3,
         "--gamma", 100, "--ratio", "auto", "--seed", 0]
    )
    assert code == 0
    assert {p.name for p in out.iterdir()} == {
        "states.csv", "models.json", "report.json", "ratio.csv"
    }

    states = (out / "states.csv").read_text().splitlines()
    assert states[0] == "date,label"
    assert len(states) == 1 + 600
    date, label = states[1].split(",")
    assert len(date) == 10 and int(label) >= 0

    models = json.loads((out / "models.json").read_text())
    assert models["assets"] == [f"A{i}" for i in range(10)]
    assert [s["label"] for s in models["states"]] == [0, 1, 2]
    state_labels = {int(line.split(",")[1]) for line in states[1:]}
    assert state_labels <= {s["label"] for s in models["states"]}
    for state in models["states"]:
        assert len(state["mu"]) == 10
        assert len(state["diagonal"]) == 10
        assert len(state["edges"]) == 3 * 10 - 6
        assert state["occupancy"] >= 0
    assert sum(s["occupancy"] for s in models["states"]) == 600

    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["iterations"] >= 1
    assert report["config"]["clustering"]["n_clusters"] == 3
    assert report["ratio_states"] and len(report["ratio_states"]) == 2

    ratio = (out / "ratio.csv").read_text().splitlines()
    assert ratio[0] == "date,value"
    assert len(ratio) == 1 + 600
    float(ratio[1].split(",")[1])
    _assert_one_json_layout(out)


def test_occupancy_counts_the_days_in_states_csv(price_csv, tmp_path):
    # one iteration keeps the models of the equal-block start, 150 days
    # each, while the assignment written out gives three states 200 days
    out = tmp_path / "oneiter"
    assert _run(["--input", price_csv, "--output", out, "--max-iter", 1]) == 0
    rows = (out / "states.csv").read_text().splitlines()[1:]
    labels = [int(row.split(",")[1]) for row in rows]
    days = np.bincount(labels, minlength=4).tolist()
    models = json.loads((out / "models.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert [s["occupancy"] for s in models["states"]] == report["occupancy"] == days
    assert sum(days) == len(labels) == 600
    assert days != [150] * 4


def test_states_the_assignment_empties_do_not_fail_the_fit(price_csv, tmp_path):
    # six states on three regimes: the assignment leaves some with fewer
    # than 90 days, and they keep their models instead of failing the fit
    out = tmp_path / "sixstates"
    argv = ["--input", price_csv, "--output", out, "--clusters", 6,
            "--min-cluster-size", 90, "--gamma", 100]
    assert _run(argv) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["repairs"] > 0
    assert sum(report["occupancy"]) == 600


def test_defaults_accepted(price_csv, tmp_path):
    # four states and gamma 100 are the defaults; no ratio requested
    out = tmp_path / "defaults"
    assert _run(["--input", price_csv, "--output", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["clustering"]["n_clusters"] == 4
    assert report["config"]["clustering"]["gamma"] == 100.0
    assert not (out / "ratio.csv").exists()
    # the config block is the run's RunConfig, and each setting appears once
    assert report["config"] == {
        "input": str(price_csv),
        "output": str(out),
        "clustering": asdict(segment.ClusteringConfig()),
        "ratio": None,
        "standardize": False,
    }
    assert not {"standardized", "restarts_used"} & report.keys()


def test_every_flag_is_stored_under_a_config_field():
    # main builds the configs from the namespace by these names, so a flag
    # stored under any other name would set nothing
    args = vars(cli.build_parser().parse_args(["--input", "in.csv", "--output", "out"]))
    run_fields = {f.name for f in fields(cli.RunConfig)} - {"clustering"}
    fit_fields = {f.name for f in fields(segment.ClusteringConfig)}  # restarts via set_defaults
    assert set(args) == run_fields | fit_fields | {"sweep_k", "sweep_gamma"}


@pytest.fixture(scope="module")
def rising_volatility_run(tmp_path_factory):
    """(price CSV, default run's output directory) on a panel of uneven states."""
    root = tmp_path_factory.mktemp("flags")
    path = root / "prices.csv"
    panels.write_prices_csv(path, panels.returns_to_prices(panels.rising_volatility_panel()))
    assert _run(["--input", path, "--output", root / "default"]) == 0
    return path, root / "default"


_FIT_FILES = {"states.csv", "models.json"}


# flags, config key path, parsed value, files of which the run must change
# at least one from the default run's; --seed draws nothing without
# restarts, so it must change none
_FLAG_CASES = [
    (["--clusters", 3], ("clustering", "n_clusters"), 3, _FIT_FILES),
    (["--gamma", 0], ("clustering", "gamma"), 0.0, _FIT_FILES),
    (["--gamma", "1e308"], ("clustering", "gamma"), 1e308, _FIT_FILES),
    (["--similarity", "absolute"], ("clustering", "similarity_mode"), "absolute", _FIT_FILES),
    (["--standardize"], ("standardize",), True, _FIT_FILES),
    (["--max-iter", 1], ("clustering", "max_iterations"), 1, _FIT_FILES),
    (["--seed", 7], ("clustering", "seed"), 7, set()),
    (["--min-cluster-size", 150], ("clustering", "min_cluster_size"), 150, _FIT_FILES),
    (["--ratio", "auto"], ("ratio",), "auto", {"ratio.csv"}),
]


@pytest.mark.parametrize(
    "flags, key, value, changes", _FLAG_CASES, ids=[case[0][0] for case in _FLAG_CASES]
)
def test_every_fit_flag_reaches_the_run(
    rising_volatility_run, tmp_path, flags, key, value, changes
):
    data, default = rising_volatility_run
    out = tmp_path / "flagged"
    assert _run(["--input", data, "--output", out] + flags) == 0
    expected = json.loads((default / "report.json").read_text())["config"]
    expected["output"] = str(out)
    section = expected
    for part in key[:-1]:
        section = section[part]
    assert section[key[-1]] != value
    section[key[-1]] = value
    assert json.loads((out / "report.json").read_text())["config"] == expected

    def read(directory, file_name):
        path = directory / file_name
        return path.read_bytes() if path.exists() else None

    names = ("states.csv", "models.json", "ratio.csv")
    changed = {name for name in names if read(out, name) != read(default, name)}
    assert changed & changes if changes else not changed, changed


def test_explicit_ratio_pair(price_csv, tmp_path):
    out = tmp_path / "pair"
    code = _run(
        ["--input", price_csv, "--output", out, "--clusters", 3, "--ratio", "2,0"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ratio_states"] == [2, 0]


# argv, with {data}, {absent} and {out} standing for the price file, a
# missing file and the output directory; the exit code; the start of the
# one stderr line after its error kind; whether the output directory is made
_IN_OUT = ["--input", "{data}", "--output", "{out}"]
_EXIT_CASES = [
    ([*_IN_OUT, "--clusters", 1], 1, "n_clusters must be an integer >= 2, got 1", False),
    ([*_IN_OUT, "--gamma", -5], 1, "gamma must be finite and >= 0, got -5.0", False),
    ([*_IN_OUT, "--ratio", "nonsense"], 1,
     "--ratio must be 'A,B' or 'auto', got 'nonsense'", False),
    ([*_IN_OUT, "--clusters", 3, "--ratio", "0,7"], 1,
     "--ratio states must be distinct labels in [0, 3)", False),
    # found once the panel is loaded, so the failure report is written
    ([*_IN_OUT, "--min-cluster-size", 400], 1,
     "infeasible: 600 time points cannot hold 4 states of at least 400 points each", True),
    ([*_IN_OUT, "--sweep-gamma", "nan"], 1, "gamma must be finite and >= 0, got nan", False),
    ([*_IN_OUT, "--seed", -1], 1, "seed must be a non-negative integer, got -1", False),
    # one scoring mode, so no flag to choose it
    ([*_IN_OUT, "--mode", "likelihood"], 1, "unrecognized arguments: --mode likelihood", False),
    ([*_IN_OUT, "--bogus"], 1, "unrecognized arguments: --bogus", False),
    # a malformed sweep list is reported by its flag, not by its converter
    ([*_IN_OUT, "--sweep-k", "2,x"], 1,
     "argument --sweep-k: expected comma-separated integers, got '2,x'", False),
    ([*_IN_OUT, "--sweep-gamma", "1,abc"], 1,
     "argument --sweep-gamma: expected comma-separated numbers, got '1,abc'", False),
    ([*_IN_OUT, "--sweep-k", ""], 1, "sweep lists must be non-empty", False),
    (["--input", "", "--output", "{out}"], 1, "input path must not be empty", False),
    ([], 1, "the following arguments are required: --input, --output", False),
    (["--input", "{absent}", "--output", "{out}"], 2, "cannot read {absent}: ", True),
]


@pytest.mark.parametrize("argv, code, fragment, made", _EXIT_CASES)
def test_exit_code_and_one_stderr_line(price_csv, tmp_path, capsys, argv, code, fragment, made):
    out = tmp_path / "x"
    names = {"data": price_csv, "absent": tmp_path / "absent.csv", "out": out}
    assert _run([str(arg).format(**names) for arg in argv]) == code
    line = _one_stderr_line(capsys)
    kind = {1: "config", 2: "data"}[code]
    assert line.startswith(f"marketstates: {kind} error: {fragment.format(**names)}"), line
    assert "_list" not in line, line
    assert out.exists() == made


def test_exit_code_on_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,A,B,C,D\n2020-01-01,1,1,1,1\n2020-01-02,-3,1,1,1\n")
    assert _run(["--input", bad, "--output", tmp_path / "x"]) == 2
    _one_stderr_line(capsys)
    # bytes that are not UTF-8, and a cell beyond the csv module's field limit
    for body in (
        b"date,A,B,C,D\n2020-01-01,1,1,1,1\n\xff\xfe,1,1,1,1\n",
        b"date,A,B,C,D\n2020-01-01," + b"1" * 200_000 + b",1,1,1\n",
    ):
        bad.write_bytes(body)
        assert _run(["--input", bad, "--output", tmp_path / "x"]) == 2
        assert "not a readable UTF-8 CSV file" in _one_stderr_line(capsys)
    # dates that match YYYY-MM-DD but are not on the calendar (numpy reads year 0)
    for date in ("2020-13-45", "2021-02-29", "0000-01-01"):
        bad.write_text(f"date,A,B,C,D\n2020-01-01,1,1,1,1\n{date},2,2,2,2\n")
        assert _run(["--input", bad, "--output", tmp_path / "x"]) == 2
        assert f"line 3: date '{date}' is not a calendar date" in _one_stderr_line(capsys)
    # a row a cell too wide and one a cell too narrow keep the comma total
    bad.write_text(
        "date,AAA,BBB,CCC,DDD\n"
        "2020-01-01,1.0,1.0,10.0,3.0,1\n"
        "2020-01-02,2.0,1.0,10.0,3.0\n"
        "2020-01-03,4.0,1.0,10.0\n"
    )
    assert _run(["--input", bad, "--output", tmp_path / "x"]) == 2
    assert "line 2: expected 5 cells, got 6" in _one_stderr_line(capsys)


def test_exit_code_on_fit_failure(tmp_path, capsys):
    # flat prices leave zero-variance returns: estimation cannot proceed
    flat = tmp_path / "flat.csv"
    rows = ["date,A,B,C,D"]
    for i in range(60):
        rows.append(f"2020-{1 + i // 28:02d}-{1 + i % 28:02d},1.0,2.0,3.0,4.0")
    flat.write_text("\n".join(rows) + "\n")
    out = tmp_path / "x"
    assert _run(["--input", flat, "--output", out, "--clusters", 2]) == 3
    # a start's EstimationError reaches main as a FitError
    assert _one_stderr_line(capsys).startswith("marketstates: fit error: state estimation failed:")
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "error"
    assert report["error_kind"] == "fit"


def test_auto_ratio_with_one_occupied_state_is_a_fit_failure(price_csv, tmp_path, capsys):
    # a prohibitive switching penalty keeps every day in one state
    out = tmp_path / "onestate"
    code = _run(
        ["--input", price_csv, "--output", out, "--clusters", 2, "--gamma", 1e9,
         "--ratio", "auto"]
    )
    assert code == 3
    assert "two occupied states" in _one_stderr_line(capsys)
    assert json.loads((out / "report.json").read_text())["error_kind"] == "fit"
    # the pick runs before the first write, so no states.csv or models.json
    assert {p.name for p in out.iterdir()} == {"report.json"}


@pytest.fixture(scope="module")
def zero_sum_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("zerosum") / "prices.csv"
    panels.write_prices_csv(path, panels.zero_sum_prices())
    return path


def test_auto_ratio_with_states_of_one_mean_is_a_fit_failure(zero_sum_csv, tmp_path, capsys):
    # every day's log-returns sum to 0, so no state is a crisis or a bull
    out = tmp_path / "onemean"
    code = _run(
        ["--input", zero_sum_csv, "--output", out, "--clusters", 3, "--gamma", 0,
         "--ratio", "auto"]
    )
    assert code == 3
    assert "different mean return" in _one_stderr_line(capsys)
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "error" and report["error_kind"] == "fit"


def test_sweep_with_states_of_one_mean_runs_every_cell(zero_sum_csv, tmp_path, capsys):
    out = tmp_path / "onemeansweep"
    code = _run(
        ["--input", zero_sum_csv, "--output", out, "--sweep-k", "2,3", "--sweep-gamma", 0,
         "--ratio", "auto"]
    )
    assert code == 3
    assert _one_stderr_line(capsys).rstrip().endswith("(2 of 2 cells failed)")
    cells = json.loads((out / "sweep.json").read_text())["cells"]
    assert [(cell["clusters"], cell["exit_code"]) for cell in cells] == [(2, 3), (3, 3)]
    for cell in cells:
        assert json.loads((out / cell["dir"] / "report.json").read_text())["error_kind"] == "fit"


def test_unwritable_failure_report_keeps_the_exit_code(tmp_path, capsys):
    # a directory named report.json leaves no room for the failure report
    out = tmp_path / "noreport"
    (out / "report.json").mkdir(parents=True)
    assert _run(["--input", tmp_path / "absent.csv", "--output", out]) == 2
    assert _one_stderr_line(capsys).startswith("marketstates: data error: ")
    assert (out / "report.json").is_dir()


def test_exit_code_on_unwritable_output(price_csv, tmp_path, capsys):
    # a directory where states.csv should go makes the write fail
    out = tmp_path / "blocked"
    (out / "states.csv").mkdir(parents=True)
    assert _run(["--input", price_csv, "--output", out, "--clusters", 3]) == 1
    assert "states.csv" in _one_stderr_line(capsys)
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "error"


def test_failure_report_written_for_data_error(tmp_path, price_csv):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,A,B,C,D\n2020-01-01,1,1,1,1\n2020-01-01,1,1,1,1\n")
    out = tmp_path / "dup"
    assert _run(["--input", bad, "--output", out]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "error"
    assert "duplicate" in report["error"]
    _assert_one_json_layout(out)


def test_sweep_outputs(price_csv, tmp_path):
    out = tmp_path / "sweep"
    code = _run(
        ["--input", price_csv, "--output", out,
         "--sweep-k", "2,3", "--sweep-gamma", "10,100", "--seed", 0]
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"K2_gamma10", "K2_gamma100", "K3_gamma10", "K3_gamma100", "sweep.json"}
    for sub in names - {"sweep.json"}:
        assert (out / sub / "states.csv").exists()
        assert (out / sub / "models.json").exists()

    sweep = json.loads((out / "sweep.json").read_text())
    assert len(sweep["cells"]) == 4
    assert all(cell["exit_code"] == 0 for cell in sweep["cells"])
    matrix = np.array(sweep["agreement"], dtype=float)
    assert matrix.shape == (4, 4)
    assert np.allclose(np.diag(matrix), 1.0)
    assert np.allclose(matrix, matrix.T)
    assert np.all((matrix >= 0.0) & (matrix <= 1.0))
    _assert_one_json_layout(out)


def _assert_files_agree(out: Path) -> None:
    """A fit ends on an assignment, so the files in out agree bit for bit.

    Each state's dense J is rebuilt from models.json and scores the panel
    that report.json names. The ratio_states columns differ by ratio.csv,
    and solve_path on the scores at the run's gamma gives states.csv and
    the report's objective.
    """
    report = json.loads((out / "report.json").read_text())
    config = report["config"]
    returns = to_log_returns(load_price_panel(config["input"]))
    if config["standardize"]:
        returns = standardize_returns(returns)
    columns = []
    for state in json.loads((out / "models.json").read_text())["states"]:
        j = np.diag(state["diagonal"])
        for a, b, value in state["edges"]:
            j[a, b] = j[b, a] = value
        d = returns.values - np.array(state["mu"])
        columns.append(-0.5 * np.einsum("ti,ti->t", d, d @ j) + 0.5 * state["log_det"])
    scores = np.column_stack(columns)

    def rows(name):
        dates, cells = zip(*(line.split(",") for line in (out / name).read_text().splitlines()[1:]))
        assert list(dates) == returns.dates
        return cells

    a, b = report["ratio_states"]
    ratio = np.array([float(cell) for cell in rows("ratio.csv")])
    assert ratio.tobytes() == (scores[:, a] - scores[:, b]).tobytes()
    path = segment.solve_path(scores, config["clustering"]["gamma"])
    assert [int(cell) for cell in rows("states.csv")] == path.labels.tolist()
    assert path.objective == report["objective"]


@pytest.mark.parametrize(
    "family, flags, cell",
    [
        # each refits; the last two keep some models (repairs)
        ("three_regime_panel", ["--clusters", 4, "--gamma", 10], ""),
        ("two_regime_panel", ["--clusters", 3, "--gamma", 0, "--standardize"], ""),
        ("block_regime_panel", ["--clusters", 4, "--gamma", 10], ""),
        # stopped by the budget, not converged
        ("three_regime_panel", ["--clusters", 4, "--gamma", 10, "--max-iter", 1], ""),
        # a sweep cell; at gamma = 0 it refits most
        ("three_regime_panel", ["--sweep-k", 4, "--sweep-gamma", "0,100"], "K4_gamma0"),
    ],
)
def test_output_files_agree_with_each_other(tmp_path, family, flags, cell):
    prices = tmp_path / "prices.csv"
    panels.write_prices_csv(prices, panels.returns_to_prices(getattr(panels, family)()[0]))
    out = tmp_path / "run"
    assert _run(["--input", prices, "--output", out, "--ratio", "auto", *flags]) == 0
    _assert_files_agree(out / cell)


def test_sweep_gamma_only_uses_base_clusters(price_csv, tmp_path):
    out = tmp_path / "gsweep"
    code = _run(
        ["--input", price_csv, "--output", out, "--clusters", 3, "--sweep-gamma", "50,100"]
    )
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"K3_gamma50", "K3_gamma100", "sweep.json"}


def test_sweep_validates_its_cells_not_the_base_config(price_csv, tmp_path, capsys):
    # no cell runs the default --clusters 4, so --ratio 0,5 is checked at K 6 and 7
    base = ["--input", price_csv, "--max-iter", 2]
    out = tmp_path / "ratiosweep"
    assert _run(base + ["--output", out, "--ratio", "0,5", "--sweep-k", "6,7"]) == 0
    cells = json.loads((out / "sweep.json").read_text())["cells"]
    assert [cell["clusters"] for cell in cells] == [6, 7]
    for cell in cells:
        assert json.loads((out / cell["dir"] / "report.json").read_text())["ratio_states"] == [0, 5]
    k1 = ["--output", tmp_path / "k1sweep", "--clusters", 1, "--sweep-k", "2,3"]
    assert _run(base + k1) == 0
    # a single fit runs the base config itself, and the sweep's paths still count
    for extra in (["--output", tmp_path / "one", "--clusters", 1],
                  ["--output", tmp_path / "one", "--ratio", "0,5"],
                  ["--output", "", "--sweep-k", "2,3"]):
        assert _run(base + extra) == 1, extra
        _one_stderr_line(capsys)
    assert not (tmp_path / "one").exists()


def test_sweep_loads_the_panel_once(price_csv, tmp_path, spy):
    calls = spy(cli, "load_price_panel", lambda path: path)
    code = _run(
        ["--input", price_csv, "--output", tmp_path / "once",
         "--sweep-k", "2,3", "--sweep-gamma", "10,100", "--max-iter", 2]
    )
    assert code == 0
    assert len(calls) == 1


def test_sweep_standardizes_the_panel_once(price_csv, tmp_path, spy):
    calls = spy(cli, "standardize_returns", lambda returns: returns.values.shape)
    out = tmp_path / "zsweep"
    code = _run(
        ["--input", price_csv, "--output", out, "--standardize", "--sweep-k", "2,3",
         "--sweep-gamma", "10,100", "--max-iter", 2, "--ratio", "auto"]
    )
    assert code == 0
    assert calls == [(600, 10)]
    report = json.loads((out / "K3_gamma100" / "report.json").read_text())
    assert report["config"]["standardize"] is True


@pytest.fixture(scope="module")
def flat_column_csv(tmp_path_factory):
    # asset A0 never moves, so its returns have no variance to scale by
    panel, _ = panels.three_regime_panel(seed=0, t_len=120, n=5)
    prices = panels.returns_to_prices(panel)
    prices.values[:, 0] = 50.0
    path = tmp_path_factory.mktemp("flat") / "prices.csv"
    panels.write_prices_csv(path, prices)
    return path


@pytest.mark.parametrize(
    "extra", [["--clusters", 2], ["--sweep-k", "2,3", "--sweep-gamma", "10,100"]],
    ids=["fit", "sweep"],
)
def test_standardize_on_a_flat_column_fails_before_any_fit(
    flat_column_csv, tmp_path, capsys, extra
):
    out = tmp_path / "flat"
    assert _run(["--input", flat_column_csv, "--output", out, "--standardize"] + extra) == 2
    assert "A0 has zero return variance" in _one_stderr_line(capsys)
    # no fit ran: the failure report sits in the output directory itself
    assert {p.name for p in out.iterdir()} == {"report.json"}
    report = json.loads((out / "report.json").read_text())
    assert report["error_kind"] == "data" and report["config"]["standardize"] is True


def test_sweep_estimates_each_state_once(price_csv, tmp_path, spy):
    # with one iteration each cell fits its equal-block states, so cells of
    # equal K share all of them: 2 + 3 distinct states, not 2 * (2 + 3)
    calls = spy(segment, "build_tmfg", lambda similarity: similarity.shape)
    # and scored once; the ratio takes its columns from the fit's scores
    scored = spy(segment, "score_states", lambda returns, models, *mode: len(models))
    # one memo serves the whole sweep, one entry per start, and a single
    # fit gets none; its size is taken when the fit is called
    held = spy(cli, "fit", lambda returns, config, *, memo: None if memo is None else len(memo))
    out = tmp_path / "memo"
    code = _run(
        ["--input", price_csv, "--output", out, "--sweep-k", "2,3",
         "--sweep-gamma", "10,100", "--max-iter", 1, "--ratio", "auto"]
    )
    assert code == 0
    assert len(calls) == 5
    assert scored == [2, 3]
    # each cell writes what a fit of its own writes
    single = tmp_path / "single"
    assert _run(
        ["--input", price_csv, "--output", single, "--clusters", 3,
         "--gamma", 100, "--max-iter", 1, "--ratio", "auto"]
    ) == 0
    for name in ("states.csv", "models.json", "ratio.csv"):
        assert (out / "K3_gamma100" / name).read_bytes() == (single / name).read_bytes()
    assert held == [0, 1, 1, 2, None]


def test_sweep_matches_each_pair_of_cells_once(price_csv, tmp_path, spy):
    # agreement is symmetric: 6 cells take 21 matchings, the diagonal
    # included, not one per ordered pair (36)
    calls = spy(cli, "label_agreement", lambda labels_a, labels_b: None)
    out = tmp_path / "pairs"
    code = _run(
        ["--input", price_csv, "--output", out, "--sweep-k", "2,3,4",
         "--sweep-gamma", "50,200", "--max-iter", 1]
    )
    assert code == 0
    assert len(calls) == 21
    # and the table is the one every ordered pair gives
    sweep = json.loads((out / "sweep.json").read_text())
    labels = [
        np.loadtxt(out / cell["dir"] / "states.csv", delimiter=",", skiprows=1, usecols=1,
                   dtype=int)
        for cell in sweep["cells"]
    ]
    agree = analysis.label_agreement
    assert sweep["agreement"] == [[agree(a, b) for b in labels] for a in labels]


def test_sweep_rejects_colliding_cells(price_csv, tmp_path, capsys):
    # 50 and 50.0000001 both print as gamma50
    out = tmp_path / "collide"
    code = _run(
        ["--input", price_csv, "--output", out, "--sweep-k", "2,2",
         "--sweep-gamma", "50,50.0000001"]
    )
    assert code == 1
    assert "K2_gamma50" in _one_stderr_line(capsys)
    assert not out.exists()  # rejected before the panel loads


def test_sweep_on_missing_input_fails_once(tmp_path, capsys):
    out = tmp_path / "nosweep"
    code = _run(
        ["--input", tmp_path / "absent.csv", "--output", out,
         "--sweep-k", "2,3", "--sweep-gamma", "10,100"]
    )
    assert code == 2
    _one_stderr_line(capsys)
    # no cell ran: the failure report sits in the output directory itself
    assert {p.name for p in out.iterdir()} == {"report.json"}
    assert json.loads((out / "report.json").read_text())["error_kind"] == "data"


def test_sweep_propagates_cell_failure(price_csv, tmp_path):
    # K=60 cannot fit 600 rows at 11 points per state minimum
    out = tmp_path / "failsweep"
    code = _run(
        ["--input", price_csv, "--output", out, "--sweep-k", "3,60", "--sweep-gamma", "100"]
    )
    assert code == 1
    sweep = json.loads((out / "sweep.json").read_text())
    codes = {cell["clusters"]: cell["exit_code"] for cell in sweep["cells"]}
    assert codes[3] == 0 and codes[60] == 1
    # agreement against a failed cell is unknown, not fabricated
    matrix = sweep["agreement"]
    assert matrix[0][1] is None and matrix[1][0] is None and matrix[1][1] is None
    assert matrix[0][0] == 1.0


def test_sweep_with_failed_cells_prints_one_line(price_csv, tmp_path, capsys):
    out = tmp_path / "twofail"
    code = _run(
        ["--input", price_csv, "--output", out, "--sweep-k", "60,3,70", "--sweep-gamma", "100"]
    )
    assert code == 1
    line = _one_stderr_line(capsys)
    assert line.startswith("marketstates: config error: sweep cell K60_gamma100: infeasible")
    assert line.rstrip().endswith("(2 of 3 cells failed)")
    for name in ("K60_gamma100", "K70_gamma100"):
        assert json.loads((out / name / "report.json").read_text())["error_kind"] == "config"


_UNWANTED_IMPORTS_SCRIPT = """
import json, sys
import marketstates.cli as cli

# scipy is a test dependency only; numpy.random (about 11 ms to import)
# serves restarts, which the CLI never runs, and numpy.ma (about 16 ms)
# is what a plain np.unique loads
UNWANTED = ("scipy", "numpy.random", "numpy.ma")

def loaded():
    # whole packages: numpy.matrixlib is no part of numpy.ma
    return sorted(m for m in sys.modules if any(m == u or m.startswith(u + ".") for u in UNWANTED))

after_import = loaded()
data, out = sys.argv[1], sys.argv[2]
codes = [
    cli.main(["--input", data, "--output", out + "/sweep", "--sweep-k", "2,3",
              "--sweep-gamma", "10", "--max-iter", "2", "--ratio", "auto"]),
    cli.main(["--input", data, "--output", out + "/fit", "--clusters", "3",
              "--max-iter", "2", "--ratio", "0,1"]),
]
print(json.dumps({"import": after_import, "main": loaded(), "codes": codes}))
"""


def _fresh_python(script: str, *args, check: bool = True):
    """Run script in a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, check=check,
    )


def test_cli_never_imports_scipy_numpy_random_or_numpy_ma(price_csv, tmp_path):
    # pytest's own process has loaded them already, so a fresh one runs it
    done = _fresh_python(_UNWANTED_IMPORTS_SCRIPT, price_csv, tmp_path)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"import": [], "main": [], "codes": [0, 0]}, result


_SCIPY_MISSING_SCRIPT = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from marketstates.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_cli_runs_without_scipy(price_csv, tmp_path):
    # scipy is a test dependency only, so an install without it must fit
    out = tmp_path / "out"
    done = _fresh_python(
        _SCIPY_MISSING_SCRIPT, "--input", price_csv, "--output", out,
        "--clusters", "3", "--ratio", "auto", check=False,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "models.json", "ratio.csv", "report.json", "states.csv",
    ]


def _csr_models_payload(models, occupancy, assets):
    """models.json content as built from each precision's scipy CSR form."""
    states = []
    for model, days in zip(models, occupancy):
        matrix = model.precision.matrix.tocoo()
        edges = sorted(
            (int(i), int(j), float(v))
            for i, j, v in zip(matrix.row, matrix.col, matrix.data)
            if i < j
        )
        states.append(
            {
                "label": int(model.label),
                "mu": [float(v) for v in model.mu],
                "log_det": float(model.precision.log_det),
                "occupancy": days,
                "diagonal": [float(v) for v in model.precision.matrix.diagonal()],
                "edges": [[i, j, v] for i, j, v in edges],
            }
        )
    return {"assets": list(assets), "states": states}


def test_models_json_matches_the_csr_payload(tmp_path):
    rng = np.random.default_rng(5)
    for n in range(4, 61):
        models = []
        # the identity covariance gives exact 0.0 edges, which stay listed
        for k, cov in enumerate((panels.random_spd(rng, n), np.eye(n))):
            graph = build_tmfg(panels.random_similarity(rng, n))
            models.append(
                segment.ClusterModel(
                    label=k, mu=rng.normal(size=n), precision=logo_precision(cov, graph),
                    graph=graph, member_count=k + n,
                )
            )
        assert 0.0 in models[1].precision.sums
        assets = [f"A{i}" for i in range(n)]
        occupancy = [n, 0]  # days held in states.csv, not the estimation days
        path = tmp_path / "models.json"
        cli._write_json(path, cli._models_payload(models, occupancy, assets))
        expected = _csr_models_payload(models, occupancy, assets)
        assert path.read_bytes() == (json.dumps(expected, sort_keys=True) + "\n").encode(), n


# floats whose JSON text is easy to get wrong, and names json escapes
_JSON_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-300, 1e16, 5e-324, -1e22, 1.7976931348623157e308, 0.1,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(),
)
_JSON_NAMES = st.one_of(
    st.sampled_from(["é", "日経", 'say "hi"', "back\\slash", "tab\t", "\u2028", "😀", "\x7f"]),
    st.text(min_size=1, max_size=6),
)


@st.composite
def _models_file(draw):
    """(models, occupancy, assets, the json payload they stand for)."""
    n = draw(st.integers(1, 6))
    assets = draw(st.lists(_JSON_NAMES, min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    models, occupancy, states = [], [], []
    for k in range(draw(st.integers(1, 3))):
        mu = draw(st.lists(_JSON_FLOATS, min_size=n, max_size=n))
        diagonal = draw(st.lists(_JSON_FLOATS, min_size=n, max_size=n))
        edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
        weights = draw(st.lists(_JSON_FLOATS, min_size=len(edges), max_size=len(edges)))
        log_det = draw(_JSON_FLOATS)
        days = draw(st.integers(0, 10**6))
        entries = sorted([((i, i), v) for i, v in enumerate(diagonal)]
                         + [(edge, v) for edge, v in zip(edges, weights)])
        precision = SparsePrecision(
            n=n, upper=np.array([i * n + j for (i, j), _ in entries], dtype=np.int64),
            sums=np.array([v for _, v in entries]), log_det=log_det,
        )
        models.append(segment.ClusterModel(k, np.array(mu), precision, None, 0))
        occupancy.append(days)
        states.append({
            "label": k, "mu": mu, "log_det": log_det, "occupancy": days,
            "diagonal": diagonal, "edges": [[i, j, v] for (i, j), v in zip(edges, weights)],
        })
    return models, occupancy, assets, {"assets": assets, "states": states}


@settings(max_examples=200, deadline=None)
@given(drawn=_models_file())
def test_models_payload_writes_as_sorted_key_json(drawn):
    models, occupancy, assets, payload = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "models.json"
        cli._write_json(path, cli._models_payload(models, occupancy, assets))
        written = path.read_bytes()
    assert written == (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="json has no C encoder")
def test_json_files_are_written_by_the_c_encoder(tmp_path, monkeypatch):
    # json.dump(fh) and indent= take json's pure-Python encoder, several
    # times slower on a sweep's models.json
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    n = 5
    graph = build_tmfg(panels.random_similarity(np.random.default_rng(0), n))
    model = segment.ClusterModel(
        label=0, mu=np.zeros(n), precision=logo_precision(np.eye(n), graph),
        graph=graph, member_count=n + 1,
    )
    payload = cli._models_payload([model], [n], [f"A{i}" for i in range(n)])
    cli._write_json(tmp_path / "models.json", payload)
    assert json.loads((tmp_path / "models.json").read_text()) == json.loads(json.dumps(payload))


def _csv_per_line(header, dates, cells) -> bytes:
    """The reference writer: one write per line, each cell formatted alone."""
    out = io.StringIO()
    out.write(f"{header}\n")
    for date, cell in zip(dates, cells):
        out.write(f"{date},{cell}\n")
    return out.getvalue().encode("utf-8")


_FLOAT_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 1e22, 1e23, 3.0, -7.0,
                2.0**53, 0.1, 1 / 3, float("nan"), float("inf"), -float("inf")]


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 12),
            st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats(),
                      st.integers(-(2**60), 2**60).map(float)),
        ),
        max_size=40,
    ),
)
def test_csv_writer_matches_a_per_line_writer(data):
    # a label's str and a float's repr are the cells a per-line f-string wrote
    dates = [str(np.datetime64("1999-12-30") + 7 * t) for t in range(len(data))]
    labels = [label for label, _ in data]
    values = np.array([value for _, value in data], dtype=float).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        states, ratio = Path(tmp) / "states.csv", Path(tmp) / "ratio.csv"
        cli._write_csv(states, "date,label", dates, map(str, labels))
        cli._write_csv(ratio, "date,value", dates, map(repr, values))
        assert states.read_bytes() == _csv_per_line("date,label", dates, labels)
        assert ratio.read_bytes() == _csv_per_line("date,value", dates, values)


def test_fit_writes_the_per_line_csv_text(price_csv, tmp_path, monkeypatch):
    # every one of twelve labels, two-digit ones too, and floats whose repr
    # is short, subnormal, exponent-form or extreme reach the files as the
    # per-line f-string wrote them
    floats = [-0.0, 5e-324, 1e-05, 0.1, 1 / 3, 1e16, -1.7976931348623157e308]
    fitted, ratio = [], cli.likelihood_ratio

    def fit(*args, **kwargs):
        fitted.append(segment.fit(*args, **kwargs))
        return fitted[-1]

    def edge_ratio(*args, **kwargs):
        series = ratio(*args, **kwargs)
        series.values = np.resize(floats, len(series.dates))
        return series

    monkeypatch.setattr(cli, "fit", fit)
    monkeypatch.setattr(cli, "likelihood_ratio", edge_ratio)
    out = tmp_path / "run"
    argv = ["--input", price_csv, "--output", out, "--clusters", 12, "--gamma", 0,
            "--max-iter", 1, "--ratio", "0,11"]
    assert _run(argv) == 0
    _, path, _ = fitted[0]
    labels = path.labels.tolist()
    assert set(labels) == set(range(12))
    dates = to_log_returns(load_price_panel(price_csv)).dates
    assert (out / "states.csv").read_bytes() == _csv_per_line("date,label", dates, labels)
    values = np.resize(floats, len(dates)).tolist()
    assert (out / "ratio.csv").read_bytes() == _csv_per_line("date,value", dates, values)


def test_ratio_takes_the_fit_scores(price_csv, tmp_path, monkeypatch):
    # the ratio is the difference of two of the fit's own score columns:
    # analysis scores nothing, and the file is the one a rescoring writes
    def no_rescoring(*args, **kwargs):
        raise AssertionError("the ratio states were scored a second time")

    monkeypatch.setattr(analysis, "score_states", no_rescoring)
    base = ["--input", price_csv, "--clusters", 4, "--ratio", "auto"]
    assert _run(base + ["--output", tmp_path / "once"]) == 0
    monkeypatch.undo()
    ratio = cli.likelihood_ratio

    def rescoring(returns, models, state_a, state_b, scores):
        return ratio(returns, models, state_a, state_b)

    monkeypatch.setattr(cli, "likelihood_ratio", rescoring)
    assert _run(base + ["--output", tmp_path / "rescored"]) == 0
    once, rescored = (tmp_path / name / "ratio.csv" for name in ("once", "rescored"))
    assert once.read_bytes() == rescored.read_bytes()


# --- the exit-code contract under generated inputs

_BAD_CELLS = ("x", "", "-1", "0", "inf", "nan", " 3 ")
_BAD_DATES = ("2020-1-01", "2021-02-29", "20200101", "2020-13-45", "")


@st.composite
def _price_csv(draw):
    """CSV text of a tiny price panel, with the odd bad header, date or cell."""
    n = draw(st.integers(4, 6))
    # a handful of rows fails early; 30 to 40 leave room for some fits
    t_len = draw(st.one_of(st.integers(0, 3), st.integers(4, 40), st.integers(30, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    names = [f"A{i}" for i in range(n)]
    # each flaw is drawn rarely, so that most panels load and fit
    header = draw(st.sampled_from(["date"] * 4 + ["Date", "\ufeffdate", "time"]))
    flaw = draw(st.sampled_from([None] * 6 + ["empty name", "duplicate name", "short header"]))
    if flaw == "empty name":
        names[draw(st.integers(0, n - 1))] = " "
    elif flaw == "duplicate name":
        names[-1] = names[0]
    elif flaw == "short header":
        names = names[:-1]
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, size=(t_len, n)), axis=0))
    if t_len and not draw(st.integers(0, 4)):
        prices[:, draw(st.integers(0, n - 1))] = 7.0  # a flat column
    cells = [[repr(float(v)) for v in row] for row in prices]
    dates = [str(np.datetime64("2020-01-01") + i) for i in range(t_len)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if t_len else 0):
        t, i = draw(st.integers(0, t_len - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["cell", "date", "duplicate date", "row width"]))
        if kind == "cell":
            cells[t][i] = draw(st.sampled_from(_BAD_CELLS))
        elif kind == "date":
            dates[t] = draw(st.sampled_from(_BAD_DATES))
        elif kind == "duplicate date":
            dates[t] = dates[i % t_len]
        else:
            cells[t] = cells[t] + ["1"]  # one cell too many
    lines = [",".join([header] + names)]
    lines += [",".join([d] + row) for d, row in zip(dates, cells)]
    if draw(st.booleans()):
        lines[1:] = draw(st.permutations(lines[1:]))
    return "\n".join(lines) + "\n"


def _flag(name, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


# valid settings, some of them infeasible for the panel, then at most one
# invalid flag; argparse keeps the last value of a repeated flag
_ARGV = st.tuples(
    _flag("--clusters", ["2", "3"]),
    _flag("--gamma", ["0", "5", "100", "1e9", "1e308"]),
    _flag("--similarity", ["signed", "absolute", "squared"]),
    st.sampled_from([[], ["--standardize"]]),
    _flag("--max-iter", ["1", "3"]),
    _flag("--seed", ["0", "7"]),
    _flag("--min-cluster-size", ["5", "8", "400"]),
    _flag("--ratio", ["auto", "0,1", "1,0"]),
    _flag("--sweep-k", ["2,3", "2"]),
    _flag("--sweep-gamma", ["5,50", "1"]),
    st.sampled_from(
        [[]] * 32
        + [["--clusters", "1"], ["--clusters", "x"], ["--gamma", "-1"], ["--gamma", "nan"],
           ["--mode", "other"], ["--max-iter", "0"], ["--seed", "-1"],
           ["--min-cluster-size", "4"], ["--ratio", "0,0"], ["--ratio", "0,9"],
           ["--ratio", "x"], ["--sweep-k", ""], ["--sweep-k", "2,x"],
           ["--sweep-gamma", "nan"], ["--sweep-gamma", "1,abc"], ["--bogus"]]
    ),
).map(lambda groups: [a for group in groups for a in group])


@settings(max_examples=150, deadline=None)
@given(body=_price_csv(), flags=_ARGV)
def test_every_input_gets_an_exit_code_and_one_line(body, flags):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "prices.csv", Path(tmp) / "out"
        data.write_text(body, encoding="utf-8")
        # outside pytest a warning prints to stderr, so it counts as a line
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--input", str(data), "--output", str(out)] + flags)
        reports = [json.loads(r.read_text())["status"] for r in out.rglob("report.json")]
    assert code in (0, 1, 2, 3), code
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    if code == 0:
        assert lines == [] and reports and set(reports) == {"ok"}, (lines, reports)
    else:
        assert len(lines) == 1 and lines[0].startswith("marketstates: "), lines
    if code in (2, 3):
        # past validation, a data or fit failure always leaves its report
        assert "error" in reports, reports

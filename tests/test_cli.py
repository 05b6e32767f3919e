import json
import subprocess
import sys

import numpy as np
import pytest

import panels
from marketstates import cli
from marketstates.cli import main


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
    assert report["config"]["clusters"] == 3
    assert report["ratio_states"] and len(report["ratio_states"]) == 2

    ratio = (out / "ratio.csv").read_text().splitlines()
    assert ratio[0] == "date,value"
    assert len(ratio) == 1 + 600
    float(ratio[1].split(",")[1])


def test_defaults_accepted(price_csv, tmp_path):
    # four states and gamma 100 are the defaults; no ratio requested
    out = tmp_path / "defaults"
    assert _run(["--input", price_csv, "--output", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["clusters"] == 4
    assert report["config"]["gamma"] == 100.0
    assert not (out / "ratio.csv").exists()


def test_explicit_ratio_pair(price_csv, tmp_path):
    out = tmp_path / "pair"
    code = _run(
        ["--input", price_csv, "--output", out, "--clusters", 3, "--ratio", "2,0"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ratio_states"] == [2, 0]


def test_cli_runs_are_byte_identical(price_csv, tmp_path):
    # full process isolation, same as two operators running the tool
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cmd = [
            sys.executable, "-m", "marketstates.cli",
            "--input", str(price_csv), "--output", str(out),
            "--clusters", "3", "--gamma", "100", "--ratio", "auto", "--seed", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("states.csv", "models.json", "ratio.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # report differs only in the embedded output path
    a = json.loads((outs[0] / "report.json").read_text())
    b = json.loads((outs[1] / "report.json").read_text())
    a["config"]["output"] = b["config"]["output"] = ""
    assert a == b


def test_exit_code_on_bad_config(price_csv, tmp_path, capsys):
    base = ["--input", price_csv, "--output", tmp_path / "x"]
    for extra in (
        ["--clusters", 1],
        ["--gamma", -5],
        ["--ratio", "nonsense"],
        ["--clusters", 3, "--ratio", "0,7"],
        ["--min-cluster-size", 400],
        ["--sweep-gamma", "nan"],
    ):
        assert _run(base + extra) == 1, extra
        _one_stderr_line(capsys)
    # a malformed sweep list is reported by its flag, not by its converter
    for flag, value in (("--sweep-k", "2,x"), ("--sweep-gamma", "1,abc")):
        assert _run(base + [flag, value]) == 1, flag
        line = _one_stderr_line(capsys)
        assert f"argument {flag}: expected comma-separated" in line, line
        assert "_list" not in line, line


def test_exit_code_on_unknown_flag(price_csv, tmp_path, capsys):
    assert _run(["--input", price_csv, "--output", tmp_path / "x", "--bogus"]) == 1
    assert "config error" in _one_stderr_line(capsys)


def test_exit_code_on_missing_input(tmp_path, capsys):
    assert _run(["--input", tmp_path / "absent.csv", "--output", tmp_path / "x"]) == 2
    _one_stderr_line(capsys)


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


def test_exit_code_on_fit_failure(tmp_path, capsys):
    # flat prices leave zero-variance returns: estimation cannot proceed
    flat = tmp_path / "flat.csv"
    rows = ["date,A,B,C,D"]
    for i in range(60):
        rows.append(f"2020-{1 + i // 28:02d}-{1 + i % 28:02d},1.0,2.0,3.0,4.0")
    flat.write_text("\n".join(rows) + "\n")
    out = tmp_path / "x"
    assert _run(["--input", flat, "--output", out, "--clusters", 2]) == 3
    _one_stderr_line(capsys)
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


def test_sweep_gamma_only_uses_base_clusters(price_csv, tmp_path):
    out = tmp_path / "gsweep"
    code = _run(
        ["--input", price_csv, "--output", out, "--clusters", 3, "--sweep-gamma", "50,100"]
    )
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"K3_gamma50", "K3_gamma100", "sweep.json"}


def test_sweep_rejects_empty_list(price_csv, tmp_path, capsys):
    assert _run(
        ["--input", price_csv, "--output", tmp_path / "x", "--sweep-k", ""]
    ) == 1
    _one_stderr_line(capsys)


def test_sweep_loads_the_panel_once(price_csv, tmp_path, monkeypatch):
    calls = []
    load = cli.load_price_panel

    def counting_load(path, *args, **kwargs):
        calls.append(path)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(cli, "load_price_panel", counting_load)
    code = _run(
        ["--input", price_csv, "--output", tmp_path / "once",
         "--sweep-k", "2,3", "--sweep-gamma", "10,100", "--max-iter", 2]
    )
    assert code == 0
    assert len(calls) == 1


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
    assert matrix[0][1] is None and matrix[1][1] is None
    assert matrix[0][0] == 1.0


def test_missing_required_flags(capsys):
    assert main([]) == 1
    _one_stderr_line(capsys)

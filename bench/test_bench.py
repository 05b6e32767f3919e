"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest bench``. A run on a
tiny panel must print every metric that BENCHMARK.json names, and the
verifier must reject corrupted outputs.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import genpanel  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_FIT = run.Workload(
    "tiny", 300, 8, 2, 60, 1, ("--clusters", "2", "--gamma", "5", "--ratio", "auto")
)
STANDARDIZED = run.Workload(
    "standardized", 300, 8, 2, 60, 1,
    ("--clusters", "2", "--gamma", "5", "--standardize", "--ratio", "auto"),
)
TINY_SWEEP = run.Workload(
    "tiny-sweep", 300, 8, 2, 60, 1,
    ("--sweep-k", "2,3", "--sweep-gamma", "5", "--max-iter", "3", "--ratio", "auto"),
)


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in run.PER_LAYER.items()
    ]


@pytest.mark.parametrize(
    "workload, trace, section",
    [(TINY_FIT, False, "end_to_end"), (TINY_FIT, True, "per_layer"),
     (TINY_SWEEP, False, "end_to_end")],
    ids=["fit", "fit-traced", "sweep"],
)
def test_tiny_run_prints_every_metric(workload, trace, section):
    lines = []
    result = run.run(workload, seed=3, seconds=0, trace=trace, emit=lines.append)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2 * len(workload.cells())
    names = [m["name"] for m in SPEC[section]]
    assert list(result["metrics"]) == names
    text = "\n".join(lines)
    for name in names + ([] if trace else ["fail_frac"]):
        assert f"\n{name} " in "\n" + text, name
    assert not any(line.startswith("# MISSING") for line in lines)
    json.dumps(result, allow_nan=False)


@pytest.fixture
def fitted(tmp_path):
    """A tiny panel and the outputs of one CLI fit on it."""
    from marketstates.cli import main

    panel = genpanel.generate(300, 8, 2, 60, 1, seed=5)
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text(panel.csv_text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--input", str(csv_path), "--output", str(out), *STANDARDIZED.cli]) == 0
    return panel, out


def _problems(panel, out):
    return verify.verify_fit(out, panel.return_dates, panel.returns, 2, 5.0,
                             standardized=True)


def test_verifier_accepts_the_program_output(fitted):
    assert _problems(*fitted) == []


def test_verifier_flags_a_flipped_label(fitted):
    panel, out = fitted
    path = out / "states.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    date, label = lines[150].split(",")
    lines[150] = f"{date},{1 - int(label)}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("objective" in p for p in _problems(panel, out))


def test_verifier_flags_a_perturbed_edge(fitted):
    panel, out = fitted
    path = out / "models.json"
    before = verify.digests(out)
    models = json.loads(path.read_text(encoding="utf-8"))
    models["states"][0]["edges"][0][2] += 1e-3
    path.write_text(json.dumps(models), encoding="utf-8")
    assert any("objective" in p for p in _problems(panel, out))
    assert verify.digests(out)["models.json"] != before["models.json"]


def test_rerun_check_flags_outputs_that_differ(fitted):
    panel, out = fitted
    rerun = out.parent / "rerun"
    shutil.copytree(out, rerun)
    first = run.check_first(STANDARDIZED, panel, {"out_dir": out, "exit_code": 0})
    assert first[0]["problems"] == []
    assert run.check_rerun(STANDARDIZED, first, {"out_dir": rerun, "exit_code": 0}) == [[]]
    with open(rerun / "ratio.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert run.check_rerun(STANDARDIZED, first, {"out_dir": rerun, "exit_code": 0}) == [
        ["outputs differ from the first invocation"]
    ]


def test_verifier_flags_a_missing_file(fitted):
    panel, out = fitted
    (out / "ratio.csv").unlink()
    assert _problems(panel, out) == ["out: missing ratio.csv"]


def test_generator_is_seeded():
    a = genpanel.generate(200, 6, 3, 40, 2, seed=9)
    b = genpanel.generate(200, 6, 3, 40, 2, seed=9)
    c = genpanel.generate(200, 6, 3, 40, 2, seed=10)
    assert a.csv_text == b.csv_text and a.csv_text != c.csv_text
    assert (a.truth == c.truth).all()  # the path seed fixes the regime path
    assert sorted(set(a.truth.tolist())) == [0, 1, 2]

"""Self-tests of the benchmark.

Run from the root of a checkout: ``python3 -m pytest perfbench/test_perfbench.py``.
They run real ops (about a minute in all).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from spans import self_times  # noqa: E402


def _run(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=HERE.parent, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice() -> list[dict]:
    args = ("--workload", "dense_sample", "--seed", "1", "--seconds", "0", "--trace", "1")
    return [_run(*args) for _ in range(2)]


def test_counts_repeat_across_traced_runs(traced_twice):
    first, second = (
        {n: m["value"] for n, m in doc["metrics"].items() if m["unit"] == "count"}
        for doc in traced_twice
    )
    assert first["integrator.steps"] == 5000 and first["diagnostics.records"] == 5001
    assert first == second


def test_every_benchmark_metric_is_printed_with_its_unit(traced_twice):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    untraced = _run("--workload", "atom_oracle", "--seed", "1", "--seconds", "0", "--trace", "0")
    for section, doc in (("end_to_end", untraced), ("per_layer", traced_twice[0])):
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        assert {n: m["unit"] for n, m in doc["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[section]
        }
        assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())


def test_corrupted_reference_fails_the_op(tmp_path, monkeypatch, capsys):
    references = json.loads(bench.REFERENCES.read_text())
    digest = references["dense_sample"]["op"]["summary.json"]
    references["dense_sample"]["op"]["summary.json"] = ("1" if digest[0] == "0" else "0") + digest[1:]
    corrupted = tmp_path / "references.json"
    corrupted.write_text(json.dumps(references))
    monkeypatch.setattr(bench, "REFERENCES", corrupted)

    assert bench.main(["--workload", "dense_sample", "--seed", "0", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == bench.MIN_OPS  # every op, and none of the set-ups


def test_self_time_subtracts_what_children_cover():
    spans = [
        ["main", "cli", 0, 100, -1, None],
        ["run", "integrator", 10, 60, 0, None],
        ["make_record", "diagnostics", 20, 30, 1, None],
        ["make_record", "diagnostics", 40, 45, 1, None],
        ["load_scenario", "cli", 70, 80, 0, None],
    ]
    assert self_times(spans) == [40, 35, 10, 5, 10]

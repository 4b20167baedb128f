"""Smoke test of the benchmark harness at reduced size.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "workload, trace, expected",
    [("mesh", 0, run.END_TO_END), ("mesh", 1, tracing.PER_LAYER)],
)
def test_every_metric_is_printed_with_its_unit(workload, trace, expected):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    for name, unit in expected:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name


def test_wrong_oracle_value_is_a_failure(tmp_path, monkeypatch):
    from entropydiff import cli

    cmd = workloads.NORM_CATENOID
    rec = worker.Runner(cli, [cmd], tmp_path).run_command(cmd)
    assert rec["error"] is None
    assert run.count_failures([rec], run.check_outputs([cmd], tmp_path)) == []
    monkeypatch.setattr(workloads, "NORM_EXACT", workloads.NORM_EXACT * (1.0 + 1e-3))
    failed = run.count_failures([rec], run.check_outputs([cmd], tmp_path))
    assert len(failed) == 1 and "differs" in failed[0]["error"]


def test_differing_output_bytes_are_a_failure():
    verdicts = {"analyze": ("a", None)}
    first = {"key": "analyze", "digest": "a", "error": None}
    again = {**first, "digest": "b"}
    assert [r["digest"] for r in run.count_failures([first, first, again], verdicts)] == ["b"]


def test_times_are_put_at_reference_speed():
    # measured while the machine ran at half the reference speed
    passes = [{"norm.ct": [2.0, 2.0 * run.REFERENCE_S]}, {"norm.ct": [2.4, 2.0 * run.REFERENCE_S]},
              {"norm.ct": [3.0, 2.0 * run.REFERENCE_S]}]
    assert run.pass_seconds(passes, raw=True) == 2.4
    assert run.pass_seconds(passes) == pytest.approx(1.2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench(tmp_path, "norm", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

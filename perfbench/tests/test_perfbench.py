"""The benchmark's own tests: smoke runs, names, span arithmetic, gates.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import replay, run  # noqa: E402
from perfbench.common import TINY, Outcome  # noqa: E402
from perfbench.spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, workload, trace, seed=3):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace)],
        sizing=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(capsys, workload, trace):
    code, result, lines = _run(capsys, workload, trace)
    assert code == 0, "\n".join(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    rows = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [row["name"] for row in rows]
    for row in rows:
        entry = result["metrics"][row["name"]]
        assert entry["unit"] == row["unit"]
        assert isinstance(entry["value"], float)
        assert f"{row['name']} = " in "\n".join(lines)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_corrupted_total_fails_the_run(capsys, monkeypatch):
    """A replay whose totals differ from the probed run's trips the gate."""
    honest = replay.plain_job
    monkeypatch.setattr(
        replay, "plain_job", lambda trace, disk, algo: honest(trace, disk + 1, algo)
    )
    code, result, lines = _run(capsys, "replay-probed", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any("CHECK FAILED probed-equals-plain" in line for line in lines)


def test_outcome_counts_checks_and_operations():
    outcome = Outcome()
    assert outcome.check("ok", True)
    assert not outcome.check("bad", False, "detail")
    outcome.ops(10, 2)
    assert (outcome.attempted, outcome.failed) == (12, 3)
    assert outcome.notes == ["CHECK FAILED bad: detail"]


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3];  root > c [6, 9]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 5.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 3.0, 1.0, 3.0]


def test_tracer_layers_add_up_to_the_root():
    tracer = Tracer("test")

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_leaf = tracer.wrap(leaf, "leaf", "core")
    wrapped_middle = tracer.wrap(middle, "middle", "sim.engine")
    nested_same_group = tracer.wrap(wrapped_middle, "outer", "sim.engine")
    with tracer.span("job", "bench") as root:
        nested_same_group()
    per_layer = tracer.layer_self(root)
    assert set(per_layer) == {"bench", "sim", "core"}
    assert sum(per_layer.values()) == pytest.approx(tracer.duration(root), abs=1e-9)
    assert per_layer["core"] >= 0.004
    # the inner same-group call was folded into the outer span
    assert tracer.names.count("outer") == 1 and "middle" not in tracer.names
    assert tracer.collapsed == {"middle": 1}


def test_install_and_uninstall_restore_the_program():
    from repro.sim.runner import run_matrix
    from repro.sim.metrics import MetricsCollector
    import repro.sim.runner as runner

    original_record = MetricsCollector.__dict__["record_packed"]
    tracer = Tracer("test")
    from perfbench import layers

    layers.install(tracer)
    try:
        assert runner.run_matrix is not run_matrix
        assert MetricsCollector.__dict__["record_packed"] is not original_record
    finally:
        tracer.uninstall()
    assert runner.run_matrix is run_matrix
    assert MetricsCollector.__dict__["record_packed"] is original_record


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

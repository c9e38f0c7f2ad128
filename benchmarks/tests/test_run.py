"""Tests of the benchmark itself, in smoke mode (a few iterations and ops).

Run with `python3 -m pytest benchmarks/tests -q` from the repository root.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "60", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert any(re.fullmatch(r"fingerprint [0-9a-f]{64}", line) for line in lines)


def test_fingerprint_is_stable_and_independent_of_tracing():
    runs = [smoke("plan-sparse", trace) for trace in (0, 1, 0)]
    prints = {line for proc in runs for line in proc.stdout.splitlines()
              if line.startswith("fingerprint ")}
    assert len(prints) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = smoke("plan-sparse", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- the correctness checks catch a corrupted run directory ----------------------


@pytest.fixture(scope="module")
def wp():
    return bench.load_program()


def make(wp, name, tmp_path):
    workload = bench.make_workload(name, wp, tmp_path, bench.FEW_ITERATIONS,
                                   bench.Counters())
    workload.setup(0)
    return workload


def truncate(run_dir: Path) -> None:
    path = run_dir / "tracelog.json"
    path.write_text(path.read_text()[: len(path.read_text()) // 2])


def all_collisions(run_dir: Path) -> None:
    """Valid JSON and a valid model, but every trace now ends in a collision."""
    path = run_dir / "tracelog.json"
    log = json.loads(path.read_text())
    for rec in log:
        rec.update(outcome="collision", collider="v1", reward=-100.0,
                   components={c: (1.0 if c == "collision" else None)
                               for c in rec["components"]})
    path.write_text(json.dumps(log))


@pytest.mark.parametrize("corrupt", [truncate, all_collisions])
def test_explain_replay_fails_on_corrupted_run_directory(wp, tmp_path, corrupt):
    workload = make(wp, "explain-replay", tmp_path)
    corrupt(tmp_path / "s1")
    ops = sum(len(cycle) for cycle in workload.cycles)
    on_s1 = [i for i in range(ops)
             if workload.query(i)[0].name == "s1" and workload.query(i)[2] is not None]
    assert on_s1
    for index in on_s1:
        with pytest.raises((bench.CheckFailure, wp.errors.WhyplanError, ValueError)):
            workload.run_op(index)
    phase = bench.timed_loop(workload, 60.0, ops)
    assert phase.failed >= len(on_s1)


def test_plan_op_fails_when_the_saved_run_directory_is_corrupted(wp, tmp_path, monkeypatch):
    workload = make(wp, "plan-sparse", tmp_path)
    save_run = wp.pipeline.save_run

    def corrupting_save_run(out_dir, scenario_path, pipe):
        save_run(out_dir, scenario_path, pipe)
        all_collisions(Path(out_dir))

    monkeypatch.setattr(wp.pipeline, "save_run", corrupting_save_run)
    with pytest.raises(bench.CheckFailure, match="explains differently"):
        workload.run_op(1)


def test_repeat_at_the_same_seed_is_checked(wp, tmp_path):
    workload = make(wp, "plan-dense", tmp_path)
    workload.run_op(0)
    workload.expected[0] = "0" * 64
    with pytest.raises(bench.CheckFailure, match="same seed"):
        workload.run_op(0)

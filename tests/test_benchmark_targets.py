"""The benchmark times each layer by rebinding library names (`trace_targets`
in `benchmarks/run.py`); a name it cannot find is skipped there, so a rename
in the library must fail here instead of silently dropping a span."""

import importlib.util
import os

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


def load_benchmark(monkeypatch):
    """`benchmarks/run.py` as a module, loaded by path and left unedited."""
    monkeypatch.syspath_prepend(BENCH_DIR)  # run.py imports its sibling tracing.py
    spec = importlib.util.spec_from_file_location("whyplan_benchmark_run",
                                                  os.path.join(BENCH_DIR, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_on_the_library(monkeypatch):
    bench = load_benchmark(monkeypatch)
    for var in bench.THREAD_VARS:
        monkeypatch.setenv(var, "1")  # load_program caps these; undone after the test
    targets = bench.trace_targets(bench.load_program(), bench.Counters())
    assert targets
    missing = [t.span for t in targets if not callable(getattr(t.owner, t.attr, None))]
    assert missing == []

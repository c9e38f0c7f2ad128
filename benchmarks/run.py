"""whyplan benchmark: plan, then explain, end to end and per layer.

    python3 benchmarks/run.py --workload plan-sparse --seed 0 --seconds 20 --trace 0

Setup: one process drives the public API with one client in a closed loop
(the next op starts when the previous one has returned), single-threaded:
BLAS/OpenMP thread pools are capped at 1 before numpy is imported. All
inputs are derived from --seed; the program only sees the generated inputs.

Workloads (max depth 3):

  plan-sparse     One op plans s1 and s2 at one seed, PLAN_ITERATIONS MCTS
                  iterations each. Each plan runs `run_pipeline`, then
                  `save_run`, then answers every explored depth-1
                  counterfactual from the run directory as the CLI does
                  (`load_run`, `parse_query`, `explain_query`).
                  Why: a run has only 2 distinct joint samples, so nearly
                  every `simulate_step` call repeats an earlier (sample,
                  prefix) and rollout memoisation works at full strength.
                  s2 is the only scenario on the give-way path.
  plan-dense      The same op on `scenarios/dense.json` next to this file:
                  s1's road with five non-ego vehicles, each with two live
                  goals and two options for the end-of-road goal, at beta
                  0.1 so that the joint space (243 samples) is near uniform.
                  Why: about 50 distinct joint samples in 60 iterations, so
                  per-step geometry and recognition carry the op and
                  memoisation mostly does not apply.
  explain-replay  Setup plans one run directory each for s1, s2 and dense,
                  at CORPUS_ITERATIONS iterations and fixed seeds, so every
                  run replays the same corpus. One op answers one query from
                  a run directory: `load_run`, `parse_query`, `explain_query`.
                  Queries cycle, in an order drawn from --seed, through the
                  explored actions at depths 1 and 2, with one query in
                  UNEXPLORED_EVERY asking for an unexplored action (drawn
                  from --seed), whose expected result is
                  `UnexploredCounterfactualError`.
                  Why: MCTS does no work here; JSON load and `build_bn`
                  dominate, then causal and grammar. It reads the run
                  directory format the plan workloads write.

Checks on every op (an op that raises or fails one counts as failed):
the plan is non-empty; each outcome distribution sums to 1 within 1e-9;
each explanation is non-empty and the same from the in-memory model as
from the reloaded run directory; a query answers with exactly its expected
text or typed error. Repeats at the same seed must give the same artifact
bytes and text: setup runs the untimed warm-up op SETUP_REPEATS times
(plan workloads: WARMUP_SEED at FEW_ITERATIONS; explain-replay: op 0), and
the traced run repeats every timed op.

setup_s is the import time plus the median of SETUP_REPEATS repetitions of
scenario load and warm-up op, plus on explain-replay the planning of its
run directories, which runs once.

--trace 0 prints the end-to-end metrics. --trace 1 first runs the timed
phase untraced, then the same ops again with `tracing.Tracer` installed,
and prints the per-layer metrics: `_ms` is time per op, `.calls` calls per
op, sizes are means per instance (tree, model, run directory).
--smoke runs a few iterations and ops, for the benchmark's own tests.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Lines before it state the setup,
sample counts, error rate, absent spans and the workload fingerprint: the
SHA-256 over `tracelog.json`, `bn.json` and the explanation strings of the
first timed op (plan workloads) or of the planned run directories and
their explored queries (explain-replay). Run directories live in a temporary directory
inside the checkout and are removed at the end.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracing import Target, Tracer, layer_of

PROCESS_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCENARIOS = {
    "s1": ROOT / "scenarios" / "s1.json",
    "s2": ROOT / "scenarios" / "s2.json",
    "dense": BENCH_DIR / "scenarios" / "dense.json",
}
WORKLOADS = ("plan-sparse", "plan-dense", "explain-replay")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Plan ops are kept short (about 2 s) so that a run holds enough of them for
# steady medians; at 300 iterations a dense op takes about 10 s and the cost
# of a single seed moves a run's figures.
PLAN_ITERATIONS = 60
CORPUS_ITERATIONS = 300  # explain-replay's run directories, planned once in setup
CORPUS_SEED = 0  # explain-replay replays the same corpus on every run
MAX_DEPTH = 3
FEW_ITERATIONS = 8  # smoke runs and warm-up ops
WARMUP_SEED = 0  # plan workloads warm up on fixed inputs, so setup work is the same per run
SMOKE_OPS = 3
SETUP_REPEATS = 3
UNEXPLORED_EVERY = 5
ARTIFACTS = ("run.json", "tracelog.json", "predictions.json", "bn.json")
FINGERPRINT_ARTIFACTS = ("tracelog.json", "bn.json")


class CheckFailure(Exception):
    """An op returned, but its output is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def load_program() -> SimpleNamespace:
    """Import whyplan from the checkout's `src/` (threads capped first)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "whyplan" / "__init__.py").is_file():
        raise ImportError(f"no whyplan package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import whyplan.cli
    import whyplan.errors
    import whyplan.geometry
    import whyplan.maneuvers
    import whyplan.mcts
    import whyplan.pipeline
    import whyplan.recognition
    import whyplan.scenario
    return SimpleNamespace(cli=whyplan.cli, errors=whyplan.errors, geometry=whyplan.geometry,
                           maneuvers=whyplan.maneuvers, mcts=whyplan.mcts,
                           pipeline=whyplan.pipeline, recognition=whyplan.recognition,
                           scenario=whyplan.scenario)


class Digest:
    """Two hashes of an op's output: every byte (repeat check) and the fingerprint."""

    def __init__(self):
        self.full = hashlib.sha256()
        self.fingerprint = hashlib.sha256()

    def add_run_dir(self, run_dir: Path) -> None:
        for name in ARTIFACTS:
            data = (run_dir / name).read_bytes()
            self.full.update(name.encode() + b"\0" + data)
            if name in FINGERPRINT_ARTIFACTS:
                self.fingerprint.update(name.encode() + b"\0" + data)

    def add_text(self, text: str) -> None:
        for h in (self.full, self.fingerprint):
            h.update(text.encode() + b"\0")


@dataclass
class Counters:
    """Sizes seen by the tracer (searches, models) and the benchmark's own calls."""

    searches: list = field(default_factory=list)  # (iterations, tree nodes, steps, distinct, joint)
    models: list = field(default_factory=list)    # (rows, action cpds)
    run_dir_bytes: list = field(default_factory=list)
    load_s: list = field(default_factory=list)

    def add_search(self, result) -> None:
        log = result.trace_log
        keys = {(rec.assignment_key(), rec.macros[:d])
                for rec in log for d in range(1, len(rec.macros) + 1)}
        self.searches.append((len(log), len(result.tree.nodes),
                              sum(len(rec.macros) for rec in log), len(keys),
                              len({rec.assignment_key() for rec in log})))

    def add_model(self, model) -> None:
        self.models.append((len(model.rows), len(model.sel)))


class Workload:
    def __init__(self, wp: SimpleNamespace, workdir: Path, iterations: int,
                 counters: Counters):
        self.wp = wp
        self.workdir = workdir
        self.iterations = iterations
        self.counters = counters
        self.expected: dict = {}  # op index -> digest its output must reproduce
        self.fingerprint = ""

    def load(self, name: str):
        start = time.perf_counter()
        scenario = self.wp.scenario.load_scenario(SCENARIOS[name])
        self.counters.load_s.append(time.perf_counter() - start)
        return scenario

    def repeated_setup(self) -> float:
        """Load the scenarios and run the warm-up op SETUP_REPEATS times.

        Returns the median seconds of one repetition. Every repetition must
        give the same bytes: an op repeated at the same seed is deterministic.
        """
        times, outputs = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.scenarios = {name: self.load(name) for name in self.names}
            outputs.add(self.warm_up())
            times.append(time.perf_counter() - start)
        check(len(outputs) == 1, "the warm-up op repeated at the same seed gave other bytes")
        return statistics.median(times)

    def plan(self, name: str, scenario, seed: int, run_dir: Path, iterations: int):
        """`whyplan plan`: run the pipeline and persist the run directory."""
        p = self.wp.pipeline
        planner = p.planner_config(scenario, seed, iterations=iterations, max_depth=MAX_DEPTH)
        pipe = p.run_pipeline(scenario, seed, planner=planner,
                              reward=self.wp.mcts.RewardConfig())
        check(len(pipe.mcts.plan) > 0, f"{name} seed {seed}: empty plan")
        p.save_run(str(run_dir), SCENARIOS[name], pipe)
        if iterations == self.iterations:  # not a warm-up
            self.counters.run_dir_bytes.append(sum((run_dir / a).stat().st_size
                                                   for a in ARTIFACTS))
        return pipe

    def explain_from_dir(self, run_dir: Path, expr: str) -> str:
        """`whyplan explain`: answer one query from a run directory."""
        run = self.wp.pipeline.load_run(str(run_dir))
        query = self.wp.cli.parse_query(expr)
        summary, _, text = self.wp.pipeline.explain_query(run.model, run.plan, run.reward,
                                                          query)
        check_answer(summary, text, f"{run_dir.name} {expr}")
        return text

    def explain_in_memory(self, pipe, expr: str) -> str:
        summary, _, text = self.wp.pipeline.explain_query(
            pipe.model, pipe.mcts.plan, pipe.reward, self.wp.cli.parse_query(expr))
        check_answer(summary, text, f"{pipe.scenario.name} in memory {expr}")
        return text

    def run_op(self, index: int) -> str:
        """Op `index`; its output must match `expected[index]` when that is set."""
        digest = self.op(index)
        if index in self.expected:
            check(digest == self.expected[index],
                  f"op {index}: output differs from the same op at the same seed")
        return digest


def check_answer(summary, text: str, where: str) -> None:
    total = sum(summary.outcome.distribution.values())
    check(abs(total - 1.0) <= 1e-9, f"{where}: outcome distribution sums to {total!r}")
    check(bool(text.strip()), f"{where}: empty explanation")


class PlanWorkload(Workload):
    """One op plans each scenario at one seed and answers its depth-1 queries."""

    def __init__(self, names: tuple, *args):
        super().__init__(*args)
        self.names = names

    def setup(self, seed: int) -> float:
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(1000)]
        return self.repeated_setup()

    def warm_up(self) -> str:
        """Every code path of an op, at a fraction of its cost."""
        return self.plan_all(WARMUP_SEED, FEW_ITERATIONS, "warm-up")[0]

    def op(self, index: int) -> str:
        full, fingerprint = self.plan_all(self.seeds[index % len(self.seeds)],
                                          self.iterations, str(index))
        if index == 0:
            self.fingerprint = fingerprint
        return full

    def plan_all(self, seed: int, iterations: int, tag: str) -> tuple[str, str]:
        """Plan every scenario at `seed`; returns (full digest, fingerprint)."""
        digest = Digest()
        for name, scenario in self.scenarios.items():
            run_dir = self.workdir / f"{name}-{tag}"
            pipe = self.plan(name, scenario, seed, run_dir, iterations)
            digest.add_run_dir(run_dir)
            for action in sorted(pipe.model.omega_support[1]):
                expr = f"omega1={action}"
                text = self.explain_from_dir(run_dir, expr)
                check(text == self.explain_in_memory(pipe, expr),
                      f"{name} seed {seed} {expr}: reloaded run directory explains "
                      f"differently from the in-memory model")
                digest.add_text(text)
            shutil.rmtree(run_dir)
        return digest.full.hexdigest(), digest.fingerprint.hexdigest()


class ExplainWorkload(Workload):
    """Setup plans s1, s2 and dense; one op answers one query from disk.

    The run directories are planned at seeds drawn from CORPUS_SEED, the same
    on every run; --seed draws the query order and the unexplored actions.
    """

    names = ("s1", "s2", "dense")

    def setup(self, seed: int) -> float:
        start = time.perf_counter()
        corpus_rng = random.Random(CORPUS_SEED)
        rng = random.Random(seed)
        fingerprint = Digest()
        all_actions = self.wp.maneuvers.ALL_MACRO_NAMES
        self.cycles = []  # per run directory: its query cycle
        for name in self.names:
            scenario = self.load(name)
            run_dir = self.workdir / name
            pipe = self.plan(name, scenario, corpus_rng.randrange(2**31), run_dir,
                             self.iterations)
            fingerprint.add_run_dir(run_dir)
            explored, unexplored = [], []
            for depth in (1, 2):
                support = pipe.model.omega_support[depth]
                for action in sorted(support):
                    expr = f"omega{depth}={action}"
                    text = self.explain_in_memory(pipe, expr)
                    fingerprint.add_text(text)
                    explored.append((run_dir, expr, text))
                unexplored += [(run_dir, f"omega{depth}={a}", None)
                               for a in all_actions if a not in support]
            rng.shuffle(explored)
            rng.shuffle(unexplored)
            # Exactly one query in UNEXPLORED_EVERY asks for an unexplored action.
            cycle = []
            for k in range((UNEXPLORED_EVERY - 1) * len(explored)):
                cycle.append(explored[k % len(explored)])
                if k % (UNEXPLORED_EVERY - 1) == UNEXPLORED_EVERY - 2:
                    cycle.append(unexplored[(k // (UNEXPLORED_EVERY - 1)) % len(unexplored)])
            self.cycles.append(cycle)
        self.fingerprint = fingerprint.fingerprint.hexdigest()
        return time.perf_counter() - start + self.repeated_setup()

    def warm_up(self) -> str:
        return self.op(0)

    def query(self, index: int) -> tuple:
        """Op `index`: run directories take turns, each cycling through its queries."""
        cycle = self.cycles[index % len(self.cycles)]
        return cycle[(index // len(self.cycles)) % len(cycle)]

    def op(self, index: int) -> str:
        run_dir, expr, expected = self.query(index)
        where = f"{run_dir.name} {expr}"
        if expected is None:
            try:
                self.explain_from_dir(run_dir, expr)
            except self.wp.errors.UnexploredCounterfactualError as exc:
                return hashlib.sha256(str(exc).encode()).hexdigest()
            raise CheckFailure(f"{where}: expected UnexploredCounterfactualError")
        text = self.explain_from_dir(run_dir, expr)
        check(text == expected, f"{where}: explanation differs from the in-memory model")
        return hashlib.sha256(text.encode()).hexdigest()


def make_workload(name: str, wp, workdir: Path, iterations: int, counters: Counters):
    args = (wp, workdir, iterations, counters)
    if name == "plan-sparse":
        return PlanWorkload(("s1", "s2"), *args)
    if name == "plan-dense":
        return PlanWorkload(("dense",), *args)
    return ExplainWorkload(*args)


@dataclass
class Phase:
    latencies: list   # seconds, completed ops only
    digests: list     # per op: its output digest, None if it failed
    attempted: int
    failed: int
    elapsed: float

    @property
    def jobs_per_s(self) -> float:
        return len(self.latencies) / self.elapsed


def timed_loop(workload: Workload, seconds: float, max_ops: int | None = None) -> Phase:
    """Closed loop, one client: run ops until `seconds` pass or `max_ops` ran."""
    clock = time.perf_counter
    latencies, digests, failed, index = [], [], 0, 0
    start = clock()
    while clock() - start < seconds and (max_ops is None or index < max_ops):
        op_start = clock()
        try:
            digest = workload.run_op(index)
        except Exception as exc:  # every failure is counted, never fatal
            failed += 1
            digests.append(None)
            if failed <= 5:
                print(f"op {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            latencies.append(clock() - op_start)
            digests.append(digest)
        index += 1
    return Phase(latencies, digests, index, failed, clock() - start)


def percentile_ms(latencies: list, q: float) -> float:
    ordered = sorted(latencies)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return 1000.0 * (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def end_to_end_metrics(phase: Phase, setup_s: float) -> dict:
    lat = phase.latencies or [0.0]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (phase.jobs_per_s, "1/s"),
        "latency_ms.p50": (percentile_ms(lat, 50), "ms"),
        "latency_ms.p99": (percentile_ms(lat, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def trace_targets(wp, counters: Counters) -> list:
    p, m = wp.pipeline, wp.mcts
    return [
        Target(p, "true_goal_plans", "pipeline.true_goal_plans"),
        Target(p, "observe", "simulation.observe"),
        Target(p, "predict_all", "recognition.predict"),
        Target(wp.recognition, "enumerate_plans", "recognition.enumerate_plans"),
        Target(p, "run_mcts", "mcts.run", on_result=counters.add_search),
        Target(m, "simulate_step", "simulation.simulate_step"),
        Target(m, "applicable_macros", "maneuvers.applicable_macros"),
        Target(m, "terminal_reward", "mcts.reward"),
        Target(m, "extract_features", "maneuvers.extract_features"),
        Target(wp.geometry.Polyline, "project", "geometry.project", timed=False),
        Target(p, "build_bn", "bayes_net.build", on_result=counters.add_model),
        Target(p, "save_run", "pipeline.save_run"),
        Target(p, "load_run", "pipeline.load_run"),
        Target(p, "outcome_given_cf", "causal.outcome"),
        Target(p, "reward_deltas", "causal.reward_deltas"),
        Target(p, "agent_influences", "causal.agent_influences"),
        Target(p, "render_explanation", "grammar.explain"),
    ]


def per_layer_metrics(tracer, counters: Counters, ops: int, overhead: float) -> dict:
    def ms(span, *children):
        return tracer.self_ms(span, *children) / ops

    def calls(span):
        return tracer.calls.get(span, 0) / ops

    def mean(rows, col):
        return statistics.fmean(r[col] for r in rows) if rows else 0.0

    searches = counters.searches
    steps = sum(s[2] for s in searches)
    distinct = sum(s[3] for s in searches)
    busy_s = tracer.total.get("mcts.run", 0.0)
    out = {
        "scenario.load_ms": (1000.0 * statistics.median(counters.load_s), "ms"),
        "pipeline.true_goal_plans_ms": (ms("pipeline.true_goal_plans"), "ms"),
        "simulation.observe_ms": (ms("simulation.observe"), "ms"),
        "recognition.predict_ms": (ms("recognition.predict"), "ms"),
        "recognition.enumerate_plans.calls": (calls("recognition.enumerate_plans"), "count"),
        "mcts.busy_ms": (ms("mcts.run"), "ms"),
        "mcts.iterations_per_s": (sum(s[0] for s in searches) / busy_s if busy_s else 0.0,
                                  "1/s"),
        "mcts.select_ms": (ms("mcts.run", "simulation.simulate_step", "mcts.reward"), "ms"),
        "mcts.tree_nodes": (mean(searches, 1), "count"),
        "mcts.rollout_steps": (steps / ops, "count"),
        "mcts.distinct_rollouts": (distinct / ops, "count"),
        "mcts.reuse_share": (1.0 - distinct / steps if steps else 0.0, "share"),
        "mcts.distinct_joint_samples": (mean(searches, 4), "count"),
        "simulation.simulate_step.calls": (calls("simulation.simulate_step"), "count"),
        "simulation.simulate_step_ms": (ms("simulation.simulate_step"), "ms"),
        "maneuvers.applicable_macros.calls": (calls("maneuvers.applicable_macros"), "count"),
        "maneuvers.applicable_macros_ms": (ms("maneuvers.applicable_macros"), "ms"),
        "maneuvers.extract_features.calls": (calls("maneuvers.extract_features"), "count"),
        "maneuvers.extract_features_ms": (ms("maneuvers.extract_features"), "ms"),
        "geometry.project.calls": (calls("geometry.project"), "count"),
        "bayes_net.build_ms": (ms("bayes_net.build"), "ms"),
        "bayes_net.rows": (mean(counters.models, 0), "count"),
        "bayes_net.action_cpds": (mean(counters.models, 1), "count"),
        "pipeline.save_run_ms": (ms("pipeline.save_run"), "ms"),
        "pipeline.run_dir_bytes": (statistics.fmean(counters.run_dir_bytes)
                                   if counters.run_dir_bytes else 0.0, "bytes"),
        "pipeline.load_run_ms": (ms("pipeline.load_run", "bayes_net.build"), "ms"),
        "causal.outcome_ms": (ms("causal.outcome"), "ms"),
        "causal.reward_deltas_ms": (ms("causal.reward_deltas"), "ms"),
        "causal.agent_influences_ms": (ms("causal.agent_influences"), "ms"),
        "grammar.explain_ms": (ms("grammar.explain"), "ms"),
    }
    for layer in sorted({layer_of(t.span) for t in tracer.targets}):
        out[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")
    out["trace.overhead_share"] = (overhead, "share")
    return out


def run(wp, args, import_s: float) -> tuple[list, dict]:
    """Set up, run the timed phase(s); returns (report lines, result object)."""
    if args.smoke:
        iterations = FEW_ITERATIONS
    elif args.workload == "explain-replay":
        iterations = CORPUS_ITERATIONS
    else:
        iterations = PLAN_ITERATIONS
    max_ops = SMOKE_OPS if args.smoke else None
    counters = Counters()
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
            workload = make_workload(args.workload, wp, Path(tmp), iterations, counters)
            setup_s = import_s + workload.setup(args.seed)
            phase = timed_loop(workload, args.seconds, max_ops)
            lines = [f"ops {phase.attempted} attempted, {phase.failed} failed, "
                     f"error_rate {phase.failed / phase.attempted:.6g}, "
                     f"latency samples {len(phase.latencies)}"]
            if not args.trace:
                metrics = end_to_end_metrics(phase, setup_s)
                attempted, failed = phase.attempted, phase.failed
            else:
                metrics, traced, absent = traced_phase(wp, workload, phase, counters)
                attempted = phase.attempted + traced.attempted
                failed = phase.failed + traced.failed
                lines.append(f"traced ops {traced.attempted} attempted, {traced.failed} failed")
                lines.append("absent spans " + (" ".join(absent) or "none"))
    finally:
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    lines.append(f"fingerprint {workload.fingerprint}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return lines, result


def traced_phase(wp, workload: Workload, untraced: Phase, counters: Counters):
    """Repeat the untraced ops with the tracer installed; outputs must not change."""
    workload.expected = {i: d for i, d in enumerate(untraced.digests) if d is not None}
    # An unexplored query's UnexploredCounterfactualError is its expected answer.
    with Tracer(trace_targets(wp, counters),
                expected=(wp.errors.UnexploredCounterfactualError,)) as tracer:
        traced = timed_loop(workload, float("inf"), untraced.attempted)
    base = untraced.jobs_per_s
    overhead = 1.0 - traced.jobs_per_s / base if base else 0.0
    metrics = per_layer_metrics(tracer, counters, traced.attempted, overhead)
    return metrics, traced, tracer.absent()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{FEW_ITERATIONS} MCTS iterations, at most {SMOKE_OPS} timed ops")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind normally, so the temporary run directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        wp = load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    try:
        lines, result = run(wp, args, time.perf_counter() - PROCESS_START)
    except (wp.errors.WhyplanError, CheckFailure, OSError) as exc:
        print(f"error: setup failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: one process, "
          f"one client, closed loop, 1 thread")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

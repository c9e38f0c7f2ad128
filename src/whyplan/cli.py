"""Command line driver: plan, explain, batch.

Exit codes: 0 success, 2 parse errors (a scenario file that cannot be read,
is not JSON, or lacks a key or has a value of the wrong type or shape; a
query; a style file), 3 validation errors, 4 planning failures, 5 inference
failures (an empty trace log), 6 unexplored counterfactual, 7 an output path
that cannot be written (the `plan --out` run directory, the `batch --out` CSV
or the `explain --dump-causal` file) or a run directory that `explain` finds
missing or malformed (README lists the checks), 1 anything else.
"""

import argparse
import concurrent.futures
import csv
import json
import os
import sys

from .causal import CounterfactualQuery
from .errors import (EmptyTraceLogError, GoalUnreachableError, OffRoadError, QueryParseError,
                     RunDirectoryError, ScenarioParseError, ScenarioValidationError,
                     StyleError, UnexploredCounterfactualError)
from .grammar import load_style
from .mcts import RewardConfig
from .pipeline import explain_query, load_run, planner_config, run_pipeline, save_run
from .scenario import load_scenario

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PLANNING = 4
EXIT_INFERENCE = 5
EXIT_UNEXPLORED = 6
EXIT_RUN_DIR = 7

_EXIT_CODES = (
    (UnexploredCounterfactualError, EXIT_UNEXPLORED),
    ((ScenarioParseError, QueryParseError, StyleError), EXIT_PARSE),
    (ScenarioValidationError, EXIT_VALIDATION),
    ((OffRoadError, GoalUnreachableError), EXIT_PLANNING),
    (EmptyTraceLogError, EXIT_INFERENCE),
    (RunDirectoryError, EXIT_RUN_DIR),
)


def parse_query(expr: str, n_causes: int = 1, n_effects: int = 1) -> CounterfactualQuery:
    """Parse "omega1=Continue,omega2=Exit-right" into a counterfactual query."""
    indices = []
    actions = []
    for part in expr.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise QueryParseError(
                f"bad query term {part!r}; expected omega<depth>=<Action>")
        lhs, rhs = part.split("=", 1)
        lhs = lhs.strip().lower()
        if not lhs.startswith("omega"):
            raise QueryParseError(f"bad query variable {lhs!r}; expected omega<depth>")
        try:
            depth = int(lhs[len("omega"):])
        except ValueError as exc:
            raise QueryParseError(f"bad depth in {lhs!r}; expected an integer") from exc
        indices.append(depth)
        actions.append(rhs.strip())
    if not indices:
        raise QueryParseError("empty query")
    return CounterfactualQuery(indices=tuple(indices), actions=tuple(actions),
                               n_causes=n_causes, n_effects=n_effects)


def _open_output(path: str, **kwargs):
    """Open an output file for writing; an unwritable path is a RunDirectoryError."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise RunDirectoryError(f"cannot write output file {path}: {exc.strerror}") from exc


def cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    planner = planner_config(scenario, args.seed, iterations=args.iterations,
                             max_depth=args.max_depth, exploration=args.exploration)
    pipe = run_pipeline(scenario, args.seed, planner=planner, reward=RewardConfig())
    save_run(args.out, args.scenario, pipe)
    if args.dump_bn:
        with open(os.path.join(args.out, "bn.json")) as fh:
            sys.stdout.write(fh.read())
    print(f"plan: {' '.join(pipe.mcts.plan)}")
    print(f"run directory: {args.out}")
    return EXIT_OK


def cmd_explain(args) -> int:
    run = load_run(args.run)
    style = load_style(args.style)
    query = parse_query(args.query, n_causes=args.n_causes, n_effects=args.n_effects)
    summary, raw, text = explain_query(run.model, run.plan, run.reward, query, style)
    if args.dump_causal:
        with _open_output(args.dump_causal) as fh:
            json.dump(summary.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.json:
        json.dump(summary.to_dict(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    elif args.raw:
        print(raw)
    else:
        print(text)
    return EXIT_OK


def _batch_worker(job: tuple) -> list[dict]:
    (scenario_path, seed, run_index, iterations, max_depth, exploration, query_exprs,
     n_causes, n_effects, style_path) = job
    scenario = load_scenario(scenario_path)
    style = load_style(style_path)
    planner = planner_config(scenario, seed, iterations=iterations, max_depth=max_depth,
                             exploration=exploration)
    pipe = run_pipeline(scenario, seed, planner=planner)
    rows = []
    for expr in query_exprs:
        row = {
            "run": run_index,
            "seed": seed,
            "plan": " ".join(pipe.mcts.plan),
            "query": expr,
        }
        try:
            query = parse_query(expr, n_causes=n_causes, n_effects=n_effects)
            summary, _, text = explain_query(pipe.model, pipe.mcts.plan, pipe.reward, query, style)
            row.update({
                "outcome": summary.outcome.kind,
                "probability": summary.outcome.probability,
                "explanation": text,
            })
        except (QueryParseError, UnexploredCounterfactualError) as exc:
            row.update({"outcome": "error", "probability": "", "explanation": str(exc)})
        rows.append(row)
    return rows


def cmd_batch(args) -> int:
    if args.runs < 1:
        raise ScenarioValidationError("--runs must be >= 1")
    if args.workers < 1:
        raise ScenarioValidationError("--workers must be >= 1")
    # Fail fast on a bad scenario file or planner setting.
    planner_config(load_scenario(args.scenario), args.seed, iterations=args.iterations,
                   max_depth=args.max_depth, exploration=args.exploration)
    query_exprs = [q.strip() for q in args.queries.split(";") if q.strip()]
    jobs = [(args.scenario, args.seed + i, i, args.iterations, args.max_depth,
             args.exploration, query_exprs, args.n_causes, args.n_effects, args.style)
            for i in range(args.runs)]
    out = _open_output(args.out, newline="") if args.out else sys.stdout  # before any run
    # A fork-started pool forks all its workers on the first submit, so it
    # gets no more than there are runs or CPUs.
    workers = min(args.workers, args.runs, os.cpu_count() or 1)
    try:
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_batch_worker, jobs))
        else:
            results = [_batch_worker(job) for job in jobs]
        writer = csv.DictWriter(out, lineterminator="\n", fieldnames=[
            "run", "seed", "plan", "query", "outcome", "probability", "explanation"])
        writer.writeheader()
        for rows in results:
            writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whyplan",
        description="Plan driving macro actions with MCTS and explain the plan "
                    "with contrastive counterfactual sentences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run the planner and persist a run directory")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--exploration", type=float, default=None,
                   help="UCB1 exploration constant (default: scenario override or sqrt 2)")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-bn", action="store_true",
                   help="print the Bayes net JSON to stdout as well")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("explain", help="answer a counterfactual query from a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--query", required=True,
                   help='e.g. "omega1=Continue" or "omega1=Continue,omega2=Exit-right"')
    p.add_argument("--n-causes", type=int, default=1)
    p.add_argument("--n-effects", type=int, default=1)
    p.add_argument("--raw", action="store_true", help="print before post-processing")
    p.add_argument("--json", action="store_true", help="print the causal summary as JSON")
    p.add_argument("--dump-causal", default=None, help="also write the summary JSON here")
    p.add_argument("--style", default=None, help="wording style JSON (or WHYPLAN_STYLE)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("batch", help="seeded batch of runs with per-query explanations")
    p.add_argument("--scenario", required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--queries", required=True, help='semicolon-separated query expressions')
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--exploration", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--n-causes", type=int, default=1)
    p.add_argument("--n-effects", type=int, default=1)
    p.add_argument("--style", default=None)
    p.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # map to documented exit codes
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: every shipped claim checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one [PASS]/[FAIL] line
per criterion. The two scenario batches are deterministic (seeds 0..9) and
shared across criteria through session fixtures.
"""

import contextlib
import math
import os
import random
import time

import pytest

from whyplan.bayes_net import build_bn, expected_reward, query
from whyplan.causal import CounterfactualQuery, reward_deltas, trace_divergence
from whyplan.cli import main as cli_main
from whyplan.errors import UnexploredCounterfactualError
from whyplan.grammar import GrammarInput, adverb, generate_raw, load_style, post_process
from whyplan.mcts import OUTCOME_KINDS, REWARD_COMPONENTS, RewardConfig
from whyplan.pipeline import explain_query, run_pipeline
from whyplan.scenario import load_scenario

from conftest import (cpd_entry, make_record, oracle_expected_reward, oracle_query,
                      oracle_rows, random_trace_log, records_of, trace_table)

RUNNING_EXAMPLE = ("If ego had continued ahead then it would have likely reached its goal "
                   "with lower time to goal because vehicle 1 would have probably changed "
                   "right.")
SEEDS = range(10)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def batch(scenario_name, queries):
    scenario = load_scenario(f"scenarios/{scenario_name}.json")
    style = load_style("scenarios/present_style.json")
    runs = []
    for seed in SEEDS:
        t0 = time.perf_counter()
        pipe = run_pipeline(scenario, seed)
        elapsed = time.perf_counter() - t0
        answers = {}
        for action in queries:
            cf = CounterfactualQuery(indices=(1,), actions=(action,),
                                     n_causes=1, n_effects=1)
            summary, raw, text = explain_query(pipe.model, pipe.mcts.plan, pipe.reward,
                                               cf, style)
            answers[action] = (summary, text)
        runs.append({"seed": seed, "pipe": pipe, "plan": pipe.mcts.plan,
                     "answers": answers, "elapsed": elapsed})
    return runs


@pytest.fixture(scope="session")
def s1_runs():
    return batch("s1", ("Continue", "Exit-right"))


@pytest.fixture(scope="session")
def s2_runs():
    return batch("s2", ("Exit-straight", "Exit-left"))


def test_criterion_01_grammar_fidelity_running_example():
    with criterion("grammar fidelity: running example renders byte-exact in < 1 ms"):
        ginput = GrammarInput(cf_macros=("Continue",), outcome="done", outcome_p=0.75,
                              effects=((-5.0, "time"),),
                              causes=((1, ("Change-right",), 0.6),))
        generate_raw(ginput)  # warm any caches before timing
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            out = generate_raw(ginput)
            best = min(best, time.perf_counter() - t0)
        assert out == RUNNING_EXAMPLE
        assert best < 1e-3


def test_criterion_02_post_processing_and_idempotence():
    with criterion("post-processing: phrase table on table-shaped strings, idempotent"):
        assert post_process(
            "If ego had gone straight then it would have likely reached the goal "
            "with higher time to goal because vehicle 1 probably changes right.") == \
            "If ego had gone straight then it would have likely reached the goal " \
            "slower because vehicle 1 probably changes right."
        assert post_process("with lower time to goal") == "faster"
        rng = random.Random(42)
        fragments = ["with higher time to goal", "with lower time to goal", "slower",
                     "with higher jerk", "with lower jerk", "with more jerk",
                     "with higher angular acceleration", "with higher curvature",
                     "reached the goal", "because vehicle 1", "it would have", "and",
                     "faster", "collided with vehicle 1", "not reached the goal"]
        for _ in range(1000):
            s = " ".join(rng.choice(fragments) for _ in range(rng.randint(1, 14)))
            once = post_process(s)
            assert post_process(once) == once


def test_criterion_03_adverb_thresholds():
    with criterion("adverb thresholds: piecewise bands match exactly"):
        table = {0.0: "never", 0.1: "unlikely", 0.33: "unlikely", 0.34: "probably",
                 0.5: "probably", 0.67: "probably", 0.68: "likely", 0.9: "likely",
                 1.0: "certainly", None: ""}
        for p, word in table.items():
            assert adverb(p) == word, (p, word)


def _query_set(model):
    yield [f"O_{k}" for k in OUTCOME_KINDS], {}
    yield ["Omega_1"], {}
    for action in sorted(model.omega_support[1]):
        yield [f"O_{k}" for k in OUTCOME_KINDS], {"Omega_1": action}
        yield ["Omega_2"], {"Omega_1": action}
    for vid in model.vehicles:
        yield [f"G_{vid}"], {}
        yield [f"G_{vid}", f"S_{vid}"], {"O_done": 1}
        yield ["Omega_1"], {f"G_{vid}": 0}
    yield [f"Rb_{c}" for c in REWARD_COMPONENTS], {}


def test_criterion_04_inference_matches_bruteforce_oracle():
    with criterion("inference: >= 50 random trace logs match the enumeration oracle"):
        t0 = time.perf_counter()
        compared = 0
        for seed in range(50):
            table, goal_probs, traj_probs, d_max = random_trace_log(seed)
            model = build_bn(table, goal_probs, traj_probs, d_max)
            rows = oracle_rows(table, goal_probs, traj_probs, d_max)
            for targets, evidence in _query_set(model):
                expect = oracle_query(rows, targets, evidence)
                if expect is None:
                    with pytest.raises(UnexploredCounterfactualError):
                        query(model, targets, evidence)
                    continue
                got = query(model, targets, evidence)
                assert set(got) == set(expect)
                for key, p in expect.items():
                    assert abs(got[key] - p) <= 1e-9
                compared += 1
            for comp in REWARD_COMPONENTS:
                expect = oracle_expected_reward(rows, comp, {})
                got, _ = expected_reward(model, comp, {})
                if expect is None:
                    assert got is None
                else:
                    assert abs(got - expect) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert compared >= 400
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_05_structural_invariants():
    with criterion("network invariants: normalization, chain rule, determinism, "
                   "total probability"):
        for seed in range(50):
            table, goal_probs, traj_probs, d_max = random_trace_log(seed)
            model = build_bn(table, goal_probs, traj_probs, d_max)
            # CPD normalization over actions plus the no-selection atom.
            for (prefix, akey), counts in model.sel.items():
                total = sum(cpd_entry(model, prefix, akey, a) for a in counts)
                total += cpd_entry(model, prefix, akey, None)
                assert abs(total - 1.0) <= 1e-9
            # Chain rule: each trace weight, a count ratio, equals the
            # sample's probability times the per-depth CPD product.
            for rec in records_of(table):
                akey = rec.akey
                p = 1.0
                prefix = ()
                for a in rec.macros:
                    p *= cpd_entry(model, prefix, akey, a)
                    prefix += (a,)
                if len(rec.macros) < d_max:
                    p *= cpd_entry(model, prefix, akey, None)
                p *= model.assignment_probability(akey)
                assert abs(model.trace_weights[(akey, rec.macros)] - p) <= 1e-12
            # Existence and outcome layers are deterministic on every row.
            from whyplan.mcts import OUTCOME_REQUIRED
            names = [f"Rb_{c}" for c in REWARD_COMPONENTS] + [f"O_{k}" for k in OUTCOME_KINDS]
            for values in query(model, names, {}):
                present = {c for c, v in zip(REWARD_COMPONENTS, values) if v == 1}
                for kind, value in zip(OUTCOME_KINDS, values[len(REWARD_COMPONENTS):]):
                    assert value == (1 if set(OUTCOME_REQUIRED[kind]) == present else 0)
            # Law of total probability over the first selection.
            marg = query(model, ["O_done"], {})
            mix = {}
            for (action,), p_a in query(model, ["Omega_1"], {}).items():
                for key, pv in query(model, ["O_done"], {"Omega_1": action}).items():
                    mix[key] = mix.get(key, 0.0) + p_a * pv
            for key in marg:
                assert abs(marg[key] - mix.get(key, 0.0)) <= 1e-9
            # Every query result normalizes.
            for targets, evidence in _query_set(model):
                try:
                    dist = query(model, targets, evidence)
                except UnexploredCounterfactualError:
                    continue
                assert abs(sum(dist.values()) - 1.0) <= 1e-9


def test_criterion_06_divergence_checks():
    with criterion("agent influence: zero for single-pair vehicles, hand value, "
                   "non-negativity"):
        # A single predicted goal and trajectory conditions on everything.
        goal_probs = {"v1": {0: 1.0}}
        traj_probs = {"v1": {(0, 0): 1.0}}
        records = [make_record({"v1": (0, 0)}, ["A"], "done")] * 6
        model = build_bn(trace_table(records), goal_probs, traj_probs, 2)
        from whyplan.causal import _omega_distributions
        marg, conds = _omega_distributions(model)
        assert trace_divergence(marg, conds[("v1", 0, 0)]) == 0.0

        hand = 0.5 * math.log2(0.5 / 0.25) + 0.5 * math.log2(0.5 / 0.75)
        got = trace_divergence({("A",): 0.5, ("B",): 0.5}, {("A",): 0.25, ("B",): 0.75})
        assert abs(got - hand) <= 1e-12
        assert abs(got - 0.2075187496) <= 1e-6

        for seed in range(30):
            model = build_bn(*random_trace_log(seed + 600))
            marg, conds = _omega_distributions(model)
            assert set(conds) == {triple for ak, _ in model.trace_weights for triple in ak}
            for cond in conds.values():
                assert trace_divergence(marg, cond) >= 0.0


def _delta_fixture():
    goal_probs = {"v1": {0: 0.5, 1: 0.5}}
    traj_probs = {"v1": {(0, 0): 1.0, (1, 0): 1.0}}
    records = [
        make_record({"v1": (0, 0)}, ["A"], "done",
                    values={"time": 10.0, "jerk": 0.4, "angular_acceleration": 0.2,
                            "curvature": 0.02}),
        make_record({"v1": (1, 0)}, ["A"], "done",
                    values={"time": 12.0, "jerk": 0.6, "angular_acceleration": 0.4,
                            "curvature": 0.04}),
        make_record({"v1": (0, 0)}, ["B"], "done",
                    values={"time": 15.0, "jerk": 0.2, "angular_acceleration": 0.1,
                            "curvature": 0.01}),
        make_record({"v1": (1, 0)}, ["B"], "done",
                    values={"time": 17.0, "jerk": 0.8, "angular_acceleration": 0.6,
                            "curvature": 0.03}),
    ]
    return build_bn(trace_table(records), goal_probs, traj_probs, 2)


def test_criterion_07_reward_delta_checks():
    with criterion("reward effects: zero on identity, antisymmetric, ranked, "
                   "prefix-stable"):
        model = _delta_fixture()
        cfg = RewardConfig()
        same = reward_deltas(model, ("A",),
                             CounterfactualQuery(indices=(1,), actions=("A",), n_effects=6),
                             cfg)
        assert same and all(e.delta == 0.0 for e in same)
        fwd = reward_deltas(model, ("A",),
                            CounterfactualQuery(indices=(1,), actions=("B",), n_effects=6),
                            cfg)
        back = reward_deltas(model, ("B",),
                             CounterfactualQuery(indices=(1,), actions=("A",), n_effects=6),
                             cfg)
        fwd_map = {e.component: e.delta for e in fwd}
        back_map = {e.component: e.delta for e in back}
        assert set(fwd_map) == set(back_map)
        for comp in fwd_map:
            assert abs(fwd_map[comp] + back_map[comp]) <= 1e-12
        mags = [abs(e.delta) for e in fwd]
        assert mags == sorted(mags, reverse=True)
        for n in range(1, len(fwd)):
            head = reward_deltas(model, ("A",),
                                 CounterfactualQuery(indices=(1,), actions=("B",),
                                                     n_effects=n), cfg)
            assert [e.component for e in head] == [e.component for e in fwd[:n]]


def test_criterion_08_scenario_s1_end_to_end(s1_runs):
    with criterion("S1 end-to-end: factual plan majority and counterfactual template"):
        for run in s1_runs:
            assert run["elapsed"] < 60.0, f"seed {run['seed']} took {run['elapsed']:.1f}s"
        conforming = 0
        for run in s1_runs:
            if run["plan"] != ("Change-left", "Continue"):
                continue
            summary, text = run["answers"]["Continue"]
            ok = summary.outcome.kind in ("done", "collision")
            ok = ok and text.startswith("If ego had gone straight then it would have")
            if summary.outcome.kind == "done":
                ok = ok and "reached the goal slower" in text
            else:
                ok = ok and "collided with vehicle 1" in text
            ok = ok and "vehicle 1" in text
            ok = ok and ("changes right" in text or "exits right" in text)
            summary_er, text_er = run["answers"]["Exit-right"]
            ok = ok and text_er.startswith("If ego had turned right then it would have")
            ok = ok and ("not reached the goal" in text_er
                         or "collided with vehicle 1" in text_er)
            if ok:
                conforming += 1
        assert conforming >= 7, f"only {conforming}/10 runs matched"


def test_criterion_09_scenario_s2_end_to_end(s2_runs):
    with criterion("S2 end-to-end: factual plan majority and no-goal explanations"):
        for run in s2_runs:
            assert run["elapsed"] < 60.0, f"seed {run['seed']} took {run['elapsed']:.1f}s"
        conforming = 0
        for run in s2_runs:
            if run["plan"] != ("Exit-right", "Continue"):
                continue
            ok = True
            for action, opener in (("Exit-straight", "If ego had gone straight"),
                                   ("Exit-left", "If ego had turned left")):
                summary, text = run["answers"][action]
                ok = ok and summary.outcome.kind in ("termination", "dead")
                ok = ok and text.startswith(opener)
                ok = ok and "not reached the goal" in text
                if "because" in text:
                    ok = ok and "vehicle 1" in text and "turns left" in text
            if ok:
                conforming += 1
        assert conforming >= 7, f"only {conforming}/10 runs matched"


def test_criterion_10_effect_count_scaling(s1_runs):
    with criterion("effect scaling: each explanation extends the previous conjunct"):
        run = next(r for r in s1_runs if r["plan"] == ("Change-left", "Continue")
                   and r["answers"]["Continue"][0].outcome.kind == "done")
        pipe = run["pipe"]
        style = load_style("scenarios/present_style.json")
        bodies = []
        for n in (1, 2, 3):
            cf = CounterfactualQuery(indices=(1,), actions=("Continue",),
                                     n_causes=1, n_effects=n)
            _, _, text = explain_query(pipe.model, pipe.mcts.plan, pipe.reward, cf, style)
            body = text.split(" because ")[0]
            bodies.append(body)
        assert "slower" in bodies[0]
        for shorter, longer in zip(bodies, bodies[1:]):
            assert longer.startswith(shorter)
            assert longer[len(shorter):].startswith(" and with ")


def test_criterion_11_plan_artifacts_are_deterministic(tmp_path, capsys):
    with criterion("determinism: fixed-seed planning writes byte-identical artifacts"):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            code = cli_main(["plan", "--scenario", "scenarios/s1.json", "--seed", "4",
                             "--iterations", "120", "--max-depth", "3", "--out", out])
            capsys.readouterr()
            assert code == 0
            outs.append(out)
        for name in ("run.json", "tracelog.json", "predictions.json", "bn.json"):
            a = open(os.path.join(outs[0], name), "rb").read()
            b = open(os.path.join(outs[1], name), "rb").read()
            assert a == b, f"{name} differs between identical runs"

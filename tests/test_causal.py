import math

import pytest

from whyplan.bayes_net import build_bn
from whyplan.causal import (CausalSummary, Cause, CfOutcome, CounterfactualQuery, Effect,
                            agent_influences, outcome_given_cf, reward_deltas,
                            trace_divergence)
from whyplan.errors import QueryParseError, UnexploredCounterfactualError
from whyplan.mcts import RewardConfig
from whyplan.pipeline import explain_query

from conftest import make_record, random_trace_log, trace_table

HAND_KL_BITS = 0.5 * 1.0 + 0.5 * (1.0 - math.log2(3.0))  # two-point example


def build(records, goal_probs, traj_probs, d_max=2, **kw):
    return build_bn(trace_table(records), goal_probs, traj_probs, d_max, **kw)


def test_query_validation():
    with pytest.raises(QueryParseError):
        CounterfactualQuery(indices=(1, 1), actions=("Continue", "Stop"))
    with pytest.raises(QueryParseError):
        CounterfactualQuery(indices=(0,), actions=("Continue",))
    with pytest.raises(QueryParseError):
        CounterfactualQuery(indices=(1,), actions=("Continue",), n_effects=-1)


def test_unknown_action_vs_unexplored_action():
    model = build([make_record({"v1": (0, 0)}, ["Continue"], "done")],
                  {"v1": {0: 1.0}}, {"v1": {(0, 0): 1.0}})
    with pytest.raises(QueryParseError, match="unknown action"):
        CounterfactualQuery(indices=(1,), actions=("Fly",)).evidence(model)
    with pytest.raises(UnexploredCounterfactualError, match="never explored"):
        CounterfactualQuery(indices=(1,), actions=("Stop",)).evidence(model)
    with pytest.raises(QueryParseError, match="exceeds max depth"):
        CounterfactualQuery(indices=(9,), actions=("Continue",)).evidence(model)


def test_degenerate_outcome_distribution():
    model = build([make_record({"v1": (0, 0)}, ["Continue"], "done")] * 4,
                  {"v1": {0: 1.0}}, {"v1": {(0, 0): 1.0}})
    res = outcome_given_cf(model, CounterfactualQuery(indices=(1,), actions=("Continue",)))
    assert res.kind == "done"
    assert res.probability == 1.0


def test_running_example_probability():
    # Three of four equally weighted counterfactual traces reach the goal.
    goal_probs = {"v1": {i: 0.25 for i in range(4)}}
    traj_probs = {"v1": {(i, 0): 1.0 for i in range(4)}}
    records = [make_record({"v1": (i, 0)}, ["Continue"],
                           "done" if i < 3 else "termination") for i in range(4)]
    model = build(records, goal_probs, traj_probs)
    res = outcome_given_cf(model, CounterfactualQuery(indices=(1,), actions=("Continue",)))
    assert res.kind == "done"
    assert res.probability == pytest.approx(0.75, abs=1e-9)


def test_tied_outcomes_break_toward_collision():
    goal_probs = {"v1": {0: 0.5, 1: 0.5}}
    traj_probs = {"v1": {(0, 0): 1.0, (1, 0): 1.0}}
    records = [make_record({"v1": (0, 0)}, ["Continue"], "done"),
               make_record({"v1": (1, 0)}, ["Continue"], "collision", collider="v9")]
    model = build(records, goal_probs, traj_probs, labels={"v1": "vehicle 1"})
    res = outcome_given_cf(model, CounterfactualQuery(indices=(1,), actions=("Continue",)))
    assert res.kind == "collision"
    assert res.probability == pytest.approx(0.5, abs=1e-9)
    assert res.collider == "v9"


# --- reward deltas -----------------------------------------------------------------


def delta_model():
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
    return build(records, goal_probs, traj_probs)


def test_identical_factual_and_counterfactual_gives_zero_deltas():
    model = delta_model()
    cf = CounterfactualQuery(indices=(1,), actions=("A",), n_effects=6)
    effects = reward_deltas(model, ("A",), cf, RewardConfig())
    assert effects
    for e in effects:
        assert e.delta == 0.0
        assert e.delta_quantity == 0.0


def test_deltas_are_antisymmetric_under_swap():
    model = delta_model()
    cf_b = CounterfactualQuery(indices=(1,), actions=("B",), n_effects=6)
    cf_a = CounterfactualQuery(indices=(1,), actions=("A",), n_effects=6)
    fwd = {e.component: e for e in reward_deltas(model, ("A",), cf_b, RewardConfig())}
    back = {e.component: e for e in reward_deltas(model, ("B",), cf_a, RewardConfig())}
    assert set(fwd) == set(back)
    for comp in fwd:
        assert fwd[comp].delta == pytest.approx(-back[comp].delta, abs=1e-12)
        assert fwd[comp].delta_quantity == pytest.approx(-back[comp].delta_quantity, abs=1e-12)


def test_deltas_sorted_by_reward_magnitude_and_truncation_is_prefix_stable():
    model = delta_model()
    cfg = RewardConfig()
    cf = CounterfactualQuery(indices=(1,), actions=("B",), n_effects=6)
    effects = reward_deltas(model, ("A",), cf, cfg)
    mags = [abs(e.delta) for e in effects]
    assert mags == sorted(mags, reverse=True)
    assert effects[0].component == "time"  # |delta| 5.0 dominates the 0.1-weighted rest
    # E[time|CF]=16 > E[time|F]=11: quantity delta positive, reward delta positive.
    assert effects[0].delta_quantity == pytest.approx(5.0, abs=1e-9)
    assert effects[0].delta == pytest.approx(5.0, abs=1e-9)
    for n in range(1, len(effects)):
        shorter = reward_deltas(model, ("A",), CounterfactualQuery(
            indices=(1,), actions=("B",), n_effects=n), cfg)
        assert [e.component for e in shorter] == [e.component for e in effects[:n]]


def test_components_absent_on_either_side_are_excluded():
    goal_probs = {"v1": {0: 0.5, 1: 0.5}}
    traj_probs = {"v1": {(0, 0): 1.0, (1, 0): 1.0}}
    records = [make_record({"v1": (0, 0)}, ["A"], "done", values={"time": 10.0}),
               make_record({"v1": (1, 0)}, ["B"], "collision")]
    model = build(records, goal_probs, traj_probs)
    cf = CounterfactualQuery(indices=(1,), actions=("B",), n_effects=6)
    effects = reward_deltas(model, ("A",), cf, RewardConfig())
    assert effects == []  # nothing shared between a done side and a collision side


# --- agent influence ----------------------------------------------------------------


def test_hand_computed_two_point_divergence():
    marginal = {("A",): 0.5, ("B",): 0.5}
    conditional = {("A",): 0.25, ("B",): 0.75}
    d = trace_divergence(marginal, conditional)
    assert d == pytest.approx(HAND_KL_BITS, abs=1e-6)
    assert d == pytest.approx(0.20752, abs=1e-4)


def test_divergence_zero_iff_equal_and_infinite_on_missing_support():
    marginal = {("A",): 0.3, ("B",): 0.7}
    assert trace_divergence(marginal, dict(marginal)) == 0.0
    assert trace_divergence(marginal, {("A",): 1.0}) == math.inf
    assert trace_divergence(marginal, {("A",): 0.31, ("B",): 0.69}) > 0.0


def test_single_pair_vehicle_is_dropped():
    goal_probs = {"v1": {0: 1.0}}
    traj_probs = {"v1": {(0, 0): 1.0}}
    records = [make_record({"v1": (0, 0)}, ["A"], "done")] * 5
    model = build(records, goal_probs, traj_probs)
    assert agent_influences(model, n_causes=3) == []
    # Its conditional equals the marginal exactly, so the divergence is zero.
    from whyplan.causal import _omega_distributions
    marg, conds = _omega_distributions(model)
    assert trace_divergence(marg, conds[("v1", 0, 0)]) == 0.0


def test_influences_rank_aligned_pair_first_and_dedupe_per_vehicle():
    goal_probs = {"v1": {0: 0.5, 1: 0.5}}
    traj_probs = {"v1": {(0, 0): 1.0, (1, 0): 1.0}}
    records = []
    # Under goal 0 the selections mirror the overall mixture closely;
    # under goal 1 they are skewed, so (goal 0) is the aligned pair.
    for macros, n in ((["A"], 2), (["B"], 2)):
        for _ in range(n):
            records.append(make_record({"v1": (0, 0)}, macros, "done"))
    for macros, n in ((["A"], 3), (["B"], 1)):
        for _ in range(n):
            records.append(make_record({"v1": (1, 0)}, macros, "done"))
    model = build(records, goal_probs, traj_probs,
                  traj_macros={"v1": {(0, 0): ("Continue",), (1, 0): ("Change-right",)}},
                  labels={"v1": "vehicle 1"})
    causes = agent_influences(model, n_causes=5)
    assert len(causes) == 1  # one cause per vehicle
    assert causes[0].vehicle == "v1"
    assert causes[0].macros == ("Continue",)
    assert causes[0].probability == pytest.approx(0.5)
    assert causes[0].divergence >= 0.0


def test_trailing_continue_is_pruned_from_cause_labels():
    goal_probs = {"v1": {0: 0.6, 1: 0.4}}
    traj_probs = {"v1": {(0, 0): 1.0, (1, 0): 1.0}}
    records = [make_record({"v1": (0, 0)}, ["A"], "done"),
               make_record({"v1": (0, 0)}, ["A"], "done"),
               make_record({"v1": (1, 0)}, ["B"], "done")]
    macros = {"v1": {(0, 0): ("Change-right", "Exit-right", "Continue"),
                     (1, 0): ("Continue",)}}
    model = build(records, goal_probs, traj_probs, traj_macros=macros)
    causes = agent_influences(model, n_causes=1)
    assert causes and causes[0].macros == ("Change-right", "Exit-right")


def test_zero_causes_ranks_nothing():
    ranked = 0
    for seed in range(10):
        model = build_bn(*random_trace_log(seed))
        assert agent_influences(model, 0) == []
        ranked += bool(agent_influences(model, 1))
    assert ranked > 0  # the logs do have causes to withhold


def test_kl_non_negative_on_random_logs():
    from whyplan.causal import _omega_distributions
    for seed in range(10):
        model = build_bn(*random_trace_log(seed + 300))
        marg, conds = _omega_distributions(model)
        assert set(conds) == {triple for ak, _ in model.trace_weights for triple in ak}
        for cond in conds.values():
            assert trace_divergence(marg, cond) >= 0.0


# --- summary ---------------------------------------------------------------------------


def test_summary_carries_running_example_fields():
    outcome = CfOutcome(distribution={"done": 0.75, "collision": 0.0,
                                      "termination": 0.25, "dead": 0.0},
                        kind="done", probability=0.75)
    effects = (Effect(component="time", delta=-5.0, delta_quantity=-5.0),)
    causes = (Cause(vehicle="v1", label=1, macros=("Change-right",), probability=0.6,
                    divergence=0.0),)
    summary = CausalSummary(cf_actions=("Continue",), outcome=outcome, effects=effects,
                            causes=causes)
    assert summary.cf_actions == ("Continue",)
    assert summary.outcome.kind == "done"
    assert summary.outcome.probability == 0.75
    assert summary.effects[0].delta == -5.0
    assert summary.causes[0].probability == 0.6
    payload = summary.to_dict()
    assert payload["s"]["o"] == "done"
    assert payload["e"][0]["r"] == "time"
    assert payload["c"][0]["p"] == 0.6


def test_summary_validation():
    outcome = CfOutcome(distribution={}, kind="done", probability=1.5)
    with pytest.raises(ValueError):
        CausalSummary(cf_actions=("Continue",), outcome=outcome, effects=(), causes=())
    good = CfOutcome(distribution={}, kind="done", probability=0.5)
    bad_effects = (Effect("jerk", 0.1, 0.1), Effect("time", -5.0, -5.0))
    with pytest.raises(ValueError, match="sorted"):
        CausalSummary(cf_actions=("Continue",), outcome=good, effects=bad_effects, causes=())


def test_multi_depth_counterfactual_query():
    goal_probs = {"v1": {0: 0.5, 1: 0.5}}
    traj_probs = {"v1": {(0, 0): 1.0, (1, 0): 1.0}}
    records = [make_record({"v1": (0, 0)}, ["A", "B"], "done"),
               make_record({"v1": (0, 0)}, ["A", "C"], "termination"),
               make_record({"v1": (1, 0)}, ["A", "B"], "collision"),
               make_record({"v1": (1, 0)}, ["A", "C"], "done")]
    model = build(records, goal_probs, traj_probs, d_max=2)
    both = outcome_given_cf(model, CounterfactualQuery(indices=(1, 2), actions=("A", "B")))
    assert both.distribution["done"] == pytest.approx(0.5, abs=1e-9)
    assert both.distribution["collision"] == pytest.approx(0.5, abs=1e-9)
    # A depth-2-only query conditions the same way regardless of depth 1.
    second = outcome_given_cf(model, CounterfactualQuery(indices=(2,), actions=("C",)))
    assert second.distribution["termination"] == pytest.approx(0.5, abs=1e-9)
    assert second.distribution["done"] == pytest.approx(0.5, abs=1e-9)


def test_truncation_respects_query_counts():
    # Goal 0 mirrors the overall A/B mix and goal 1 skews it, so v1 is a cause;
    # every trace reaches the goal, so several reward effects are on offer.
    goal_probs = {"v1": {0: 0.5, 1: 0.5}}
    traj_probs = {"v1": {(0, 0): 1.0, (1, 0): 1.0}}
    draws = [("A", 0), ("B", 0), ("A", 0), ("B", 0), ("A", 1), ("A", 1), ("A", 1), ("B", 1)]

    def values(j):
        return {"time": 10.0 + j, "jerk": 0.1 * j, "angular_acceleration": 0.2,
                "curvature": 0.01 * j}

    # A draw's values are fixed by its first index, as a memoised search logs them.
    records = [make_record({"v1": (g, 0)}, [a], "done", values=values(draws.index((a, g))))
               for a, g in draws]
    model = build(records, goal_probs, traj_probs, d_max=1, labels={"v1": "vehicle 1"})
    full = CounterfactualQuery(indices=(1,), actions=("B",), n_causes=1, n_effects=6)
    summary, _, _ = explain_query(model, ("A",), RewardConfig(), full)
    assert len(summary.effects) > 1 and len(summary.causes) == 1
    cf = CounterfactualQuery(indices=(1,), actions=("B",), n_causes=0, n_effects=1)
    summary, _, _ = explain_query(model, ("A",), RewardConfig(), cf)
    assert len(summary.effects) == 1
    assert summary.causes == ()

import json
import random
import re

import pytest

from whyplan.causal import CausalSummary, Cause, CfOutcome, Effect
from whyplan.errors import StyleError
from whyplan.grammar import (adverb, explain, generate_raw, load_style, post_process,
                             realize_macros)

RUNNING_EXAMPLE = ("If ego had continued ahead then it would have likely reached its goal "
                   "with lower time to goal because vehicle 1 would have probably changed "
                   "right.")


def summary_of(cf_actions=("Continue",), kind="done", probability=0.8, effects=(), causes=(),
               collider=None):
    """A causal summary from (quantity delta, component) effects and
    (label, macros, probability) causes."""
    return CausalSummary(
        cf_actions=cf_actions,
        outcome=CfOutcome(distribution={kind: probability}, kind=kind, probability=probability,
                          collider=collider),
        effects=tuple(Effect(component=c, delta=d, delta_quantity=d) for d, c in effects),
        causes=tuple(Cause(vehicle=label, label=label, macros=macros, probability=p,
                           divergence=0.0) for label, macros, p in causes),
    )


def running_example_summary():
    return summary_of(probability=0.75, effects=((-5.0, "time"),),
                      causes=(("vehicle 1", ("Change-right",), 0.6),))


def test_adverb_threshold_table():
    expected = {0.0: "never", 0.1: "unlikely", 0.33: "unlikely", 0.34: "probably",
                0.5: "probably", 0.67: "probably", 0.68: "likely", 0.9: "likely",
                1.0: "certainly", None: ""}
    for p, word in expected.items():
        assert adverb(p) == word


def test_adverb_rejects_out_of_range():
    with pytest.raises(ValueError):
        adverb(-0.1)
    with pytest.raises(ValueError):
        adverb(1.1)


def test_realize_macros_tenses():
    assert realize_macros(["Change-right", "Exit-right"], "nonego") == \
        "changes right then exits right"
    assert realize_macros(["Continue"], "ego") == "continued ahead"
    assert "then" not in realize_macros(["Exit-right"], "nonego")
    with pytest.raises(ValueError):
        realize_macros([], "ego")
    with pytest.raises(ValueError):
        realize_macros(["Continue"], "futuristic")


def test_running_example_renders_byte_exact():
    assert generate_raw(running_example_summary()) == RUNNING_EXAMPLE


def test_no_goal_shape_with_suppressed_adverb_and_no_causes():
    # A certain outcome loses its adverb.
    summary = summary_of(cf_actions=("Exit-right",), kind="termination", probability=1.0)
    assert generate_raw(summary) == \
        "If ego had turned right then it would have not reached the goal."


def test_two_effects_join_with_and():
    text = generate_raw(summary_of(effects=((2.0, "time"), (0.3, "jerk"))))
    assert "with higher time to goal and with higher jerk" in text


def test_monotone_extension_of_effects_and_causes():
    effects = ((2.0, "time"), (0.3, "jerk"), (-0.1, "angular_acceleration"))
    causes = (("vehicle 1", ("Change-right",), 0.6), ("vehicle 2", ("Exit-right",), 0.5))
    prev_effects = None
    for n in range(1, 4):
        text = generate_raw(summary_of(effects=effects[:n], causes=causes[:1]))
        chunk = text.split(" because ")[0]
        if prev_effects is not None:
            assert chunk.startswith(prev_effects.split(" because ")[0][:-1]) or \
                prev_effects.split(" because ")[0].rstrip(".") in chunk
        prev_effects = text
    one = generate_raw(summary_of(effects=effects[:1], causes=causes[:1]))
    two = generate_raw(summary_of(effects=effects[:1], causes=causes))
    assert two.startswith(one[:-1])
    assert " and " in two.split(" because ")[1]


def test_collision_outcome_substitutes_collider():
    summary = summary_of(kind="collision", probability=0.6, collider="vehicle 1")
    assert "probably collided with vehicle 1" in generate_raw(summary)
    anon = summary_of(kind="collision", probability=0.6)
    assert "collided with a vehicle" in generate_raw(anon)


def test_strict_mode_keeps_literal_because():
    style = load_style()
    style["suppress_empty_because"] = False
    assert generate_raw(summary_of(), style).endswith("because.")


def test_generate_raw_is_deterministic_and_total():
    summary = running_example_summary()
    a = generate_raw(summary)
    b = generate_raw(summary)
    assert a == b
    assert "{" not in a and "}" not in a
    assert a[0].isupper() and a.endswith(".")


def test_post_process_substitutions():
    assert post_process("it would have reached the goal with higher time to goal") == \
        "it would have reached the goal slower"
    assert post_process("with lower time to goal") == "faster"
    assert post_process("with higher jerk") == "with more jerk"
    assert post_process("nothing to see here") == "nothing to see here"


def test_post_process_is_idempotent_on_fuzz_corpus():
    rng = random.Random(7)
    fragments = ["with higher time to goal", "with lower time to goal", "with higher jerk",
                 "with lower angular acceleration", "slower", "faster", "reached the goal",
                 "because vehicle 1", "then it would have", "with more jerk", "curvature",
                 "with higher curvature", "and", "ego had gone straight"]
    for _ in range(1000):
        sentence = " ".join(rng.choice(fragments) for _ in range(rng.randint(1, 12)))
        once = post_process(sentence)
        assert post_process(once) == once


def test_style_file_overrides(tmp_path):
    style_path = tmp_path / "style.json"
    style_path.write_text(json.dumps({
        "cause_tense": "present",
        "ego_macros": {"Continue": "gone straight"},
        "outcomes": {"done": "reached the goal"},
    }))
    style = load_style(str(style_path))
    summary = summary_of(causes=(("vehicle 1", ("Change-right",), 0.6),))
    text = generate_raw(summary, style)
    assert text.startswith("If ego had gone straight then it would have likely reached "
                           "the goal")
    assert "vehicle 1 probably changes right" in text
    # Untouched entries keep their defaults.
    assert style["ego_macros"]["Change-left"] == "changed left"


def test_style_env_var(tmp_path, monkeypatch):
    style_path = tmp_path / "style.json"
    style_path.write_text(json.dumps({"ego_macros": {"Continue": "kept going"}}))
    monkeypatch.setenv("WHYPLAN_STYLE", str(style_path))
    style = load_style()
    assert style["ego_macros"]["Continue"] == "kept going"


def test_broken_postprocess_table_is_rejected(tmp_path):
    style_path = tmp_path / "style.json"
    style_path.write_text(json.dumps({
        "postprocess": [["slow", "very slow"]],  # output contains the pattern
    }))
    with pytest.raises(ValueError, match="idempotent"):
        load_style(str(style_path))


@pytest.mark.parametrize("table", [5, [["only a pattern"]], [["with higher jerk", 3]]])
def test_malformed_postprocess_table_is_a_style_error(tmp_path, table):
    style_path = tmp_path / "style.json"
    style_path.write_text(json.dumps({"postprocess": table}))
    with pytest.raises(StyleError, match="string pairs"):
        load_style(str(style_path))


# Each overlay puts a value of the wrong shape into a style file, which
# `load_style` must reject with this message.
MALFORMED_STYLES = {
    "unknown-key": ({"colour": "red"}, "style key is 'colour', not a key of the default style"),
    "table-a-number": ({"outcomes": 5}, "style outcomes is 5, not an object"),
    "table-a-list": ({"ego_macros": ["gone"]}, "style ego_macros is ['gone'], not an object"),
    "table-entry-null": ({"outcomes": {"done": None}}, "style outcomes done is None, not a string"),
    "table-entry-a-number": ({"components": {"jerk": 2}},
                             "style components jerk is 2, not a string"),
    "text-a-number": ({"ego_subject": 1}, "style ego_subject is 1, not a string"),
    "text-null": ({"cause_aux": None}, "style cause_aux is None, not a string"),
    "suppress-a-string": ({"suppress_certain_adverb": "yes"},
                          "style suppress_certain_adverb is 'yes', not true or false"),
    "suppress-a-number": ({"suppress_empty_because": 0},
                          "style suppress_empty_because is 0, not true or false"),
    "tense-unknown": ({"cause_tense": "future"},
                      "style cause_tense is 'future', not perfect or present"),
    "tense-a-number": ({"cause_tense": 3}, "style cause_tense is 3, not a string"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STYLES))
def test_malformed_style_value_is_a_style_error(tmp_path, case):
    overlay, message = MALFORMED_STYLES[case]
    style_path = tmp_path / "style.json"
    style_path.write_text(json.dumps(overlay))
    with pytest.raises(StyleError, match=re.escape(message)):
        load_style(str(style_path))


def test_certain_adverb_suppression_and_quantity_deltas():
    summary = CausalSummary(
        cf_actions=("Continue",),
        outcome=CfOutcome(distribution={"done": 1.0}, kind="done", probability=1.0),
        effects=(Effect(component="time", delta=2.5, delta_quantity=2.5),),
        causes=(Cause(vehicle="v1", label="vehicle 1", macros=("Change-right",),
                      probability=1.0, divergence=0.0),),
    )
    raw = generate_raw(summary)
    assert "certainly" not in raw
    assert "with higher time to goal" in raw
    assert post_process(raw).count("slower") == 1


def test_explain_returns_raw_and_processed():
    summary = CausalSummary(
        cf_actions=("Continue",),
        outcome=CfOutcome(distribution={"done": 0.9}, kind="done", probability=0.9),
        effects=(Effect(component="time", delta=2.5, delta_quantity=2.5),),
        causes=(),
    )
    raw, text = explain(summary)
    assert "with higher time to goal" in raw
    assert "slower" in text and "with higher time to goal" not in text

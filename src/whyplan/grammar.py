"""Contrastive explanation text: deterministic realization of a causal
summary through recursive generative rules, plus a post-processing pass that
swaps stock phrases for plainer ones.

The wording tables are data. The defaults give conditional-perfect phrasing
for causes ("vehicle 1 would have probably changed right"); a style file can
switch causes to present tense and re-label macros/outcomes (see
scenarios/present_style.json).
"""

import copy
import os
from dataclasses import dataclass

from . import checks
from .causal import CausalSummary
from .errors import StyleError

STYLE_ENV_VAR = "WHYPLAN_STYLE"

DEFAULT_STYLE: dict = {
    "ego_subject": "ego",
    "ego_aux": "had",
    "cause_tense": "perfect",   # perfect -> "would have" auxiliary, present -> none
    "cause_aux": "would have",
    "ego_macros": {
        "Continue": "continued ahead",
        "Change-left": "changed left",
        "Change-right": "changed right",
        "Exit-left": "turned left",
        "Exit-right": "turned right",
        "Exit-straight": "gone straight",
        "Continue-next-exit": "continued to the next exit",
        "Stop": "stopped",
    },
    "nonego_macros_present": {
        "Continue": "continues ahead",
        "Change-left": "changes left",
        "Change-right": "changes right",
        "Exit-left": "turns left",
        "Exit-right": "exits right",
        "Exit-straight": "goes straight",
        "Continue-next-exit": "continues to the next exit",
        "Stop": "stops",
    },
    "nonego_macros_perfect": {
        "Continue": "continued ahead",
        "Change-left": "changed left",
        "Change-right": "changed right",
        "Exit-left": "turned left",
        "Exit-right": "exited right",
        "Exit-straight": "gone straight",
        "Continue-next-exit": "continued to the next exit",
        "Stop": "stopped",
    },
    "outcomes": {
        "done": "reached its goal",
        "collision": "collided with {collider}",
        "termination": "not reached the goal",
        "dead": "not reached the goal",
    },
    "components": {
        "time": "time to goal",
        "jerk": "jerk",
        "angular_acceleration": "angular acceleration",
        "curvature": "curvature",
        "collision": "collision",
        "termination": "termination",
    },
    "suppress_certain_adverb": True,
    "suppress_empty_because": True,
    "postprocess": [
        ["with higher time to goal", "slower"],
        ["with lower time to goal", "faster"],
        ["with higher jerk", "with more jerk"],
        ["with lower jerk", "with less jerk"],
        ["with higher angular acceleration", "with more angular acceleration"],
        ["with lower angular acceleration", "with less angular acceleration"],
        ["with higher curvature", "with more curvature"],
        ["with lower curvature", "with less curvature"],
    ],
}


def load_style(path: str | None = None) -> dict:
    """Default style, optionally overlaid with a JSON config file.

    The file may be given explicitly or through the WHYPLAN_STYLE environment
    variable; top-level mapping keys merge entry-wise. The merged style must
    have the defaults' shape (`_check_style`), else StyleError.
    """
    style = copy.deepcopy(DEFAULT_STYLE)
    path = path or os.environ.get(STYLE_ENV_VAR)
    if path:
        overlay = checks.typed(checks.read_json(path, StyleError), (path,), StyleError, dict)
        for key, value in overlay.items():
            if isinstance(value, dict) and isinstance(style.get(key), dict):
                style[key].update(value)
            else:
                style[key] = value
    _check_style(style)
    return style


def _check_style(style: dict) -> None:
    """Every key is a default key and holds what its default holds: a table an
    object of strings, a text entry a string, a `suppress_*` flag a boolean;
    `cause_tense` is perfect or present, and the post-processing table holds
    string pairs and is idempotent."""
    for key in style:
        checks.member(key, ("style key",), StyleError, DEFAULT_STYLE, "a key of the default style")
    for key, default in DEFAULT_STYLE.items():
        if isinstance(default, dict):
            for entry, text in checks.typed(style[key], ("style", key), StyleError, dict).items():
                checks.typed(text, ("style", key, entry), StyleError, str)
        elif isinstance(default, (str, bool)):
            checks.typed(style[key], ("style", key), StyleError, type(default))
    checks.member(style["cause_tense"], ("style", "cause_tense"), StyleError,
                  ("perfect", "present"), "perfect or present")
    table = style["postprocess"]
    if not isinstance(table, list) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(isinstance(part, str) for part in pair) for pair in table):
        checks.fail(table, ("style", "postprocess"),
                    "a list of [pattern, replacement] string pairs", StyleError)
    lhs = [pair[0] for pair in table]
    for _, out in table:
        for pattern in lhs:
            if pattern in out:
                raise StyleError(
                    f"post-processing output {out!r} contains pattern {pattern!r}; "
                    "substitution would not be idempotent")


# --- grammar input -----------------------------------------------------------


@dataclass(frozen=True)
class GrammarInput:
    """The (scenario, effects, causes) triple the rules expand.

    cf_outcome_p may be None to elide the adverb. Effect deltas here are in
    presentation (quantity) space; rel words follow their sign directly.
    """

    cf_macros: tuple[str, ...]
    outcome: str
    outcome_p: float | None
    effects: tuple[tuple[float, str], ...]        # (delta, component)
    causes: tuple[tuple[object, tuple[str, ...], float | None], ...]
    collider_label: str | None = None


def to_grammar_input(summary: CausalSummary, style: dict) -> GrammarInput:
    """Convert a causal summary into presentation form.

    Reward-space effect deltas are re-expressed in quantity space so that a
    slower counterfactual reads "higher time to goal". Probabilities equal to
    one lose their adverb when the style says so.
    """
    def suppress(p):
        if p is None:
            return None
        if style.get("suppress_certain_adverb", True) and p >= 1.0 - 1e-12:
            return None
        return p

    effects = tuple((e.delta_quantity, e.component) for e in summary.effects)
    causes = tuple((c.label, c.macros, suppress(c.probability)) for c in summary.causes)
    return GrammarInput(
        cf_macros=summary.cf_actions,
        outcome=summary.outcome.kind,
        outcome_p=suppress(summary.outcome.probability),
        effects=effects,
        causes=causes,
        collider_label=summary.outcome.collider,
    )


# --- rules -------------------------------------------------------------------


def adverb(p: float | None) -> str:
    """Probability word: never / unlikely / probably / likely / certainly.

    Boundaries are inclusive on the upper end of each band and strict below
    certainty; None elides the adverb.
    """
    if p is None:
        return ""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0:
        return "never"
    if p <= 0.33:
        return "unlikely"
    if p <= 0.67:
        return "probably"
    if p < 1.0:
        return "likely"
    return "certainly"


def realize_macros(macros, tense: str, style: dict | None = None) -> str:
    """Textual form of a sequence of macro names, joined with "then".

    tense "ego" uses the conditional-perfect table, "nonego" the present
    table (causes pick their own tense internally).
    """
    style = style or DEFAULT_STYLE
    if not macros:
        raise ValueError("empty macro sequence")
    if tense == "ego":
        table = style["ego_macros"]
    elif tense == "nonego":
        table = style["nonego_macros_present"]
    elif tense == "nonego-perfect":
        table = style["nonego_macros_perfect"]
    else:
        raise ValueError(f"unknown tense {tense!r}")
    return " then ".join(table.get(m, m) for m in macros)


def _rel(delta: float) -> str:
    if delta < 0:
        return "lower"
    if delta > 0:
        return "higher"
    return "equal"


def _subject(label) -> str:
    if isinstance(label, (int, float)) and not isinstance(label, bool):
        return f"vehicle {int(label)}"
    return str(label)


def _join(words: list[str]) -> str:
    return " ".join(w for w in words if w)


def _out_phrase(ginput: GrammarInput, style: dict) -> str:
    text = style["outcomes"].get(ginput.outcome, ginput.outcome)
    if "{collider}" in text:
        collider = ginput.collider_label if ginput.collider_label is not None else "a vehicle"
        text = text.replace("{collider}", _subject(collider))
    return _join([adverb(ginput.outcome_p), text])


def _comp_phrase(delta: float, component: str, style: dict) -> str:
    name = style["components"].get(component, component)
    return f"with {_rel(delta)} {name}"


def _cause_phrase(cause, style: dict) -> str:
    label, macros, p = cause
    tense = "nonego" if style.get("cause_tense", "perfect") == "present" else "nonego-perfect"
    aux = style.get("cause_aux", "would have") if tense == "nonego-perfect" else ""
    return _join([_subject(label), aux, adverb(p), realize_macros(macros, tense, style)])


def generate_raw(ginput: GrammarInput, style: dict | None = None) -> str:
    """Expand the rules on a causal summary; deterministic, total.

    Shape: "if <ego action> then it would have <outcome> <effects> because
    <causes>." The because-clause is suppressed with empty causes unless the
    style insists on the literal rule.
    """
    style = style or DEFAULT_STYLE
    action = _join([style.get("ego_subject", "ego"), style.get("ego_aux", "had"),
                    adverb(None), realize_macros(ginput.cf_macros, "ego", style)])
    effects = " and ".join(_comp_phrase(d, r, style) for d, r in ginput.effects)
    causes = " and ".join(_cause_phrase(c, style) for c in ginput.causes)
    parts = ["if", action, "then", "it would have", _out_phrase(ginput, style), effects]
    if causes:
        parts += ["because", causes]
    elif not style.get("suppress_empty_because", True):
        parts += ["because"]
    sentence = _join(parts)
    return sentence[0].upper() + sentence[1:] + "."


def post_process(raw: str, style: dict | None = None) -> str:
    """Swap stock phrases for simpler ones; longest pattern first, idempotent."""
    style = style or DEFAULT_STYLE
    out = raw
    for pattern, repl in sorted(style["postprocess"], key=lambda p: -len(p[0])):
        out = out.replace(pattern, repl)
    return out


def explain(summary: CausalSummary, style: dict | None = None) -> tuple[str, str]:
    """(raw, post-processed) sentences for a causal summary."""
    style = style or DEFAULT_STYLE
    raw = generate_raw(to_grammar_input(summary, style), style)
    return raw, post_process(raw, style)

"""Contrastive explanation text: the recursive generative rules expand a
`causal.CausalSummary`, the (scenario, effects, causes) triple, into one
sentence, and a post-processing pass swaps stock phrases for plainer ones.

The wording tables are data, and `DEFAULT_STYLE` is the one place their
defaults live. The defaults give conditional-perfect phrasing for causes
("vehicle 1 would have probably changed right"); a style file can switch
causes to present tense and re-label macros/outcomes (see
scenarios/present_style.json).
"""

import copy
import os

from . import checks
from .causal import CausalSummary, Cause, CfOutcome, Effect
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
            if isinstance(value, dict) and isinstance(DEFAULT_STYLE.get(key), dict):
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


def _join(words: list[str]) -> str:
    return " ".join(w for w in words if w)


def _adverb(p: float, style: dict) -> str:
    """The adverb for p; a certain probability loses it when the style says so."""
    if style["suppress_certain_adverb"] and p >= 1.0 - 1e-12:
        return ""
    return adverb(p)


def _out_phrase(outcome: CfOutcome, style: dict) -> str:
    text = style["outcomes"].get(outcome.kind, outcome.kind)
    collider = outcome.collider if outcome.collider is not None else "a vehicle"
    return _join([_adverb(outcome.probability, style), text.replace("{collider}", collider)])


def _comp_phrase(effect: Effect, style: dict) -> str:
    # The quantity-space delta, so a slower counterfactual reads "higher time to goal".
    name = style["components"].get(effect.component, effect.component)
    return f"with {_rel(effect.delta_quantity)} {name}"


def _cause_phrase(cause: Cause, style: dict) -> str:
    tense = "nonego" if style["cause_tense"] == "present" else "nonego-perfect"
    aux = style["cause_aux"] if tense == "nonego-perfect" else ""
    return _join([cause.label, aux, _adverb(cause.probability, style),
                  realize_macros(cause.macros, tense, style)])


def generate_raw(summary: CausalSummary, style: dict | None = None) -> str:
    """Expand the rules on a causal summary; deterministic, total.

    Shape: "if <ego action> then it would have <outcome> <effects> because
    <causes>." The because-clause is suppressed with empty causes unless the
    style insists on the literal rule. The style is `DEFAULT_STYLE` or a
    `load_style` result, so it holds every key.
    """
    style = style or DEFAULT_STYLE
    action = _join([style["ego_subject"], style["ego_aux"],
                    realize_macros(summary.cf_actions, "ego", style)])
    effects = " and ".join(_comp_phrase(e, style) for e in summary.effects)
    causes = " and ".join(_cause_phrase(c, style) for c in summary.causes)
    parts = ["if", action, "then", "it would have", _out_phrase(summary.outcome, style), effects]
    if causes:
        parts += ["because", causes]
    elif not style["suppress_empty_because"]:
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
    """(raw, post-processed) sentences for a causal summary; the style is
    `DEFAULT_STYLE` (when None) or a `load_style` result."""
    raw = generate_raw(summary, style)
    return raw, post_process(raw, style)

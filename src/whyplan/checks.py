"""Reading and checking the JSON input files: scenarios, run directories and
style files. `read_json` is the one reader. Each leaf check returns the value
it accepts or raises the error class it is given, saying "<where> is
<value!r>, not <what>". `where` is a tuple of path parts, joined only when a
check fails: a run directory holds thousands of values. Bounds are inclusive."""

import json
import math
import sys

_FLOAT_MAX = sys.float_info.max
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}


def read_json(path, error: type):
    """The decoded JSON file at `path`; `error` when it cannot be read or decoded."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # invalid JSON, not UTF-8, nested too deep
        raise error(f"{path} is not valid JSON: {exc}") from exc


def fail(value, where: tuple, what: str, error: type):
    """Raise `error` saying that the value at `where` is not `what`."""
    raise error(f"{' '.join(map(str, where))} is {value!r}, not {what}")


def missing(where: tuple, error: type):
    """Raise `error` saying that the value at `where` is absent."""
    raise error(f"{' '.join(map(str, where))} is missing")


def typed(value, where: tuple, error: type, kind: type):
    """`value` if its JSON type is `kind`: dict, list, str or bool."""
    if type(value) is not kind:
        fail(value, where, _KIND_NAMES[kind], error)
    return value


def _bounds(lo, hi) -> str:
    return "" if lo == -math.inf and hi == math.inf else f" in [{lo}, {hi}]"


def number(value, where: tuple, error: type, lo: float = -math.inf,
           hi: float = math.inf) -> float:
    """`value` as a float if it is a finite JSON number in [lo, hi]."""
    if not (type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX
            and lo <= value <= hi):
        fail(value, where, "a finite number" + _bounds(lo, hi), error)
    return float(value)


def integer(value, where: tuple, error: type, lo: float = -math.inf,
            hi: float = math.inf) -> int:
    """`value` if it is an integer (not a bool) in [lo, hi]."""
    if not (type(value) is int and lo <= value <= hi):
        fail(value, where, "an integer" + _bounds(lo, hi), error)
    return value


def pair(value, where: tuple, error: type) -> tuple[float, float]:
    """A list of two finite numbers, as a tuple of floats."""
    if not (type(value) is list and len(value) == 2):
        fail(value, where, "a list of two numbers", error)
    return number(value[0], where + (0,), error), number(value[1], where + (1,), error)


def member(value, where: tuple, error: type, allowed, what: str):
    """`value` if it is one of `allowed`; `what` names them in the message."""
    if value not in allowed:
        fail(value, where, what, error)
    return value


def names(value, where: tuple, error: type, allowed, what: str,
          most: float = math.inf) -> tuple[str, ...]:
    """A list of at most `most` strings from `allowed`, as a tuple; `what`
    names them in the message ("macro names")."""
    if not (type(value) is list and len(value) <= most
            and all(type(name) is str and name in allowed for name in value)):
        fail(value, where, f"a list of {'' if most == math.inf else f'at most {most} '}{what}",
             error)
    return tuple(value)

"""The leaf checks every input loader shares: what each accepts at its edges,
and the one message form of what it rejects."""

import math
import re

import pytest

from whyplan import checks


class Failure(Exception):
    pass


class Unprintable:
    """A `where` part that fails the test if it is turned into a string."""

    def __str__(self):
        raise AssertionError("where was joined for a value that passed")


ACCEPTED = {  # case -> (check, extra arguments, value, returned value)
    "int-where-a-float-is-wanted": (checks.number, (), 3, 3.0),
    "float": (checks.number, (), -2.5, -2.5),
    "largest-float": (checks.number, (), 1.7976931348623157e308, 1.7976931348623157e308),
    "number-at-lower-bound": (checks.number, (0.0, 1.0), 0.0, 0.0),
    "number-at-upper-bound": (checks.number, (0.0, 1.0), 1, 1.0),
    "integer-at-lower-bound": (checks.integer, (1, 16), 1, 1),
    "integer-at-upper-bound": (checks.integer, (1, 16), 16, 16),
    "huge-unbounded-integer": (checks.integer, (), 10 ** 400, 10 ** 400),
    "pair-of-an-int-and-a-float": (checks.pair, (), [1, 2.5], (1.0, 2.5)),
    "names-at-most": (checks.names, ({"a", "b"}, "letters", 2), ["a", "b"], ("a", "b")),
    "no-names": (checks.names, ({"a"}, "letters"), [], ()),
    "member": (checks.member, (("left", "right"), "left or right"), "left", "left"),
}

REJECTED = {  # case -> (check, extra arguments, value, what the message says it is not)
    "bool-as-a-number": (checks.number, (), True, "a finite number"),
    "nan": (checks.number, (), math.nan, "a finite number"),
    "infinity": (checks.number, (), math.inf, "a finite number"),
    "minus-infinity": (checks.number, (), -math.inf, "a finite number"),
    "int-too-large-for-a-float": (checks.number, (), 10 ** 400, "a finite number"),
    "numeric-string": (checks.number, (), "1", "a finite number"),
    "number-below-range": (checks.number, (0.0, 1.0), -1e-300, "a finite number in [0.0, 1.0]"),
    "number-above-range": (checks.number, (0.0, 1.0), 1.0000001,
                           "a finite number in [0.0, 1.0]"),
    "nan-in-range": (checks.number, (0.0, 1.0), math.nan, "a finite number in [0.0, 1.0]"),
    "bool-as-an-integer": (checks.integer, (), True, "an integer"),
    "float-as-an-integer": (checks.integer, (), 2.0, "an integer"),
    "integer-below-range": (checks.integer, (1, 16), 0, "an integer in [1, 16]"),
    "integer-above-range": (checks.integer, (1, 16), 17, "an integer in [1, 16]"),
    "one-number": (checks.pair, (), [1.0], "a list of two numbers"),
    "three-numbers": (checks.pair, (), [1, 2, 3], "a list of two numbers"),
    "pair-as-a-tuple": (checks.pair, (), (1.0, 2.0), "a list of two numbers"),
    "too-many-names": (checks.names, ({"a"}, "letters", 1), ["a", "a"],
                       "a list of at most 1 letters"),
    "unknown-name": (checks.names, ({"a"}, "letters"), ["b"], "a list of letters"),
    "nested-name": (checks.names, ({"a"}, "letters"), [["a"]], "a list of letters"),
    "name-not-in-a-list": (checks.names, ({"a"}, "letters"), "a", "a list of letters"),
    "not-a-member": (checks.member, (("left", "right"), "left or right"), "up",
                     "left or right"),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_leaf_check_accepts_and_joins_no_where(case):
    check, extra, value, expected = ACCEPTED[case]
    got = check(value, ("file", Unprintable()), Failure, *extra)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_leaf_check_rejects_in_the_shared_form(case):
    check, extra, value, what = REJECTED[case]
    message = f"run.json plan 0 is {value!r}, not {what}"
    with pytest.raises(Failure, match=f"^{re.escape(message)}$"):
        check(value, ("run.json", "plan", 0), Failure, *extra)


@pytest.mark.parametrize("value, index", [([1.0, math.nan], 1), ([False, 1.0], 0),
                                          ([10 ** 400, 0], 0)])
def test_pair_names_the_element_that_is_not_a_number(value, index):
    message = f"x {index} is {value[index]!r}, not a finite number"
    with pytest.raises(Failure, match=f"^{re.escape(message)}$"):
        checks.pair(value, ("x",), Failure)


@pytest.mark.parametrize("kind, value, what", [
    (dict, [], "an object"), (list, {}, "a list"), (str, 1, "a string"),
    (bool, 0, "true or false"), (str, None, "a string")])
def test_typed_rejects_other_json_types(kind, value, what):
    assert checks.typed(kind(), (Unprintable(),), Failure, kind) == kind()
    with pytest.raises(Failure, match=f"^x is {re.escape(repr(value))}, not {what}$"):
        checks.typed(value, ("x",), Failure, kind)


@pytest.mark.parametrize("text", ["{not json", "[" * 100_000, b"\xff\xfe".decode("latin-1")])
def test_read_json_maps_undecodable_files_to_the_given_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="latin-1")
    with pytest.raises(Failure, match="bad.json is not valid JSON"):
        checks.read_json(path, Failure)
    with pytest.raises(Failure, match=f"cannot read {re.escape(str(tmp_path))}: Is a directory"):
        checks.read_json(tmp_path, Failure)

"""``files.dumps_canonical`` against its oracle, ``json.dumps`` with
``sort_keys=True, indent=2`` plus a newline, on random JSON trees of the
types a report holds, and its refusals: an int past the print limit and
any value outside those types."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzstab import InputError
from syzstab.files import dumps_canonical

LIMIT = sys.get_int_max_str_digits()

# every code point, lone surrogates and control characters included,
# with quotes, backslashes and the JSON escapes drawn often
chars = st.characters(exclude_categories=()) | st.sampled_from(
    '"\\/\x00\x1f\x7f\b\f\n\r\t 𐏿é'
)
texts = st.text(chars, max_size=12)
# small ints, and ints of LIMIT - 2 to LIMIT digits, either sign
near_limit = st.integers(10 ** (LIMIT - 3), 10**LIMIT - 1)
ints = (
    st.integers()
    | st.sampled_from([0, 1, -1])
    | near_limit
    | near_limit.map(lambda v: -v)
)
# True and False next to 1 and 0, where a bool must not read as an int
flags = st.sampled_from([True, False, 0, 1])
# lists of [int, int] pairs, as rays are written, and pairs holding bools
# or of another length, which must not be written as int pairs; their ints
# stay short, as a near-limit one in every pair makes an overly large repr
pairs = st.lists(st.tuples(st.integers(), st.integers()).map(list), max_size=4)
odd_pairs = st.lists(
    st.lists(st.integers() | flags, min_size=1, max_size=3), min_size=1, max_size=4
)
leaves = (
    texts
    | ints
    | flags
    | st.none()
    | st.lists(ints, max_size=6)
    | st.lists(flags, max_size=6)
    | pairs
    | odd_pairs
)
trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(texts, children, max_size=5),
    max_leaves=16,
)


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(trees)
def test_matches_json_dumps(obj):
    assert dumps_canonical(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [{}, [], [[]], {"a": {}}, [True, 1, False, 0], {"": None}, "\ud800",
     [[1, 2], [-3, 0]], [[1, True]], [[False, 0], [1, 2]], [[1, 2], [3]],
     [[1, 2], [3, 4, 5]]],
    ids=repr,
)
def test_matches_json_dumps_on_edges(obj):
    assert dumps_canonical(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [
        10**LIMIT,
        [1, -(10**LIMIT)],
        {"a": ["x", 10**LIMIT]},
        [[1, 10**LIMIT]],
        {"rays": [[0, 1], [-(10**LIMIT), 2]]},
    ],
    ids=["top", "int-list", "mixed-list", "pair-list", "pair-list-second"],
)
def test_int_past_the_limit_is_input_error(obj):
    with pytest.raises(InputError, match="^result too large to print: "):
        dumps_canonical(obj)


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        [1, 2.0],
        {"a": Fraction(1, 2)},
        [Fraction(3)],
        {1: "int key"},
        (1, 2),
    ],
    ids=["float", "float-in-int-list", "fraction", "integral-fraction",
         "int-key", "tuple"],
)
def test_other_types_are_type_errors(obj):
    with pytest.raises(TypeError):
        dumps_canonical(obj)

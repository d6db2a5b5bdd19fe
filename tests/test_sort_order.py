"""The constructors' cell order against sorted(..., key=safe_key).

safe_key orders numbers (int, bool, float) by value, so plain comparison
agrees with it wherever it does not raise: keys are sorted plainly, and
keys that mix a number, a string or a tuple at a compared position raise
TypeError and take the safe_key fallback.  Either way the order must be
safe_key's.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dsx.delta import DeltaSet, safe_key  # noqa: E402

PLAIN_LEAVES = st.one_of(st.integers(-3, 3), st.text("ab", max_size=2),
                         st.booleans())
NUMBERS = st.one_of(st.integers(-12, 12), st.booleans(), st.floats(-12, 12))
FLOAT_LEAVES = st.one_of(PLAIN_LEAVES, st.floats())


def nested(leaves):
    return st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=3).map(tuple),
        max_leaves=6)


# one shape per cell family, as the constructions use, and free mixtures
KEYS = st.one_of(
    st.lists(st.tuples(st.tuples(st.text("ab", max_size=2)),
                       st.tuples(st.integers(0, 3), st.integers(0, 3))),
             max_size=12),
    st.lists(nested(PLAIN_LEAVES), max_size=12),
    st.lists(nested(FLOAT_LEAVES), max_size=12),
    # numbers alone compare plainly without raising, ints with floats by
    # value as safe_key does; only unkeyed names send these to safe_key
    st.lists(st.tuples(NUMBERS, NUMBERS), max_size=12),
)


def _constructor_order(based, keys, keyed):
    names = [f"c{k}" for k in range(len(keys))]
    sort_keys = {s: key for s, key, has in zip(names, keys, keyed) if has}
    K = DeltaSet({0: names}, {}, sort_keys=sort_keys, based=based)
    want = sorted(names, key=lambda s: safe_key(sort_keys.get(s, (s,))))
    return K.cells(0), tuple(want)


@settings(max_examples=300, deadline=None)
@given(keys=KEYS, data=st.data())
def test_constructor_order_is_safe_key_order(keys, data):
    keyed = data.draw(st.lists(st.booleans(), min_size=len(keys),
                               max_size=len(keys)))
    for based in (False, True):
        got, want = _constructor_order(based, keys, keyed)
        assert got == want


@pytest.mark.parametrize("keys", [
    [(9.0,), (10.0,)],        # floats sort by value: 9.0 before 10.0
    [(2,), (1.5,)],           # ints and floats by value: 1.5 before 2
    [(("a",), 1), (("a",), "b"), (1,)],   # mixed types raise TypeError
    [(10.0,), ("a",), (9.0,)],  # str with float: the fallback sorts the
                                # floats by value, before the string
])
def test_fallback_keys_follow_safe_key(keys):
    for based in (False, True):
        got, want = _constructor_order(based, keys, [True] * len(keys))
        assert got == want

"""The constructors' cell order against sorted(..., key=safe_key).

Keys built from int, str, bool and tuples are sorted by plain comparison;
keys that mix types at a compared position, or that contain a float
(which safe_key orders as a string), take the safe_key fallback.  Either
way the order must be safe_key's.
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
    # numbers alone compare plainly without raising, so only the float
    # check sends these to safe_key
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
    [(9.0,), (10.0,)],        # numerically 9 < 10, as strings "10.0" first
    [(2,), (1.5,)],           # safe_key puts every int before any float
    [(("a",), 1), (("a",), "b"), (1,)],   # mixed types raise TypeError
])
def test_fallback_keys_follow_safe_key(keys):
    for based in (False, True):
        got, want = _constructor_order(based, keys, [True] * len(keys))
        assert got == want

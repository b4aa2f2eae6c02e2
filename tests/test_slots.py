"""The slot encoding of the realization state: order, round trip and increments."""

import pytest

pytest.importorskip("hypothesis")  # an optional test dependency (pyproject.toml)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locarray.baranyai import decode_slot, slot_increments
from conftest import encode_slot

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def slot_pairs(draw, count=1):
    """n, then count (strictly increasing block in 1..n, target in 0..n) pairs."""
    n = draw(st.integers(1, 20))
    pairs = []
    for _ in range(count):
        block = tuple(sorted(draw(st.sets(st.integers(1, n), max_size=n))))
        pairs.append((block, draw(st.integers(0, n))))
    return n, pairs


@PROPERTY
@given(slot_pairs(count=2))
def test_slot_order_is_block_target_order(case):
    n, (a, b) = case
    sa, sb = encode_slot(n, *a), encode_slot(n, *b)
    assert (sa < sb) == (a < b)
    assert (sa == sb) == (a == b)


@PROPERTY
@given(slot_pairs())
def test_decode_inverts_encode(case):
    n, [(block, target)] = case
    assert decode_slot(n, encode_slot(n, block, target)) == (block, target)


@PROPERTY
@given(slot_pairs(), st.data())
def test_increment_appends_an_element(case, data):
    n, [(block, target)] = case
    low = block[-1] + 1 if block else 1
    assume(low <= n)
    e = data.draw(st.integers(low, n))
    inc = slot_increments(n, e)[len(block)]
    assert encode_slot(n, block, target) + inc == encode_slot(n, block + (e,), target)


def test_empty_block_slot_is_its_target():
    assert [encode_slot(5, (), m) for m in range(6)] == list(range(6))

"""Property tests of the document formats: round trips and fuzzed input."""

import json
import random

import pytest

pytest.importorskip("hypothesis")  # an optional test dependency (pyproject.toml)
from hypothesis import given, settings
from hypothesis import strategies as st

from locarray import Shape, TestArray, VType
from locarray.formats import format_array, format_type, parse_array, parse_type

FORMATS = st.sampled_from(["text", "json"])
PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)


@st.composite
def arrays(draw):
    n = draw(st.integers(0, 6))
    v = draw(st.integers(1, min(5, n + 1)))  # a column has at most one empty class
    k = draw(st.integers(0, 6))
    row = st.tuples(*[st.integers(0, v - 1)] * k)
    return TestArray(tuple(draw(st.lists(row, min_size=n, max_size=n))), v)


@st.composite
def shapes(draw, n, v):
    """v block sizes summing to n."""
    entries = []
    for _ in range(v - 1):
        entries.append(draw(st.integers(0, n - sum(entries))))
    return Shape((*entries, n - sum(entries)))


@st.composite
def types(draw):
    n = draw(st.integers(1, 12))
    v = draw(st.integers(2, 6))
    pairs = draw(st.lists(st.tuples(shapes(n, v), st.integers(1, 1000)), max_size=6))
    return VType(n, v, pairs)


@st.composite
def mutated(draw, doc):
    """A valid document with one character replaced, inserted or deleted."""
    text = draw(doc)
    i = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(list(" \n-0129x{}[],:\"Nv") + ["", "9" * 30]))
    return text[:i] + ch + text[i + draw(st.integers(0, 1)):]


JSON_VALUES = st.recursive(
    st.integers(0, 4) | st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.fixed_dictionaries({"count": inner, "entries": inner}),
    max_leaves=8,
)


def documents(*keys: str) -> st.SearchStrategy:
    """JSON objects with the given keys and any values; the last key often holds a list."""
    values = {key: JSON_VALUES for key in keys}
    values[keys[-1]] = JSON_VALUES | st.lists(JSON_VALUES, max_size=3)
    return st.fixed_dictionaries(values).map(json.dumps)


@st.composite
def digit_rows(draw):
    """(v, rows of ASCII-digit tokens): one-digit, multi-digit and zero-padded ones in a row."""
    v = draw(st.integers(1, 13))
    token = st.builds(lambda a, zeros: "0" * zeros + str(a), st.integers(0, v - 1), st.integers(0, 2))
    k, n = draw(st.integers(0, 6)), draw(st.integers(max(v - 1, 1), v + 2))
    return v, draw(st.lists(st.lists(token, min_size=k, max_size=k), min_size=n, max_size=n))


@st.composite
def one_digit_arrays(draw):
    """Arrays with v <= 10, whose text format_array writes one digit a symbol."""
    v = draw(st.integers(1, 10))
    n, k = draw(st.integers(max(v - 1, 0), v + 2)), draw(st.integers(0, 6))
    row = st.lists(st.integers(0, v - 1), min_size=k, max_size=k)
    return TestArray(draw(st.lists(row, min_size=n, max_size=n)), v)


GARBAGE = (
    st.text()
    | documents("n", "v", "shapes")
    | documents("n", "k", "v", "rows")
    | mutated(st.tuples(arrays(), FORMATS).map(lambda p: format_array(*p)))
    | mutated(st.tuples(types(), FORMATS).map(lambda p: format_type(*p)))
)


class TestRoundTrip:
    @PROPERTY
    @given(arrays(), FORMATS)
    def test_array(self, arr, fmt):
        assert parse_array(format_array(arr, fmt)) == arr

    @PROPERTY
    @given(types(), FORMATS)
    def test_type(self, t, fmt):
        assert parse_type(format_type(t, fmt)) == t

    @PROPERTY
    @given(digit_rows())
    def test_digit_tokens_read_as_int_reads_them(self, doc):
        """Rows of one-digit tokens take a faster path than the others: both give int()."""
        v, rows = doc
        text = f"{len(rows)} {len(rows[0])} {v}\n" + "".join(" ".join(r) + "\n" for r in rows)
        assert tuple(map(tuple, parse_array(text).rows)) == tuple(tuple(map(int, r)) for r in rows)


    @PROPERTY
    @given(one_digit_arrays(), st.data())
    def test_respaced_rows_parse_as_the_canonical_text_does(self, arr, data):
        """The lines format_array writes take a faster path than any other spacing."""
        blanks = st.sampled_from(["", " ", "\t", "  ", " \t "])
        lines = []
        for row in arr.rows:
            tokens = [data.draw(st.sampled_from(["", "0", "00"])) + str(a) for a in row]
            line = tokens[0] if tokens else ""
            for token in tokens[1:]:
                line += data.draw(blanks.filter(bool)) + token
            lines.append(data.draw(blanks) + line + data.draw(blanks))
        respaced = f"{arr.n_rows} {arr.k} {arr.v}\n" + "".join(ln + "\n" for ln in lines)
        assert parse_array(format_array(arr)) == arr == parse_array(respaced)


class TestFuzz:
    """On any text, a parser returns a document or raises ValueError, nothing else."""

    @PROPERTY
    @given(GARBAGE)
    def test_parse_array(self, text):
        try:
            parse_array(text)
        except ValueError:
            pass

    @PROPERTY
    @given(GARBAGE)
    def test_parse_type(self, text):
        try:
            parse_type(text)
        except ValueError:
            pass


def test_two_digit_symbols_are_written_as_str_writes_them():
    rng = random.Random(12)
    arr = TestArray(tuple(tuple(rng.randrange(12) for _ in range(30)) for _ in range(11)), 12)
    want = "11 30 12\n" + "".join(" ".join(str(a) for a in row) + "\n" for row in arr.rows)
    assert format_array(arr) == want
    assert parse_array(want) == arr

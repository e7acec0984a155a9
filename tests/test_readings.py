"""The readers of numeric inputs in `photonam.output`, against an oracle that
converts no int to a float.

An int is finite as a float when |v| < INT_EDGE, the least int that float()
rounds up to 2**1024, past the largest float; a float is finite when
|v| <= sys.float_info.max, a comparison NaN fails. Draws cover Python ints up
to +-2**1100 and around the edge, floats with NaN, +-inf and subnormals, numpy
scalars and bools, and 1-D lists of them.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonam.output import integer, nonnegative, real

#: 2**1024 less half an ulp of the largest float, 2**971: the tie, which rounds to even.
INT_EDGE = 2**1024 - 2**970

BIG_INTS = st.one_of(
    st.integers(-(2**1100), 2**1100),
    st.integers(INT_EDGE - 2**64, INT_EDGE + 2**64),
    st.integers(-INT_EDGE - 2**64, -INT_EDGE + 2**64),
    st.sampled_from([INT_EDGE - 1, INT_EDGE, -INT_EDGE + 1, -INT_EDGE, 2**63, 2**64]),
)
INTS = st.one_of(st.integers(-3, 3), BIG_INTS)
NUMPY_SCALARS = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
NUMBERS = st.one_of(INTS, st.floats(), st.booleans(), NUMPY_SCALARS)


def is_integer(v) -> bool:
    return isinstance(v, (int, np.integer, np.bool_))


def is_finite(v) -> bool:
    if is_integer(v):
        return abs(int(v)) < INT_EDGE
    return abs(float(v)) <= sys.float_info.max  # float() widens a float32 exactly


def test_int_edge_is_where_float_overflows():
    assert float(INT_EDGE - 1) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(INT_EDGE)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(NUMBERS, st.booleans())
def test_real_reads_finite_numbers_and_refuses_the_rest(value, positive):
    # never an OverflowError or a TypeError for a number: pytest.raises lets neither pass
    if is_finite(value) and (value > 0 or not positive):
        got = real(value, "x", positive)
        assert type(got) is float and got.hex() == float(value).hex()
    else:
        refusal = "^x must be finite and > 0, got " if positive else "^x must be finite, got "
        with pytest.raises(ValueError, match=refusal):
            real(value, "x", positive)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(NUMBERS)
def test_integer_refuses_every_bool_and_float(value):
    if isinstance(value, (bool, np.bool_, float, np.floating)):
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            integer(value, "n")
        with pytest.raises(ValueError, match="^n must be the integer 0 or 2, got "):
            integer(value, "n", (0, 2))
        return
    got = integer(value, "n")
    assert type(got) is int and got == value
    if got in (0, 2):
        assert integer(value, "n", (0, 2)) == got
    else:
        with pytest.raises(ValueError, match="^n must be the integer 0 or 2, got "):
            integer(value, "n", (0, 2))


def admitted(value, finite: bool) -> bool:
    """Whether the array reader takes one entry: >= 0, no int past the float range, and
    no inf where finite is set."""
    if is_integer(value):
        return 0 <= int(value) < INT_EDGE
    return value >= 0 and (not finite or is_finite(value))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(NUMBERS, st.lists(NUMBERS, max_size=6)), st.booleans())
def test_nonnegative_agrees_entrywise(values, finite):
    entries = values if isinstance(values, list) else [values]
    if all(admitted(v, finite) for v in entries):
        got = nonnegative(values, "x", finite)
        assert got.dtype == np.float64 and got.shape == np.shape(values)
        assert [x.hex() for x in got.ravel().tolist()] == [float(v).hex() for v in entries]
    else:
        with pytest.raises(ValueError, match="^x must be "):
            nonnegative(values, "x", finite)

"""The report formatters: decimal text of large integers."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.reports import TEXT_CUTOFF_BITS, _split_text, int_text


@pytest.fixture(autouse=True, scope="module")
def unlimited_int_text():
    # str() of an int over 4300 digits raises unless the limit is lifted
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def _signed(bits, rnd, negative):
    n = rnd.getrandbits(bits) | (1 << bits >> 1)  # exactly `bits` bits; 0 at bits = 0
    return -n if negative else n


SIZES = st.one_of(
    st.integers(0, 70),
    st.integers(TEXT_CUTOFF_BITS - 70, TEXT_CUTOFF_BITS + 70),
    st.integers(2 * TEXT_CUTOFF_BITS - 3, 2 * TEXT_CUTOFF_BITS + 3),
    st.integers(5 * TEXT_CUTOFF_BITS, 9 * TEXT_CUTOFF_BITS),
)


@settings(max_examples=150, deadline=None)
@given(SIZES, st.randoms(use_true_random=False), st.booleans())
def test_int_text_is_str(bits, rnd, negative):
    n = _signed(bits, rnd, negative)
    assert int_text(n) == str(n)
    # the split itself, which Python 3.12 and later leave to str()
    assert _split_text(n) == str(n)


@pytest.mark.parametrize("bits, negative", [(10**6, False), (10**6 + 1, True)])
def test_int_text_is_str_at_a_million_bits(bits, negative):
    n = _signed(bits, random.Random(bits), negative)
    assert int_text(n) == str(n)


def test_int_text_edges():
    for n in (0, 1, -1, 2**TEXT_CUTOFF_BITS, -(2**TEXT_CUTOFF_BITS), 10 ** 20000, 1 - 10 ** 20000):
        assert int_text(n) == str(n)

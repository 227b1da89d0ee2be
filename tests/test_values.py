"""The value protocol: p-adic objects are frozen values that copy and
pickle to equal values with equal hashes."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from padicprob.cylinder import Clopen
from padicprob.padic import Ball, PadicAbs, Sphere
from padicprob.series import FormalSeries

VALUES = [
    pytest.param(PadicAbs(3, -2), "exponent", id="PadicAbs"),
    pytest.param(PadicAbs(5, -math.inf), "prime", id="PadicAbs-zero"),
    pytest.param(Ball(3, Fraction(1, 2), 2), "center", id="Ball"),
    pytest.param(Sphere(5, 1, -1), "radius_exponent", id="Sphere"),
    pytest.param(FormalSeries([1, Fraction(1, 2), 0]), "coeffs", id="FormalSeries"),
    pytest.param(Clopen(3, ["0", "12"]), "words", id="Clopen"),
]


@pytest.mark.parametrize("value,field", VALUES)
def test_fields_and_new_names_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value,field", VALUES)
def test_copies_are_equal_values(value, field):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_unpickled_clopen_keeps_its_trie():
    # the trie marks a full subtree by identity, so the copy rebuilds it
    twin = pickle.loads(pickle.dumps(Clopen(3, ["0", "1"])))
    assert (twin | Clopen(3, ["2"])).is_whole
    assert (twin - Clopen(3, ["1"])) == Clopen(3, ["0"])


def test_equality_needs_the_same_kind():
    assert Ball(3, 0, 1) != Sphere(3, 0, 1)
    assert PadicAbs(3, 0) != 1
    assert FormalSeries([1]) != (Fraction(1),)
    assert Clopen(3, ["0"]) != Clopen(5, ["0"])

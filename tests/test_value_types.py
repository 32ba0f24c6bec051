"""The result types declared with ``_value_type``: frozen and slotted,
equal and hashed by their fields, and unchanged by a pickle round trip."""

import pickle

import pytest

from twuality import (
    BAR,
    ONE,
    PLUS,
    STAR,
    Carrier,
    DeltaMatroidWitness,
    Multimatroid,
    Perm,
    SetSystem,
    TwualityElement,
    UniformizationResult,
    is_delta_matroid,
    restrict,
    uniformize,
)

from conftest import assert_frozen

ss = SetSystem.from_sets
D_CONE = ss(3, [(3,), (1, 3), (2, 3)])
Z = Multimatroid(2, [(1, 2), (2, 1), (3, 3)])


def _samples():
    """Per type: two equal instances built independently, one that differs,
    and the field names."""
    iota = Perm.identity(3)
    return [
        (
            TwualityElement((STAR, ONE), Perm((2, 1))),
            TwualityElement((STAR, ONE), Perm([2, 1])),
            TwualityElement((STAR, PLUS), Perm((2, 1))),
            ("gvec", "perm"),
        ),
        (
            is_delta_matroid(ss(3, [(), (1, 2, 3)])),
            DeltaMatroidWitness(False, "exchange", (), (1, 2, 3), 1),
            DeltaMatroidWitness(True),
            ("valid", "reason", "X", "Y", "u"),
        ),
        (
            uniformize(D_CONE, (STAR, PLUS, PLUS), iota, BAR),
            uniformize(D_CONE, (STAR, PLUS, PLUS), iota, BAR),
            UniformizationResult((ONE,) * 3, D_CONE, BAR, iota),
            ("hvec", "target", "g", "mu"),
        ),
        (Carrier(3), Carrier(3), Carrier(2), ("n",)),
        (
            restrict(Z, [(1, 1), (1, 2), (2, 1)]),
            restrict(Z, [(2, 1), (1, 2), (1, 1)]),
            restrict(Z, [(1, 1)]),
            ("n", "allowed", "independents", "bases"),
        ),
    ]


SAMPLES = _samples()


@pytest.mark.parametrize("a, b, other, names", SAMPLES, ids=[type(a).__name__ for a, *_ in SAMPLES])
def test_frozen_slotted_value(a, b, other, names):
    assert type(a) is type(b) is type(other)
    assert_frozen(a, *names)
    assert not hasattr(a, "__dict__")
    assert a == b and hash(a) == hash(b) and a != other
    assert repr(a) == repr(b) == f"{type(a).__name__}({', '.join(f'{k}={getattr(a, k)!r}' for k in names)})"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(a, protocol))
        assert back == a and hash(back) == hash(a) and repr(back) == repr(a)


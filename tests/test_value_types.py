"""The result types declared with ``_value_type``: frozen and slotted,
equal and hashed by their fields, and unchanged by a pickle round trip.
The constructors that write their slots through the member descriptors
make the same frozen values as the validating ones."""

import pickle
from dataclasses import FrozenInstanceError

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
    medial,
    restrict,
    uniformize,
)
from twuality.set_system import sorted_systems

import ribbon_catalog as cat
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



def _refuses_writes(value, *names):
    """Assigning or deleting each field, or a new name, raises
    ``FrozenInstanceError`` and leaves the field as it was."""
    for name in (*names, "extra"):
        before = getattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, before)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
        assert getattr(value, name, None) is before


def test_slot_writing_constructors_make_frozen_values():
    """``SetSystem.from_table``, ``sorted_systems``, ``Multimatroid.from_table``
    and ``medial`` write their slots through the member descriptors; their
    objects refuse assignment and deletion, and the first three compare and
    hash equal to the validating constructors' objects."""
    validated = [ss(3, fam) for fam in ([()], [(1,), (2, 3)], [(), (1, 2), (1, 3), (2, 3)])]
    trusted = [SetSystem.from_table(3, D.table) for D in validated]
    ordered = sorted_systems([D.table for D in validated], 3)
    assert sorted(validated, key=SetSystem.canonical_key) == list(ordered)
    for D in trusted + list(ordered):
        _refuses_writes(D, "n", "table")
        assert type(D) is SetSystem and not hasattr(D, "__dict__")
    assert trusted == validated and list(map(hash, trusted)) == list(map(hash, validated))
    W = Multimatroid.from_table(2, Z.table)
    _refuses_writes(W, "n", "table")
    assert W == Z and hash(W) == hash(Z) and repr(W) == repr(Z)
    Fm = medial(cat.path_graph([1, -1]))
    _refuses_writes(Fm, "edges", "corner", "pairs", "free_loops", "components")
    assert Fm.corner == (1, 0, 5, 4, 3, 2, 7, 6)
    assert Fm.pairs == (
        (((0, 1), (2, 3)), ((1, 2), (0, 3)), ((0, 2), (1, 3))),
        (((4, 5), (6, 7)), ((5, 7), (4, 6)), ((5, 6), (4, 7))),
    )
    assert (Fm.free_loops, Fm.components) == (0, 1)

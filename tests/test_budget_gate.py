"""The one budget gate, ``BudgetError.check``, as each of the ten capped
engines calls it: ``None`` means the engine's cap constant, an explicit
cap is honoured both ways, and a cap that is not ``None`` or a
non-negative ``int`` is refused as input."""

import pytest

from twuality import (
    BudgetError,
    Multimatroid,
    SetSystem,
    ValidationError,
    is_multimatroid,
    is_tight,
    is_vf_safe,
    lift,
    medial,
    orbit,
    orbit_via_lift,
    spanning_quasi_trees,
    stabilizer_search,
    transition_matroid,
    verify_medial_lift,
)
from twuality.errors import quoted
from twuality.multimatroid import LIFT_CAP, MULTIMATROID_CAP, ORBIT_VIA_LIFT_CAPS
from twuality.orbit_engine import ORBIT_CAPS, STABILIZER_CAPS
from twuality.ribbon import MEDIAL_LIFT_CAP, QUASI_TREE_CAP, TRANSITION_MATROID_CAP
from twuality.set_system import VF_SAFE_DEFAULT_CAP
import ribbon_catalog as cat


def _empty_set(n):
    """``{∅}`` on ``n`` elements: binary, so vf-safe, with a small orbit."""
    return SetSystem(n, [0])


def _one_basis(n):
    return Multimatroid(n, [(1,) * n])


def _bouquet_medial(n):
    return medial(cat.bouquet([1] * n))


def _path(n):
    return cat.path_graph([1] * n)


# per gate: the refusal's head with ``{}`` for the cap, the call, its cap
# keyword, the default cap and a builder of an input of size ``n``
GATES = {
    "orbit": (
        "orbit(full) capped at n <= {}",
        lambda x, **kw: orbit(x, "full", **kw),
        "max_n",
        ORBIT_CAPS["full"],
        _empty_set,
    ),
    "stabilizer_search": (
        "stabilizer_search(all) capped at n <= {}",
        lambda x, **kw: stabilizer_search(x, "all", **kw),
        "max_n",
        STABILIZER_CAPS["all"],
        _empty_set,
    ),
    "is_multimatroid": ("is_multimatroid capped at n <= {}", is_multimatroid, "max_n", MULTIMATROID_CAP, _one_basis),
    "is_tight": ("is_tight capped at n <= {}", is_tight, "max_n", MULTIMATROID_CAP, _one_basis),
    "lift": ("lift capped at n <= {}", lift, "max_n", LIFT_CAP, _empty_set),
    "orbit_via_lift": (
        "orbit_via_lift(full) capped at n <= {}",
        orbit_via_lift,
        "max_n",
        ORBIT_VIA_LIFT_CAPS["full"],
        _empty_set,
    ),
    "transition_matroid": (
        "transition matroid capped at {} medial vertices",
        transition_matroid,
        "max_v",
        TRANSITION_MATROID_CAP,
        _bouquet_medial,
    ),
    "quasi_trees": ("quasi-tree enumeration capped at {} edges", spanning_quasi_trees, "max_e", QUASI_TREE_CAP, _path),
    "verify_medial_lift": ("verification capped at {} edges", verify_medial_lift, "max_e", MEDIAL_LIFT_CAP, _path),
    "is_vf_safe": ("vf-safe closure capped at n <= {}", is_vf_safe, "max_n", VF_SAFE_DEFAULT_CAP, _empty_set),
}


def _refusal(call, x, **kw):
    with pytest.raises(BudgetError) as refused:
        call(x, **kw)
    return str(refused.value)


@pytest.mark.parametrize("gate", GATES)
def test_none_means_the_default_cap(gate):
    """An omitted cap and ``None`` refuse the input one above the default
    with the same text, which names the default."""
    head, call, key, default, make = GATES[gate]
    above = make(default + 1)
    text = _refusal(call, above)
    assert _refusal(call, above, **{key: None}) == text
    assert text.startswith(head.format(default) + f", got {default + 1} (")


@pytest.mark.parametrize("gate", GATES)
def test_explicit_cap_refuses_above_and_admits_at_n(gate):
    """A cap below ``n`` refuses, naming that cap; a cap equal to ``n`` admits."""
    head, call, key, _, make = GATES[gate]
    x = make(2)
    assert _refusal(call, x, **{key: 1}).startswith(head.format(1) + ", got 2 (")
    call(x, **{key: 2})


@pytest.mark.parametrize("cap", ["3", True, False, -1, 2.0], ids=["str", "true", "false", "negative", "float"])
@pytest.mark.parametrize("gate", GATES)
def test_malformed_cap_is_one_validation_error(gate, cap):
    """Only ``None`` or a non-negative ``int`` other than ``bool`` is a cap:
    a ``str`` once ended in a ``TypeError``, ``True`` ran as cap 1 and
    ``-1`` was reported as a budget refusal."""
    head, call, key, _, make = GATES[gate]
    with pytest.raises(ValidationError) as refused:
        call(make(2), **{key: cap})
    name = head.split(" capped at ")[0]
    assert str(refused.value) == f"{name} cap must be None or a non-negative int, got {quoted(cap)}"

import itertools
import random

import pytest
from hypothesis import settings, strategies as st

from twuality import SetSystem, set_system

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def set_systems(max_n=5, proper=False):
    """Strategy for random systems: ground size then a family of masks."""

    def build(n):
        full = 1 << n
        return st.frozensets(
            st.integers(0, full - 1), min_size=1 if proper else 0, max_size=full
        ).map(lambda masks: SetSystem(n, masks))

    return st.integers(0, max_n).flatmap(build)


def assert_frozen(value, *names):
    """The attributes ``names`` of ``value`` refuse rebinding and deletion
    and keep their values, and no new attribute can be added."""
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = None
    with pytest.raises(AttributeError):
        del value.extra


def subset_of(n):
    return st.integers(0, (1 << n) - 1)


@pytest.fixture(scope="session")
def vf_cache():
    """Shared vf-safety verdict cache, one entry per family asked about,
    keyed by ``(n, truth table)``."""
    return {}


@pytest.fixture(scope="session")
def rng():
    return random.Random(20250811)


def vf_walk_families():
    """Seeded inputs of every vf-safety route, n <= 6: every subset of
    ``[3]`` but ``[3]`` plus free elements (a near power set sum, a
    delta-matroid that is not vf-safe), twisted at random and loop
    complemented at one element; ``U(2, 4)`` plus free elements (vf-safe,
    not binary); twists of ``D(A)`` for random symmetric ``A`` (binary);
    random families (mostly not delta-matroids); improper families; and
    ``{∅}`` on no elements."""
    rng = random.Random(22)
    out = []
    for n in range(3, 7):
        near = SetSystem(n, [m | x << 3 for m in range(7) for x in range(1 << n - 3)])
        for _ in range(3):
            table = set_system.fold_flip(set_system.twist1, near.table, n, rng.randrange(1 << n))
            out.append(SetSystem.from_table(n, table))
            out.append(SetSystem.from_table(n, set_system.loop_complement1(table, n, rng.randrange(n))))
    u24 = [a | b for a, b in itertools.combinations((1, 2, 4, 8), 2)]
    out += [SetSystem(4 + k, [m | x << 4 for m in u24 for x in range(1 << k)]) for k in range(3)]
    for _ in range(12):
        n = rng.randint(2, 6)
        rows = [0] * n
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        table, X = set_system._binary_table(rows, n), rng.randrange(1 << n)
        out.append(SetSystem.from_table(n, set_system.fold_flip(set_system.twist1, table, n, X)))
    for _ in range(12):
        n = rng.randint(1, 6)
        out.append(SetSystem(n, rng.sample(range(1 << n), rng.randint(1, 1 << n))))
    return out + [SetSystem(n, []) for n in range(5)] + [SetSystem(0, [0])]

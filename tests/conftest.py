import random

import pytest
from hypothesis import settings, strategies as st

from twuality import SetSystem

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
    """Shared vf-safety verdict cache, keyed by ``(n, class key)`` (the
    least truth table of a twist class); sound because the verdict is
    shared by every system of the closure."""
    return {}


@pytest.fixture(scope="session")
def rng():
    return random.Random(20250811)

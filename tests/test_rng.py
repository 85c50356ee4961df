import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldepth.rng import RngStream

# SHA-256 of the draws below, recorded before the path hash was cached.  A
# change here changes every model init, noise draw and timestep in the
# package.
DRAWS_DIGEST = "c90db82d9f194daacc9e7585d35fb50c102a3f8eb5e1f3ff44f01667d0d9a652"


def _draws():
    s = RngStream(2026, ("gen", 3))
    yield s.normal((5, 3), "tokens", "init")
    yield s.child("level", 2).normal((7,), "tokens", 60, "step")
    yield s.uniform((4,), "w", 1, low=-0.5, high=0.5)
    yield np.asarray(s.integers(1, 101, "t", 3, 2, size=6), dtype="<i8")
    yield RngStream(0).normal((3,), 0)
    yield RngStream(-1, ("ü", 2 ** 70)).normal((2,), "x")


def test_pinned_draws():
    h = hashlib.sha256()
    for a in _draws():
        h.update(np.ascontiguousarray(a).astype(a.dtype.newbyteorder("<")).tobytes())
    assert h.hexdigest() == DRAWS_DIGEST


_component = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.text(max_size=6))


@given(st.integers(0, 2 ** 64), st.lists(_component, max_size=3),
       st.lists(_component, max_size=3), st.lists(_component, max_size=2))
@settings(max_examples=60, deadline=None)
def test_child_equals_extended_prefix(seed, a, b, ids):
    a, b = tuple(a), tuple(b)
    via_child = RngStream(seed, a).child(*b)
    direct = RngStream(seed, a + b)
    assert via_child.prefix == direct.prefix
    assert np.array_equal(via_child.normal((4,), *ids), direct.normal((4,), *ids))


def test_bad_component_rejected():
    with pytest.raises(TypeError):
        RngStream(0, (1.5,))
    with pytest.raises(TypeError):
        RngStream(0).normal((2,), None)

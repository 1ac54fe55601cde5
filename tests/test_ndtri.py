"""`var.ndtri` against `scipy.special.ndtri`, bit for bit.

The scenario stream's normals come from the in-repo port of the Cephes
algorithm; it must give scipy's bits on every input in (0, 1), the deep tail
(the x >= 8 branch) and the branch thresholds included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cblab.var import ndtri, philox_uniforms

special = pytest.importorskip("scipy.special")

EXP_M2 = math.exp(-2.0)
EDGES = [
    EXP_M2, math.nextafter(EXP_M2, 0.0), math.nextafter(EXP_M2, 1.0),
    1.0 - EXP_M2, math.nextafter(1.0 - EXP_M2, 0.0), math.nextafter(1.0 - EXP_M2, 1.0),
    0.5, 2.0**-54, 1.0 - 2.0**-53, 1e-300, 5e-324,
]


def assert_same_bits(u):
    u = np.asarray(u, dtype=np.float64)
    ours, theirs = ndtri(u), special.ndtri(u)
    diff = np.flatnonzero(ours.view(np.int64) != theirs.view(np.int64))
    assert diff.size == 0, [(u[i], ours[i], theirs[i]) for i in diff[:5]]


@pytest.mark.parametrize("seed", [0, 1, 42, 12345])
def test_philox_stream(seed):
    assert_same_bits(philox_uniforms(seed, 250_000))


def test_edges():
    assert_same_bits(EDGES)


def test_deep_tails():
    # both tails down to 1e-321, so the x >= 8 branch runs on each side
    tiny = 10.0 ** -np.linspace(0.5, 321.0, 20_000)
    assert_same_bits(np.concatenate([tiny, 1.0 - tiny[tiny > 1e-16]]))


@settings(max_examples=1000, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_any_float_in_open_interval(u):
    assert_same_bits([u])


def test_domain_ends():
    out = ndtri([0.0, 1.0, -0.5, 1.5])
    assert out[0] == -math.inf and out[1] == math.inf and np.isnan(out[2:]).all()

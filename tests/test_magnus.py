"""Blocked Magnus pipeline against the one-step-at-a-time loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdrive._magnus import (
    _GL_HI,
    _GL_LO,
    BLOCK,
    IDENTITY2,
    magnus_path,
    magnus_segment,
    matmul2,
    su2_exp,
    unitarity_defect,
)
from strongdrive.units import TWO_PI

DELTA = TWO_PI * 2.288
HZ = -0.5 * DELTA
TOL = 1e-12


def loop_segment(u, x_of_t, hz, t0, t1, n_steps):
    """Reference: the per-step loop, one 2x2 product per step."""
    if t1 <= t0 or n_steps < 1:
        return u
    h = (t1 - t0) / n_steps
    edges = t0 + h * np.arange(n_steps)
    x1 = np.asarray(x_of_t(edges + _GL_LO * h))
    x2 = np.asarray(x_of_t(edges + _GL_HI * h))
    ax = 0.5 * h * (x1 + x2)
    ay = -(np.sqrt(3.0) * h * h / 6.0) * hz * (x2 - x1)
    az = h * hz
    for k in range(n_steps):
        u = matmul2(su2_exp(ax[..., k], ay[..., k], az), u)
    return u


def loop_path(u, x_of_t, hz, lo, h, keep):
    """Reference for magnus_path: the same loop over a mesh, recording u
    after every step and gathering at ``keep``."""
    h = np.broadcast_to(h, lo.shape)
    x1 = np.asarray(x_of_t(lo + _GL_LO * h))
    x2 = np.asarray(x_of_t(lo + _GL_HI * h))
    ax = 0.5 * h * (x1 + x2)
    ay = -(np.sqrt(3.0) * h * h / 6.0) * hz * (x2 - x1)
    az = h * hz
    after = [u]
    for k in range(len(lo)):
        u = matmul2(su2_exp(ax[..., k], ay[..., k], az[k]), u)
        after.append(u)
    batch = np.broadcast_shapes(*(a.shape[:-2] for a in after))
    return np.stack([np.broadcast_to(after[m], batch + (2, 2)) for m in keep], axis=-3)


def drive(batch):
    """sigma_x coefficient batched over amplitudes of shape ``batch``."""
    amps = TWO_PI * np.linspace(0.2, 2.5, int(np.prod(batch))).reshape(batch)
    return lambda t: np.multiply.outer(amps, np.cos(DELTA * t + 0.3))


def keeps(n):
    wanted = [0, 0, 1, BLOCK - 1, BLOCK, BLOCK + 1, n - 1, n, n]
    return np.array(sorted(k for k in wanted if 0 <= k <= n))


def mesh(n, seed=7):
    """n steps of uneven sizes starting at t = 0.1."""
    h = np.random.default_rng(seed).uniform(1e-3, 4e-3, n)
    return 0.1 + np.concatenate([[0.0], np.cumsum(h)[:-1]]), h


@pytest.mark.parametrize("batch", [(), (1,), (12,)])
@pytest.mark.parametrize("n", [1, 37, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
class TestAgainstLoop:
    def test_segment(self, batch, n):
        x_of_t = drive(batch)
        u0 = np.broadcast_to(IDENTITY2, batch + (2, 2))
        got = magnus_segment(u0, x_of_t, HZ, 0.2, 0.2 + 2e-3 * n, n)
        want = loop_segment(u0, x_of_t, HZ, 0.2, 0.2 + 2e-3 * n, n)
        assert got.shape == batch + (2, 2)
        assert np.max(np.abs(got - want)) < TOL

    def test_path(self, batch, n):
        x_of_t = drive(batch)
        lo, h = mesh(n)
        keep = keeps(n)
        u0 = su2_exp(0.3, -0.2, 0.5)  # unbatched start, broadcast by the drive
        got = magnus_path(u0, x_of_t, HZ, lo, h, keep)
        want = loop_path(u0, x_of_t, HZ, lo, h, keep)
        assert got.shape == batch + (len(keep), 2, 2)
        assert np.max(np.abs(got - want)) < TOL


def test_no_steps_returns_start():
    u0 = su2_exp(0.1, 0.2, 0.3)
    got = magnus_path(u0, lambda t: np.cos(t), HZ, np.zeros(0), 1e-3, [0, 0])
    assert got.shape == (2, 2, 2)
    assert np.array_equal(got[1], u0)
    assert magnus_segment(u0, np.cos, HZ, 1.0, 1.0, 5) is u0


@settings(max_examples=40, deadline=None)
@given(
    amp=st.floats(0.0, 20.0),
    hz=st.floats(-20.0, 20.0),
    n=st.integers(1, 3 * BLOCK),
    h=st.floats(1e-4, 2e-2),
)
def test_unitarity(amp, hz, n, h):
    u = magnus_segment(IDENTITY2, lambda t: amp * np.cos(DELTA * t), hz, 0.0, n * h, n)
    assert unitarity_defect(u) < TOL


@settings(max_examples=40, deadline=None)
@given(
    amp=st.floats(0.0, 20.0),
    n=st.integers(2, 3 * BLOCK),
    split=st.floats(0.0, 1.0),
)
def test_composition_over_split(amp, n, split):
    k = min(n - 1, max(1, int(split * n)))
    lo, h = mesh(n)

    def x_of_t(t):
        return amp * np.cos(DELTA * t)

    whole = magnus_path(IDENTITY2, x_of_t, HZ, lo, h, [k, n])
    first = magnus_path(IDENTITY2, x_of_t, HZ, lo[:k], h[:k], [k])[0]
    both = magnus_path(first, x_of_t, HZ, lo[k:], h[k:], [n - k])[0]
    assert np.max(np.abs(whole[0] - first)) < TOL
    assert np.max(np.abs(whole[1] - both)) < TOL

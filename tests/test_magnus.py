"""Blocked Magnus pipeline against the one-step-at-a-time loop and against
the same blocked pipeline composing 2x2 matrices."""

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
    unitarity_defect,
)
from strongdrive.units import TWO_PI

DELTA = TWO_PI * 2.288
HZ = -0.5 * DELTA
TOL = 1e-12


def su2_exp(ax, ay, az):
    """exp(-i (ax sx + ay sy + az sz)) for broadcastable coefficient arrays.

    Returns an array of shape broadcast(ax, ay, az).shape + (2, 2).
    """
    ax, ay, az = np.broadcast_arrays(ax, ay, az)
    r = np.sqrt(ax * ax + ay * ay + az * az)
    f = np.sinc(r / np.pi)  # sin(r)/r with the correct r -> 0 limit
    u = np.empty(r.shape + (2, 2), dtype=complex)
    re, im = u.real, u.imag
    re[..., 0, 0] = re[..., 1, 1] = np.cos(r)
    im[..., 1, 1] = az * f
    im[..., 0, 0] = -im[..., 1, 1]
    re[..., 1, 0] = ay * f
    re[..., 0, 1] = -re[..., 1, 0]
    im[..., 0, 1] = im[..., 1, 0] = -ax * f
    return u


def blocked_path_2x2(u, x_of_t, hz, lo, h, keep):
    """Reference for magnus_path, bit for bit: the same blocks, reductions,
    scans and gather, composing full 2x2 matrices with ``matmul2``."""

    def ordered_product(us):
        while us.shape[-3] > 1:
            odd = us[..., us.shape[-3] // 2 * 2 :, :, :]
            us = np.concatenate([matmul2(us[..., 1::2, :, :], us[..., :-1:2, :, :]), odd], axis=-3)
        return us[..., 0, :, :]

    def prefix_products(us):
        d = 1
        while d < us.shape[-3]:
            us[..., d:, :, :] = matmul2(us[..., d:, :, :], us[..., :-d, :, :])
            d *= 2
        return us

    h = np.broadcast_to(h, lo.shape)
    keep = np.asarray(keep, dtype=int)
    done = int(np.searchsorted(keep, 0, side="right"))
    pieces = [np.repeat(u[..., None, :, :], done, axis=-3)]
    for s in range(0, lo.size, BLOCK):
        e = min(s + BLOCK, lo.size)
        x1 = np.asarray(x_of_t(lo[s:e] + _GL_LO * h[s:e]))
        x2 = np.asarray(x_of_t(lo[s:e] + _GL_HI * h[s:e]))
        ax = 0.5 * h[s:e] * (x1 + x2)
        ay = -(np.sqrt(3.0) * h[s:e] * h[s:e] / 6.0) * hz * (x2 - x1)
        us = su2_exp(ax, ay, h[s:e] * hz)
        upto = int(np.searchsorted(keep, e, side="right"))
        if done < upto and keep[done] < e:
            us = prefix_products(us)
            pieces.append(matmul2(us[..., keep[done:upto] - s - 1, :, :], u[..., None, :, :]))
            u = matmul2(us[..., -1, :, :], u)
        else:
            u = matmul2(ordered_product(us), u)
            pieces.append(np.repeat(u[..., None, :, :], upto - done, axis=-3))
        done = upto
    batch = np.broadcast_shapes(*(p.shape[:-3] for p in pieces))
    return np.concatenate([np.broadcast_to(p, batch + p.shape[-3:]) for p in pieces], axis=-3)


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

    def test_path_matches_2x2_pipeline_bit_for_bit(self, batch, n):
        x_of_t = drive(batch)
        lo, h = mesh(n)
        u0 = su2_exp(0.3, -0.2, 0.5)
        # keeps(n) samples inside blocks (scan); [n] alone reduces every block
        for keep in (keeps(n), [n]):
            got = magnus_path(u0, x_of_t, HZ, lo, h, keep)
            assert np.array_equal(got, blocked_path_2x2(u0, x_of_t, HZ, lo, h, keep))


@pytest.mark.parametrize(
    "u0", [np.diag([1.0, 1j]), 2.0 * IDENTITY2, np.array([[0.6, 0.8], [0.8, 0.6]])]
)
def test_start_outside_su2_is_rejected(u0):
    with pytest.raises(ValueError, match="u must be"):
        magnus_path(u0, np.cos, HZ, 0.1 + 1e-3 * np.arange(4), 1e-3, [4])


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

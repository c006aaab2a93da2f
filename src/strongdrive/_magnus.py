"""Fixed-step commutator Magnus integrator for 2x2 Schroedinger propagators.

Each step over [t, t+h] applies the exponential of an exact anti-Hermitian
matrix (two-point Gauss-Legendre collocation, 4th order), so the propagator
stays unitary to machine precision regardless of step size; only the phase
accuracy depends on h.  For H(t) = x(t) sigma_x + hz sigma_z the step is
exp(-i (ax sigma_x + ay sigma_y + az sigma_z)) with

    ax = h (x1 + x2)/2,   az = h hz,   ay = -(sqrt(3) h^2 / 6) hz (x2 - x1),

x1, x2 being the drive coefficient at the two Gauss points.  The ay term is
the leading commutator correction; without it the method is 2nd order.

All propagation runs through ``magnus_path``: mesh -> step unitaries ->
blocked reduce/scan -> gather.  Per block of ``BLOCK`` steps the drive is
evaluated at the Gauss points, one ``su2_exp`` call builds the step
unitaries, and the block is composed by pairwise reduction, or by an
inclusive prefix-product scan when samples fall inside it.  The block is a
fixed number of steps whatever the batch, so a batched call and its one-row
calls agree bit for bit; against stepping one unitary at a time only the
association of the floating-point products differs.
"""

from __future__ import annotations

import numpy as np

_GL_LO = 0.5 - np.sqrt(3.0) / 6.0
_GL_HI = 0.5 + np.sqrt(3.0) / 6.0

#: Hard floor on the internal step (ns); refinement below this fails.
STEP_FLOOR = 1e-6

#: Steps per block of ``magnus_path``; fixed so that block edges, and with
#: them the floating-point results, do not depend on the batch size.
BLOCK = 256

IDENTITY2 = np.eye(2, dtype=complex)


def su2_exp(ax, ay, az):
    """exp(-i (ax sx + ay sy + az sz)) for broadcastable coefficient arrays.

    Returns an array of shape broadcast(ax, ay, az).shape + (2, 2).
    """
    ax, ay, az = np.broadcast_arrays(ax, ay, az)
    r = np.sqrt(ax * ax + ay * ay + az * az)
    f = np.sinc(r / np.pi)  # sin(r)/r with the correct r -> 0 limit
    u = np.empty(r.shape + (2, 2), dtype=complex)
    re, im = u.real, u.imag  # filled through real views: no complex temporaries
    re[..., 0, 0] = re[..., 1, 1] = np.cos(r)
    im[..., 1, 1] = az * f
    im[..., 0, 0] = -im[..., 1, 1]
    re[..., 1, 0] = ay * f
    re[..., 0, 1] = -re[..., 1, 0]
    im[..., 0, 1] = im[..., 1, 0] = -ax * f
    return u


def matmul2(a, b):
    """Batched 2x2 matrix product a @ b (cheaper than einsum at this size)."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (2, 2)
    out = np.empty(shape, dtype=complex)
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


def _step_unitaries(x_of_t, hz, lo, h):
    """Magnus step unitaries for steps [lo, lo + h], time axis at -3."""
    x1 = np.asarray(x_of_t(lo + _GL_LO * h))
    x2 = np.asarray(x_of_t(lo + _GL_HI * h))
    ax = 0.5 * h * (x1 + x2)
    ay = -(np.sqrt(3.0) * h * h / 6.0) * hz * (x2 - x1)
    return su2_exp(ax, ay, h * hz)


def _ordered_product(us):
    """U[n-1] ... U[1] U[0] over axis -3, by pairwise reduction."""
    while us.shape[-3] > 1:
        odd = us[..., us.shape[-3] // 2 * 2 :, :, :]  # unpaired last factor, if any
        us = np.concatenate([matmul2(us[..., 1::2, :, :], us[..., :-1:2, :, :]), odd], axis=-3)
    return us[..., 0, :, :]


def _prefix_products(us):
    """Inclusive prefix products U[k] ... U[0] over axis -3, in place: a
    Hillis-Steele scan, each pass composing entry k with entry k - d."""
    d = 1
    while d < us.shape[-3]:
        us[..., d:, :, :] = matmul2(us[..., d:, :, :], us[..., :-d, :, :])
        d *= 2
    return us


def magnus_path(u, x_of_t, hz, lo, h, keep):
    """Advance ``u`` over a mesh of steps; return it after ``keep[j]`` steps.

    Step k spans [lo[k], lo[k] + h[k]] (``h`` may be a scalar) and must not
    straddle a drive kink.  ``x_of_t`` maps times to the sigma_x coefficient,
    optionally batched with the time axis last.  ``keep`` holds non-decreasing
    step counts in [0, len(lo)].  Returns shape batch + (len(keep), 2, 2).
    """
    h = np.broadcast_to(h, lo.shape)
    keep = np.asarray(keep, dtype=int)
    done = int(np.searchsorted(keep, 0, side="right"))
    pieces = [np.repeat(u[..., None, :, :], done, axis=-3)]
    for s in range(0, lo.size, BLOCK):
        e = min(s + BLOCK, lo.size)
        us = _step_unitaries(x_of_t, hz, lo[s:e], h[s:e])
        upto = int(np.searchsorted(keep, e, side="right"))
        if done < upto and keep[done] < e:  # samples inside the block
            us = _prefix_products(us)
            pieces.append(matmul2(us[..., keep[done:upto] - s - 1, :, :], u[..., None, :, :]))
            u = matmul2(us[..., -1, :, :], u)
        else:
            u = matmul2(_ordered_product(us), u)
            pieces.append(np.repeat(u[..., None, :, :], upto - done, axis=-3))
        done = upto
    batch = np.broadcast_shapes(*(p.shape[:-3] for p in pieces))
    return np.concatenate([np.broadcast_to(p, batch + p.shape[-3:]) for p in pieces], axis=-3)


def magnus_segment(u, x_of_t, hz, t0, t1, n_steps):
    """``magnus_path`` on a uniform mesh: advance ``u`` over [t0, t1], where
    the drive is smooth, in ``n_steps`` equal steps."""
    if t1 <= t0 or n_steps < 1:
        return u
    h = (t1 - t0) / n_steps
    return magnus_path(u, x_of_t, hz, t0 + h * np.arange(n_steps), h, [n_steps])[..., 0, :, :]


def unitarity_defect(u):
    """max |U^dag U - I| entry over the batch."""
    u = np.asarray(u)
    prod = matmul2(np.conj(np.swapaxes(u, -1, -2)), u)
    return float(np.max(np.abs(prod - np.eye(2))))

"""Fixed-step commutator Magnus integrator for 2x2 Schroedinger propagators.

Each step over [t, t+h] applies the exponential of an exact anti-Hermitian
matrix (two-point Gauss-Legendre collocation, 4th order; Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 151 (2009)), so the propagator stays unitary to
machine precision regardless of step size; only the phase accuracy depends
on h.  For H(t) = x(t) sigma_x + hz sigma_z the step is
exp(-i (ax sigma_x + ay sigma_y + az sigma_z)) with

    ax = h (x1 + x2)/2,   az = h hz,   ay = -(sqrt(3) h^2 / 6) hz (x2 - x1),

x1, x2 being the drive coefficient at the two Gauss points.  The ay term is
the leading commutator correction; without it the method is 2nd order.

Every step is in SU(2), U = [[a, -conj(b)], [b, conj(a)]], so the pipeline
holds only its first column, the pair p = (a, b) (a trailing axis of 2),
and composes pairs by the first column of the 2x2 product:

    (p q)_a = pa qa - conj(pb) qb,   (p q)_b = pb qa + conj(pa) qb,

4 complex products where the 2x2 product takes 8.  Each is the 2x2
product's own expression with the same operands in the same order, and
negation and conjugation are exact (conj(x) conj(y) = conj(x y) in IEEE
arithmetic), so the pairs carry exactly the first columns of the 2x2
products and the gather's [[a, -conj(b)], [b, conj(a)]] their other
entries: the results are those of composing 2x2 matrices, bit for bit.

All propagation runs through ``magnus_path``: mesh -> step pairs -> blocked
reduce/scan -> gather.  Per block of ``BLOCK`` steps the drive is evaluated
at the Gauss points, the step pairs are built in one pass, and the block is
composed by pairwise reduction, or by an inclusive prefix-product scan when
samples fall inside it.  The block is a fixed number of steps whatever the
batch, so a batched call and its one-row calls agree bit for bit; against
stepping one unitary at a time only the association of the floating-point
products differs.
"""

from __future__ import annotations

import numpy as np

_GL_LO = 0.5 - np.sqrt(3.0) / 6.0
_GL_HI = 0.5 + np.sqrt(3.0) / 6.0

#: Steps per block of ``magnus_path``; fixed so that block edges, and with
#: them the floating-point results, do not depend on the batch size.
BLOCK = 256

IDENTITY2 = np.eye(2, dtype=complex)

#: sigma_z M sigma_z flips the signs of a 2x2 matrix M's off-diagonal entries.
SZ_CONJ = np.array([[1.0, -1.0], [-1.0, 1.0]])


def matmul2(a, b):
    """Batched 2x2 matrix product a @ b (cheaper than einsum at this size)."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (2, 2)
    out = np.empty(shape, dtype=complex)
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


def _mul(p, q):
    """SU(2) product p q of broadcastable pairs (a, b) on the last axis."""
    pa, pb, qa, qb = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), dtype=complex)
    a, b = out[..., 0], out[..., 1]
    np.multiply(pa, qa, out=a)
    a -= np.conj(pb) * qb
    np.multiply(pb, qa, out=b)
    b += np.conj(pa) * qb
    return out


def _step_pairs(x_of_t, hz, lo, h):
    """Magnus step pairs exp(-i (ax sx + ay sy + az sz)) -> (a, b) for steps
    [lo, lo + h], time axis at -2: a = cos r - i az f, b = (ay - i ax) f,
    f = sin(r)/r."""
    x1 = np.asarray(x_of_t(lo + _GL_LO * h))
    x2 = np.asarray(x_of_t(lo + _GL_HI * h))
    ax = 0.5 * h * (x1 + x2)
    ay = -(np.sqrt(3.0) * h * h / 6.0) * hz * (x2 - x1)
    az = h * hz
    r = np.sqrt(ax * ax + ay * ay + az * az)
    f = np.sinc(r / np.pi)  # sin(r)/r with the correct r -> 0 limit
    p = np.empty(r.shape + (2,), dtype=complex)
    re, im = p.real, p.imag  # filled through real views: no complex temporaries
    re[..., 0] = np.cos(r)
    im[..., 0] = -(az * f)
    re[..., 1] = ay * f
    im[..., 1] = -ax * f
    return p


def _ordered_product(ps):
    """p[n-1] ... p[1] p[0] over axis -2, by pairwise reduction."""
    while ps.shape[-2] > 1:
        odd = ps[..., ps.shape[-2] // 2 * 2 :, :]  # unpaired last factor, if any
        ps = np.concatenate([_mul(ps[..., 1::2, :], ps[..., :-1:2, :]), odd], axis=-2)
    return ps[..., 0, :]


def _prefix_products(ps):
    """Inclusive prefix products p[k] ... p[0] over axis -2, in place: a
    Hillis-Steele scan, each pass composing entry k with entry k - d."""
    d = 1
    while d < ps.shape[-2]:
        ps[..., d:, :] = _mul(ps[..., d:, :], ps[..., :-d, :])
        d *= 2
    return ps


def _start_pair(u):
    """The pair (a, b) of a start ``u``, which must be exactly of the SU(2)
    form [[a, -conj(b)], [b, conj(a)]] with |a|^2 + |b|^2 = 1 to 1e-10: the
    pipeline carries the first column alone."""
    u = np.asarray(u)
    a, b = u[..., 0, 0], u[..., 1, 0]
    if not (
        np.array_equal(u[..., 1, 1], np.conj(a))
        and np.array_equal(u[..., 0, 1], -np.conj(b))
        and np.max(np.abs(a.real**2 + a.imag**2 + b.real**2 + b.imag**2 - 1.0)) <= 1e-10
    ):
        raise ValueError("u must be an SU(2) matrix [[a, -conj(b)], [b, conj(a)]]")
    return u[..., :, 0]


def _gather(ps):
    """2x2 matrices [[a, -conj(b)], [b, conj(a)]] of pairs ``ps``."""
    u = np.empty(ps.shape + (2,), dtype=complex)
    u[..., :, 0] = ps
    u[..., 0, 1] = -np.conj(ps[..., 1])
    u[..., 1, 1] = np.conj(ps[..., 0])
    return u


def magnus_path(u, x_of_t, hz, lo, h, keep):
    """Advance ``u`` over a mesh of steps; return it after ``keep[j]`` steps.

    Step k spans [lo[k], lo[k] + h[k]] (``h`` may be a scalar) and must not
    straddle a drive kink.  ``x_of_t`` maps times to the sigma_x coefficient,
    optionally batched with the time axis last.  ``keep`` holds non-decreasing
    step counts in [0, len(lo)].  ``u`` must be in SU(2) (else ValueError).
    Returns shape batch + (len(keep), 2, 2).
    """
    p = _start_pair(u)
    h = np.broadcast_to(h, lo.shape)
    keep = np.asarray(keep, dtype=int)
    done = int(np.searchsorted(keep, 0, side="right"))
    pieces = [np.repeat(p[..., None, :], done, axis=-2)]
    for s in range(0, lo.size, BLOCK):
        e = min(s + BLOCK, lo.size)
        ps = _step_pairs(x_of_t, hz, lo[s:e], h[s:e])
        upto = int(np.searchsorted(keep, e, side="right"))
        if done < upto and keep[done] < e:  # samples inside the block
            ps = _prefix_products(ps)
            pieces.append(_mul(ps[..., keep[done:upto] - s - 1, :], p[..., None, :]))
            p = _mul(ps[..., -1, :], p)
        else:
            p = _mul(_ordered_product(ps), p)
            pieces.append(np.repeat(p[..., None, :], upto - done, axis=-2))
        done = upto
    batch = np.broadcast_shapes(*(q.shape[:-2] for q in pieces))
    pairs = np.concatenate([np.broadcast_to(q, batch + q.shape[-2:]) for q in pieces], axis=-2)
    return _gather(pairs)


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

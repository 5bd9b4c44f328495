"""Quaternion and imaginary-quaternion (su(2)) algebra on numpy arrays.

Quaternions are arrays of shape (..., 4) ordered (w, x, y, z); imaginary
quaternions (the Lie algebra values carried by all gauge quantities) are
arrays of shape (..., 3).  Everything is vectorized over leading axes.
"""

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])

# the basis e = (1, i, j, k) used for coordinate 1-forms dzeta^a <-> e_a
E_BASIS = np.stack([ONE, I, J, K])


def qmul(a, b):
    """Hamilton product, vectorized over leading axes."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    aw, av = a[..., 0], a[..., 1:]
    bw, bv = b[..., 0], b[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1)
    v = (aw[..., None] * bv + bw[..., None] * av + cross(av, bv))
    return np.concatenate([w[..., None], v], axis=-1)


def qconj(q):
    out = np.array(q, float, copy=True)
    out[..., 1:] *= -1.0
    return out


def qnorm2(q):
    q = np.asarray(q, float)
    return np.sum(q * q, axis=-1)


def im_part(q):
    """Drop the scalar part: Quaternion (...,4) -> ImQuaternion (...,3)."""
    return np.asarray(q, float)[..., 1:].copy()


def from_im(s):
    """Embed an ImQuaternion (...,3) as a pure quaternion (...,4)."""
    s = np.asarray(s, float)
    out = np.zeros(s.shape[:-1] + (4,))
    out[..., 1:] = s
    return out


def cross(a, b):
    """Cross product a x b over the trailing axis (3), written out: numpy's
    products and differences without its axis moves."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1,
                     a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0], axis=-1)


def bracket(a, b):
    """Commutator ab - ba of pure imaginary quaternions: 2 a x b."""
    return 2.0 * cross(a, b)


def exp_im(s):
    """exp of a pure imaginary quaternion: cos|s| + (s/|s|) sin|s| (unit)."""
    s = np.asarray(s, float)
    n = np.sqrt(np.sum(s * s, axis=-1))
    w = np.cos(n)
    # sin|s|/|s| is analytic; guard the removable singularity at 0
    small = n < 1e-30
    sinc = np.where(small, 1.0, np.sin(np.where(small, 1.0, n)) / np.where(small, 1.0, n))
    return np.concatenate([w[..., None], sinc[..., None] * s], axis=-1)


def conjugate_im(q, s):
    """q^{-1} s q for unit quaternion q and imaginary s; stays imaginary."""
    return im_part(qmul(qmul(qconj(q), from_im(s)), q))

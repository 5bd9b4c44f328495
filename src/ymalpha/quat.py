"""Quaternion and imaginary-quaternion (su(2)) algebra on numpy arrays.

Quaternions are arrays of shape (..., 4) ordered (w, x, y, z); imaginary
quaternions (the Lie algebra values carried by all gauge quantities) are
arrays of shape (..., 3).  Everything is vectorized over leading axes.
The products are written once, on tuples of component arrays
(cross_components, qmul_components); the array forms split their operands
into components and join the results.
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
    return from_components(qmul_components(components(a), components(b)))


def qconj(q):
    return from_components(conj_components(components(np.asarray(q, float))))


def qnorm2(q):
    q = np.asarray(q, float)
    return np.sum(q * q, axis=-1)


def im_part(q):
    """Drop the scalar part: Quaternion (...,4) -> ImQuaternion (...,3)."""
    return np.asarray(q, float)[..., 1:].copy()


def cross(a, b):
    """Cross product a x b over the trailing axis (3)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return from_components(cross_components(components(a), components(b)))


def cross_components(a, b):
    """The three components of a x b, from the components (a0, a1, a2) of a
    and those of b, written out: numpy's products and differences without
    its axis moves."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def qmul_components(a, b):
    """The four components of the Hamilton product ab, from the components
    (a0, a1, a2, a3) of a and those of b.  The scalar part sums the three
    imaginary products as np.sum does over a length-3 axis: from +0, in
    turn, so an all -0 sum is +0 there too."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - (((0.0 + a1 * b1) + a2 * b2) + a3 * b3),) \
        + qmul_im_components(a, b)


def qmul_im_components(a, b):
    """The three imaginary components of qmul_components(a, b), computed
    without its scalar part: a0 b + b0 a + a x b."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    c1, c2, c3 = cross_components((a1, a2, a3), (b1, b2, b3))
    return (a0 * b1 + b0 * a1) + c1, (a0 * b2 + b0 * a2) + c2, \
        (a0 * b3 + b0 * a3) + c3


def components(x):
    """The components of x along its trailing axis, as views."""
    return tuple(x[..., k] for k in range(x.shape[-1]))


def conj_components(q):
    """The components of conj(q) from those of q."""
    return (q[0],) + tuple(-c for c in q[1:])


def from_components(parts):
    """One (..., len(parts)) array holding the component arrays in turn."""
    out = np.empty(np.broadcast(*parts).shape + (len(parts),))
    for k, p in enumerate(parts):
        out[..., k] = p
    return out


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
    """q^{-1} s q for unit quaternion q and imaginary s; stays imaginary.
    As conj(q) (0, s) q, the pure quaternion's scalar a literal +0."""
    q = components(np.asarray(q, float))
    t = qmul_components(conj_components(q),
                        (0.0,) + components(np.asarray(s, float)))
    return from_components(qmul_im_components(t, q))

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from ymalpha import quat

finite = st.floats(-10.0, 10.0, allow_nan=False)
quats = st.tuples(finite, finite, finite, finite).map(
    lambda t: np.array(t, float))
ims = st.tuples(finite, finite, finite).map(lambda t: np.array(t, float))


def test_basis_table():
    # i j = k and cyclic, i^2 = -1
    assert np.allclose(quat.qmul(quat.I, quat.J), quat.K)
    assert np.allclose(quat.qmul(quat.J, quat.K), quat.I)
    assert np.allclose(quat.qmul(quat.K, quat.I), quat.J)
    for e in (quat.I, quat.J, quat.K):
        assert np.allclose(quat.qmul(e, e), -quat.ONE)


@given(quats, quats, quats)
def test_associative(a, b, c):
    lhs = quat.qmul(quat.qmul(a, b), c)
    rhs = quat.qmul(a, quat.qmul(b, c))
    assert np.allclose(lhs, rhs, atol=1e-9)


@given(quats, quats)
def test_norm_multiplicative(a, b):
    assert np.isclose(quat.qnorm2(quat.qmul(a, b)),
                      quat.qnorm2(a) * quat.qnorm2(b), rtol=1e-9, atol=1e-12)


@given(quats, quats)
def test_conj_antihomomorphism(a, b):
    lhs = quat.qconj(quat.qmul(a, b))
    rhs = quat.qmul(quat.qconj(b), quat.qconj(a))
    assert np.allclose(lhs, rhs, atol=1e-9)


@given(quats)
def test_inverse(a):
    # q^-1 = conj(q) / |q|^2 on both sides
    if quat.qnorm2(a) < 1e-12:
        return
    inv = quat.qconj(a) / quat.qnorm2(a)
    assert np.allclose(quat.qmul(a, inv), quat.ONE, atol=1e-9)
    assert np.allclose(quat.qmul(inv, a), quat.ONE, atol=1e-9)


@st.composite
def bracket_pairs(draw):
    """Im H arrays of mutually broadcastable shapes (..., 3); the first is a
    strided gamma[..., a, :] slice of a (..., 4, 3) array, as
    BasicChart.divergence passes it."""
    shapes = draw(mutually_broadcastable_shapes(
        signature="(3),(3)->(3)", max_dims=3, max_side=3))
    sa, sb = shapes.input_shapes
    gamma = draw(arrays(float, sa[:-1] + (4, 3), elements=finite))
    a = gamma[..., draw(st.integers(0, 3)), :]
    b = draw(arrays(float, sb, elements=finite))
    return a, b


@given(bracket_pairs())
def test_bracket_is_double_cross(pair):
    # bitwise: the written-out products are np.cross's own
    a, b = pair
    for a, b in ((a, b), (b, a)):
        got, want = quat.bracket(a, b), 2.0 * np.cross(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@given(ims)
def test_exp_im_unit(x):
    assert np.isclose(quat.qnorm2(quat.exp_im(x)), 1.0, rtol=1e-12)


def test_exp_im_axis():
    # exp of t*i/... rotates by |t|; at |x| = pi the exponential is -1
    x = np.array([np.pi, 0.0, 0.0])
    assert np.allclose(quat.exp_im(x), -quat.ONE, atol=1e-12)
    assert np.allclose(quat.exp_im(np.zeros(3)), quat.ONE)


@given(ims, ims)
def test_conjugation_preserves_norm_and_bracket(x, y):
    s = quat.exp_im(x)
    cy = quat.conjugate_im(s, y)
    assert np.isclose(quat.qnorm2(cy), quat.qnorm2(y), rtol=1e-9, atol=1e-12)
    lhs = quat.conjugate_im(s, quat.bracket(y, y + x))
    rhs = quat.bracket(quat.conjugate_im(s, y), quat.conjugate_im(s, y + x))
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_broadcast_shapes():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 7, 4))
    b = rng.normal(size=(7, 4))
    assert quat.qmul(a, b).shape == (5, 7, 4)
    assert quat.im_part(a).shape == (5, 7, 3)
    assert quat.from_im(quat.im_part(a)).shape == (5, 7, 4)

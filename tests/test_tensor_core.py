"""Tensor algebra tests.

Groups:
 1. Correspondence matrix: basis images, linearity, isometry, round trip.
 2. Determinant and signed biaxiality against brute-force matrix oracles.
 3. Reduced potential and its tangential gradient (finite-difference oracle);
    properties of the closed-form Hessian of the 0-homogeneous extension.
 4. Invariance under the degree-(1,2) circle action; extremal-beta
    eigenvalue structure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ldglab import tensor_core as tc

RNG = np.random.default_rng(20260809)


def random_unit(n=1):
    v = RNG.standard_normal((n, 5))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [tc.UVector.from_real5(row) for row in v]


def test_basis_images():
    assert np.allclose(tc.u_to_q(tc.UVector(1.0, 0j, 0j)), tc.E0)
    assert np.allclose(tc.u_to_q(tc.UVector(0.0, 1.0 + 0j, 0j)), tc.E11)
    assert np.allclose(tc.u_to_q(tc.UVector(0.0, 1j, 0j)), tc.E12)
    assert np.allclose(tc.u_to_q(tc.UVector(0.0, 0j, 1.0 + 0j)), tc.E21)
    assert np.allclose(tc.u_to_q(tc.UVector(0.0, 0j, 1j)), tc.E22)


def test_zero_maps_to_zero():
    assert np.allclose(tc.u_to_q(tc.UVector(0.0, 0j, 0j)), 0.0)


def test_uniaxial_example():
    # (-1/2, 0, sqrt3/2) is the hedgehog value sqrt(3/2)(n x n - Id/3), n = e1.
    u = tc.UVector(-0.5, 0j, complex(np.sqrt(3.0) / 2.0))
    n = np.array([1.0, 0.0, 0.0])
    expected = np.sqrt(1.5) * (np.outer(n, n) - np.eye(3) / 3.0)
    assert np.allclose(tc.u_to_q(u), expected, atol=1e-15)


def test_linearity_exact():
    u, v = random_unit(2)
    a, b = 0.7, -1.3
    lhs = tc.u_to_q(
        tc.UVector(a * u.u0 + b * v.u0, a * u.u1 + b * v.u1, a * u.u2 + b * v.u2)
    )
    rhs = a * tc.u_to_q(u) + b * tc.u_to_q(v)
    assert np.array_equal(lhs, rhs) or np.allclose(lhs, rhs, atol=1e-16)


def test_isometry_and_roundtrip():
    worst = 0.0
    for u in random_unit(1000):
        q = tc.u_to_q(u)
        assert abs(np.sqrt(np.sum(q * q)) - u.norm()) < 1e-13
        v = tc.q_to_u(q)
        worst = max(
            worst,
            abs(v.u0 - u.u0) + abs(v.u1 - u.u1) + abs(v.u2 - u.u2),
        )
    assert worst < 1e-13


def test_q_to_u_on_basis():
    assert tc.q_to_u(tc.E0).as_real5() == pytest.approx([1, 0, 0, 0, 0])
    assert tc.q_to_u(tc.E21).as_real5() == pytest.approx([0, 0, 0, 1, 0])


def test_q_to_u_rejects_bad_input():
    bad = np.eye(3)  # not traceless
    with pytest.raises(ValueError):
        tc.q_to_u(bad)
    asym = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        tc.q_to_u(asym)


def test_det_examples_and_oracle():
    assert tc.det_q(tc.UVector(1.0, 0j, 0j)) == pytest.approx(1.0 / (3.0 * np.sqrt(6.0)))
    assert tc.det_q(tc.UVector(0.0, 0j, 0j)) == 0.0
    for u in random_unit(300):
        brute = np.linalg.det(tc.u_to_q(u))
        assert abs(tc.det_q(u) - brute) < 1e-12


def test_beta_examples():
    assert tc.beta_tilde(tc.UVector(1.0, 0j, 0j)) == pytest.approx(1.0)
    assert tc.beta_tilde(tc.UVector(-1.0, 0j, 0j)) == pytest.approx(-1.0)
    u = tc.UVector(-0.5, 0j, complex(np.sqrt(3.0) / 2.0))
    assert tc.beta_tilde(u) == pytest.approx(1.0)


def test_beta_scale_invariance_and_range():
    for u in random_unit(2000):
        b = tc.beta_tilde(u)
        assert -1.0 - 1e-12 <= b <= 1.0 + 1e-12
        scaled = tc.UVector(2.5 * u.u0, 2.5 * u.u1, 2.5 * u.u2)
        assert tc.beta_tilde(scaled) == pytest.approx(b, abs=1e-12)


def test_beta_zero_input_raises():
    with pytest.raises(ValueError):
        tc.beta_tilde(tc.UVector(0.0, 0j, 0j))


def test_beta_extremes_double_eigenvalue():
    # |beta| = 1 iff the min/max eigenvalue of Q is double.
    hits = 0
    for u in random_unit(4000):
        b = tc.beta_tilde(u)
        if abs(b) > 1 - 1e-8:
            ev = np.sort(np.linalg.eigvalsh(tc.u_to_q(u)))
            if b > 0:
                assert abs(ev[0] - ev[1]) < 1e-3
            else:
                assert abs(ev[1] - ev[2]) < 1e-3
            hits += 1
    # Also check exact uniaxial points.
    for sign in (1.0, -1.0):
        u = tc.UVector(sign, 0j, 0j)
        ev = np.sort(np.linalg.eigvalsh(tc.u_to_q(u)))
        pair = (ev[0], ev[1]) if sign > 0 else (ev[1], ev[2])
        assert pair[0] == pytest.approx(pair[1], abs=1e-14)


def test_circle_action_invariance():
    for u in random_unit(200):
        alpha = RNG.uniform(0, 2 * np.pi)
        ru = tc.UVector(
            u.u0, u.u1 * np.exp(1j * alpha), u.u2 * np.exp(2j * alpha)
        )
        assert tc.beta_tilde(ru) == pytest.approx(tc.beta_tilde(u), abs=1e-12)
        assert tc.potential_w(ru) == pytest.approx(tc.potential_w(u), abs=1e-12)


def test_potential_examples():
    assert tc.potential_w(tc.UVector(1.0, 0j, 0j)) == pytest.approx(0.0, abs=1e-15)
    val = tc.potential_w(tc.UVector(-1.0, 0j, 0j))
    assert val == pytest.approx(2.0 / (3.0 * np.sqrt(6.0)))
    # uS endpoint values.
    assert tc.potential_w(tc.UVector(-0.5, 0j, complex(np.sqrt(3) / 2))) == pytest.approx(0.0, abs=1e-15)


def test_potential_rejects_nonunit():
    with pytest.raises(ValueError):
        tc.potential_w(tc.UVector(0.5, 0j, 0j))


def test_grad_w_vanishes_on_vacuum():
    assert tc.grad_w_tangential(tc.UVector(1.0, 0j, 0j)).norm() < 1e-12
    # A rotated vacuum point: hedgehog direction n = (1,1,1)/sqrt3.
    n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    q = np.sqrt(1.5) * (np.outer(n, n) - np.eye(3) / 3.0)
    u = tc.q_to_u(q)
    assert abs(tc.beta_tilde(u) - 1.0) < 1e-12
    assert tc.grad_w_tangential(u).norm() < 1e-10


def test_grad_w_matches_finite_differences():
    h = 1e-5
    for u in random_unit(50):
        g = tc.grad_w_tangential(u).as_real5()
        v = u.as_real5()
        assert abs(np.dot(g, v)) < 1e-10  # tangency
        for _ in range(4):
            t = RNG.standard_normal(5)
            t -= np.dot(t, v) * v
            t /= np.linalg.norm(t)
            up = (v + h * t) / np.linalg.norm(v + h * t)
            um = (v - h * t) / np.linalg.norm(v - h * t)
            fd = (
                tc.potential_w(tc.UVector.from_real5(up))
                - tc.potential_w(tc.UVector.from_real5(um))
            ) / (2 * h)
            an = np.dot(g, t)
            assert fd == pytest.approx(an, rel=1e-6, abs=1e-9)


def test_grad_w_matrix_oracle():
    # -(Q^2 - Id/3 - tr(Q^3) Q) converted back to u-coordinates.
    for u in random_unit(100):
        q = tc.u_to_q(u)
        mat = -(q @ q - np.eye(3) / 3.0 - np.trace(q @ q @ q) * q)
        expected = tc.q_to_u(mat).as_real5()
        got = tc.grad_w_tangential(u).as_real5()
        assert np.max(np.abs(expected - got)) < 1e-12


_real5 = arrays(float, 5, elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(
    v=_real5.filter(lambda v: 0.3 < np.linalg.norm(v) and abs(np.linalg.norm(v) - 1.0) > 1e-3),
    t=_real5.filter(lambda t: np.linalg.norm(t) > 0.1),
    scale=st.floats(0.2, 5.0),
)
def test_hessian_w_symmetric_and_consistent(v, t, scale):
    # Closed form at nonzero, non-unit points of R^5.
    h = tc.hessian_w_homog(v)
    g = tc.grad_w_homog(v)
    size = np.max(np.abs(h))
    assert np.array_equal(h, h.T)
    # Directional consistency with central differences of the gradient.
    step = 1e-6 * np.linalg.norm(v) / np.linalg.norm(t)
    fd = (tc.grad_w_homog(v + step * t) - tc.grad_w_homog(v - step * t)) / (2 * step)
    assert np.max(np.abs(h @ t - fd)) <= 1e-6 * size * np.linalg.norm(t)
    # Euler's relation for the 0-homogeneous W: D^2W(v) v = -DW(v).
    assert np.max(np.abs(h @ v + g)) <= 1e-12 * size * np.linalg.norm(v)
    # Homogeneous of degree -2, also through the stacked (..., 5) form.
    stacked = tc.hessian_w_homog(np.stack([v, scale * v]))
    assert np.max(np.abs(stacked[0] - h)) <= 1e-14 * size
    assert np.max(np.abs(stacked[1] - h / scale**2)) <= 1e-12 * size / scale**2
    with pytest.raises(ValueError):
        tc.hessian_w_homog(np.zeros(5))

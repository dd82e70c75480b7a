"""Algebra of admissible Q-tensors and their R+C+C coordinates.

A liquid-crystal order parameter is a symmetric traceless 3x3 matrix Q.
The five-dimensional space of such matrices carries a distinguished
orthonormal basis (E0, E11, E12, E21, E22) splitting it into rotation
eigenspaces of degree 0, 1, 2 about the vertical axis, which identifies
Q with a point u = (u0, u1, u2) in R + C + C.  Everything downstream
(energies, Euler-Lagrange systems, descent) works in u-coordinates; the
matrix picture is kept around as an oracle.

Conventions:
  * beta(u) in [-1, 1] is the signed biaxiality sqrt(6) tr(Q^3)/|Q|^3;
    +1 is the positively uniaxial vacuum, -1 the negatively uniaxial
    disclination-core value.
  * The reduced potential on the unit sphere is
    W(u) = (1 - beta(u)) / (3 sqrt 6) >= 0, zero exactly on the vacuum
    manifold (an embedded RP^2).
  * All vectorized helpers accept arrays f0 (real), f1, f2 (complex, or
    real on the real subspace Im f1 = Im f2 = 0) of a common shape and
    broadcast elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)

#: Unit-norm tolerance accepted on entry by sphere-constrained operations.
UNIT_NORM_TOL = 1e-10

#: Symmetry/tracelessness tolerance accepted by q_to_u.
TENSOR_TOL = 1e-12

# Orthonormal basis of the admissible space, degree 0 / 1 / 2 blocks.
E0 = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]]) / SQRT6
E11 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]) / SQRT2
E12 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / SQRT2
E21 = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]]) / SQRT2
E22 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / SQRT2


@dataclass(frozen=True)
class UVector:
    """A point of R + C + C, the universal state of the model."""

    u0: float
    u1: complex
    u2: complex

    def norm_sq(self) -> float:
        return float(self.u0**2 + abs(self.u1) ** 2 + abs(self.u2) ** 2)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def as_real5(self) -> np.ndarray:
        """Real coordinates (u0, Re u1, Im u1, Re u2, Im u2)."""
        return np.array(
            [self.u0, self.u1.real, self.u1.imag, self.u2.real, self.u2.imag]
        )

    @staticmethod
    def from_real5(v) -> "UVector":
        v = np.asarray(v, dtype=float)
        return UVector(float(v[0]), complex(v[1], v[2]), complex(v[3], v[4]))


def _require_unit(u: UVector, tol: float = UNIT_NORM_TOL) -> None:
    if abs(u.norm() - 1.0) > tol:
        raise ValueError(f"input must be unit norm within {tol}: |u| = {u.norm()!r}")


def u_to_q(u: UVector) -> np.ndarray:
    """Matrix of the isometric correspondence (symmetric, traceless)."""
    a = -u.u0 / SQRT3 + u.u2.real
    b = -u.u0 / SQRT3 - u.u2.real
    return (
        np.array(
            [
                [a, u.u2.imag, u.u1.real],
                [u.u2.imag, b, u.u1.imag],
                [u.u1.real, u.u1.imag, 2.0 * u.u0 / SQRT3],
            ]
        )
        / SQRT2
    )


def q_to_u(q: np.ndarray) -> UVector:
    """Inverse of u_to_q; rejects input that is not symmetric and traceless
    within TENSOR_TOL."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    if np.max(np.abs(q - q.T)) > TENSOR_TOL:
        raise ValueError("matrix is not symmetric within tolerance")
    if abs(np.trace(q)) > TENSOR_TOL:
        raise ValueError("matrix is not traceless within tolerance")
    u0 = float(np.sum(q * E0))
    u1 = complex(np.sum(q * E11), np.sum(q * E12))
    u2 = complex(np.sum(q * E21), np.sum(q * E22))
    return UVector(u0, u1, u2)


def det_q(u: UVector) -> float:
    """Determinant of the corresponding matrix, in closed form."""
    t = (2.0 * u.u0 / SQRT3) * (u.u0**2 / 3.0 + 0.5 * abs(u.u1) ** 2 - abs(u.u2) ** 2)
    return float((t + (u.u1**2 * np.conj(u.u2)).real) / (2.0 * SQRT2))


def beta_tilde(u: UVector) -> float:
    """Signed biaxiality sqrt(6) tr(Q^3)/|Q|^3; scale invariant, in [-1, 1]."""
    n = u.norm()
    if n == 0.0:
        raise ValueError("signed biaxiality is undefined at Q = 0")
    # tr(Q^3) = 3 det(Q) for traceless Q.
    return float(3.0 * SQRT6 * det_q(u) / n**3)


def potential_w(u: UVector) -> float:
    """Reduced potential W = (1 - beta)/(3 sqrt 6) on the unit sphere."""
    _require_unit(u)
    return (1.0 - beta_tilde(u)) / (3.0 * SQRT6)


def grad_w_tangential(u: UVector) -> UVector:
    """Tangential gradient of W at a unit vector; vanishes on the vacuum."""
    _require_unit(u)
    g0, g1, g2 = grad_w_tan_arrays(
        np.asarray(u.u0), np.asarray(u.u1, dtype=complex), np.asarray(u.u2, dtype=complex)
    )
    return UVector(float(g0), complex(g1), complex(g2))


# ---------------------------------------------------------------------------
# Vectorized field helpers (shared by the 1D and 2D solvers).
# ---------------------------------------------------------------------------


def _real(f1, f2) -> bool:
    """Whether f1 and f2 are both held in real arrays: then |f|^2 is f f and
    conj is the identity, which the helpers below use, bit for bit."""
    return not (np.iscomplexobj(f1) or np.iscomplexobj(f2))


def beta_arrays(f0, f1, f2):
    """Signed biaxiality of unit-norm samples, elementwise.

    Equals f0 (f0^2 + 3/2 |f1|^2 - 3 |f2|^2) + (3 sqrt3 / 2) Re(f1^2 conj f2);
    valid for |f| = 1.
    """
    if not _real(f1, f2):
        return f0 * (f0**2 + 1.5 * np.abs(f1) ** 2 - 3.0 * np.abs(f2) ** 2) + (
            1.5 * SQRT3
        ) * (f1**2 * np.conj(f2)).real
    sq1 = f1 * f1
    t = f0 * f0
    t += 1.5 * sq1
    t -= 3.0 * (f2 * f2)
    t *= f0
    sq1 *= f2
    sq1 *= 1.5 * SQRT3
    t += sq1
    return t


def potential_w_arrays(f0, f1, f2):
    """Reduced potential W of unit-norm samples, elementwise."""
    return potential_w_from_beta(beta_arrays(f0, f1, f2))


def potential_w_from_beta(beta):
    """Reduced potential W = (1 - beta)/(3 sqrt6) from the signed biaxiality."""
    return (1.0 - beta) / (3.0 * SQRT6)


def grad_w_tan_arrays(f0, f1, f2, beta=None):
    """Tangential gradient of W at unit-norm samples, elementwise.

    Components match the zero-order terms of the Euler-Lagrange systems:
        g0 = (|f2|^2 - f0^2 - |f1|^2/2 + beta f0) / sqrt6
        g1 = (-sqrt3 f2 conj(f1) - f0 f1 + beta f1) / sqrt6
        g2 = (-(sqrt3/2) f1^2 + 2 f0 f2 + beta f2) / sqrt6
    beta optionally carries `beta_arrays` of the samples.  Real f1, f2 give
    real components.
    """
    if beta is None:
        beta = beta_arrays(f0, f1, f2)
    if not _real(f1, f2):
        g0 = (np.abs(f2) ** 2 - f0**2 - 0.5 * np.abs(f1) ** 2 + beta * f0) / SQRT6
        g1 = (-SQRT3 * f2 * f1.conj() - f0 * f1 + beta * f1) / SQRT6
        g2 = (-(SQRT3 / 2.0) * f1**2 + 2.0 * f0 * f2 + beta * f2) / SQRT6
        return g0, g1, g2
    # The same sums in the same order, through one scratch array.
    shape = np.broadcast(f0, f1, f2, beta).shape
    g0, g1, g2, t = (np.empty(shape) for _ in range(4))
    sq1 = f1 * f1
    np.multiply(f2, f2, out=g0)
    g0 -= np.multiply(f0, f0, out=t)
    g0 -= np.multiply(0.5, sq1, out=t)
    g0 += np.multiply(beta, f0, out=t)
    g0 /= SQRT6
    np.multiply(-SQRT3, f2, out=g1)
    g1 *= f1
    g1 -= np.multiply(f0, f1, out=t)
    g1 += np.multiply(beta, f1, out=t)
    g1 /= SQRT6
    np.multiply(-(SQRT3 / 2.0), sq1, out=g2)
    np.multiply(2.0, f0, out=t)
    t *= f2
    g2 += t
    g2 += np.multiply(beta, f2, out=t)
    g2 /= SQRT6
    return g0, g1, g2


def real5_arrays(f0, f1, f2):
    """Stack samples into real-5 coordinates (..., 5), as UVector.as_real5."""
    return np.stack([f0, f1.real, f1.imag, f2.real, f2.imag], axis=-1)


# ---------------------------------------------------------------------------
# Degree-zero homogeneous extension (second-variation machinery).
# ---------------------------------------------------------------------------


def _cubic_form(v: np.ndarray):
    """B, grad B and Hessian of B over real-5 vectors (..., 5), beta = B/|v|^3.

    B is the cubic of beta_arrays, which equals beta only at unit norm.
    """
    a, x1, y1, x2, y2 = np.moveaxis(v, -1, 0)
    s = 3.0 * SQRT3
    q1 = x1**2 + y1**2
    q2 = x2**2 + y2**2
    b = beta_arrays(a, x1 + 1j * y1, x2 + 1j * y2)
    db = np.stack(
        [
            3.0 * a**2 + 1.5 * q1 - 3.0 * q2,
            3.0 * a * x1 + s * (x1 * x2 + y1 * y2),
            3.0 * a * y1 + s * (x1 * y2 - y1 * x2),
            -6.0 * a * x2 + 0.5 * s * (x1**2 - y1**2),
            -6.0 * a * y2 + s * x1 * y1,
        ],
        axis=-1,
    )
    zero = np.zeros_like(a)
    ddb = np.stack(
        [
            np.stack([6.0 * a, 3.0 * x1, 3.0 * y1, -6.0 * x2, -6.0 * y2], axis=-1),
            np.stack([3.0 * x1, 3.0 * a + s * x2, s * y2, s * x1, s * y1], axis=-1),
            np.stack([3.0 * y1, s * y2, 3.0 * a - s * x2, -s * y1, s * x1], axis=-1),
            np.stack([-6.0 * x2, s * x1, -s * y1, -6.0 * a, zero], axis=-1),
            np.stack([-6.0 * y2, s * y1, s * x1, zero, -6.0 * a], axis=-1),
        ],
        axis=-2,
    )
    return b, db, ddb


def _norm_sq_nonzero(v: np.ndarray) -> np.ndarray:
    n2 = np.sum(v**2, axis=-1)
    if np.any(n2 == 0.0):
        raise ValueError("the 0-homogeneous W is not differentiable at 0")
    return n2


def grad_w_homog(v) -> np.ndarray:
    """Gradient of the 0-homogeneous extension of W, real-5 coordinates (..., 5).

    The extension W(v) = (1 - beta(v))/(3 sqrt6) with beta 0-homogeneous is
    what enters second variations: its gradient is automatically tangent on
    the unit sphere, where it coincides with grad_w_tangential.
    """
    v = np.asarray(v, dtype=float)
    n2 = _norm_sq_nonzero(v)[..., None]
    b, db, _ = _cubic_form(v)
    dbeta = db / n2**1.5 - 3.0 * b[..., None] * v / n2**2.5
    return -dbeta / (3.0 * SQRT6)


def hessian_w_homog(v) -> np.ndarray:
    """Hessian of the 0-homogeneous W in closed form: (..., 5) -> (..., 5, 5).

    With beta = B |v|^-3:
    D^2 beta = D^2B |v|^-3 - 3 |v|^-5 (DB v^T + v DB^T) + B (15 |v|^-7 v v^T - 3 |v|^-5 Id).
    """
    v = np.asarray(v, dtype=float)
    n2 = _norm_sq_nonzero(v)[..., None, None]
    b, db, ddb = _cubic_form(v)
    b = b[..., None, None]
    vv = v[..., :, None] * v[..., None, :]
    dbv = db[..., :, None] * v[..., None, :]
    hbeta = (
        ddb / n2**1.5
        - 3.0 * (dbv + np.swapaxes(dbv, -1, -2)) / n2**2.5
        + b * (15.0 * vv / n2**3.5 - 3.0 * np.eye(5) / n2**2.5)
    )
    return -hbeta / (3.0 * SQRT6)

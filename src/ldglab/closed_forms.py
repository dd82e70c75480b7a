"""Closed-form solutions and analytic verifiers.

The explicit objects the numerics is checked against:

  * small_solution_us  -- the unique 2 pi energy minimizer staying in the
    south cap (class S at the Dirichlet level);
  * large_solution     -- the one-complex-parameter family of 6 pi harmonic
    maps escaping north (class N), with g_hbar its uniaxial member;
  * bubble             -- the 4 pi harmonic two-sphere that concentrates at
    the origin along class-boundary sequences;
  * 0-homogeneous tangent maps with their 4 pi scaled singularity cost;
  * fourth-order conformality / isotropy residual diagnostics (the
    harmonic-ODE residual is `radial2d.el_residual_2d` at lambda = 0);
  * the three-zone bubble insertion turning a class-N profile into a
    class-S profile at the cost of 4 pi + o(1).

All pointwise maps accept scalar or array arguments and broadcast.
"""

from __future__ import annotations

import numpy as np

from .profiles import RadialProfile
from .tensor_core import SQRT3, SQRT6

__all__ = [
    "small_solution_us",
    "large_solution",
    "g_hbar",
    "bubble",
    "tangent_map",
    "tangent_map_scaled_energy",
    "conformality_residual",
    "isotropy_residual",
    "bubble_energy",
    "bubble_insert",
]


def small_solution_us(z):
    """Small solution: ((|z|^4-3)/(|z|^4+3), 0, 2 sqrt3 z^2/(|z|^4+3))."""
    z = np.asarray(z, dtype=complex)
    r4 = np.abs(z) ** 4
    den = r4 + 3.0
    u0 = (r4 - 3.0) / den
    u1 = np.zeros_like(z)
    u2 = 2.0 * SQRT3 * z**2 / den
    return u0.real, u1, u2


def large_solution(mu1: complex, z):
    """The mu1-member of the 6 pi family; value (1,0,0) at z = 0."""
    z = np.asarray(z, dtype=complex)
    m2 = abs(mu1) ** 2
    r2 = np.abs(z) ** 2
    den = 1.0 + m2 * r2 + 3.0 * r2**2 + (m2 / 3.0) * r2**3
    u0 = (1.0 - m2 * r2 - 3.0 * r2**2 + (m2 / 3.0) * r2**3) / den
    u1 = 2.0 * mu1 * z * (1.0 - r2**2) / den
    u2 = 2.0 * SQRT3 * z**2 * (1.0 + (m2 / 3.0) * r2) / den
    return u0.real, u1, u2


def g_hbar(z):
    """Uniaxial large solution; the lift of the planar hedgehog to the disc."""
    z = np.asarray(z, dtype=complex)
    r2 = np.abs(z) ** 2
    den = (1.0 + r2) ** 2
    u0 = (1.0 - 4.0 * r2 + r2**2) / den
    u1 = 2.0 * SQRT3 * z * (1.0 - r2) / den
    u2 = 2.0 * SQRT3 * z**2 / den
    return u0.real, u1, u2


def bubble(z, theta: float = 0.0):
    """Degree-one harmonic two-sphere; Dirichlet energy 4 pi over the plane."""
    z = np.asarray(z, dtype=complex)
    r2 = np.abs(z) ** 2
    den = 1.0 + r2
    u0 = (1.0 - r2) / den
    u1 = 2.0 * np.exp(1j * theta) * z / den
    u2 = np.zeros_like(z)
    return u0.real, u1, u2


def _rotation_z(alpha: float) -> np.ndarray:
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def tangent_map(alpha: float, sign: int, x) -> np.ndarray:
    """0-homogeneous blow-up limit at an axis singularity (optionally rotated).

    Carries |grad Q|^2 = 2/|x|^2 and values +/- E0 on the vertical axis.
    """
    x = np.asarray(x, dtype=float)
    n = np.linalg.norm(x)
    if n == 0.0:
        raise ValueError("tangent map undefined at the origin")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x1, x2, x3 = x
    m = np.array(
        [
            [-x3, 0.0, SQRT3 * x1],
            [0.0, -x3, SQRT3 * x2],
            [SQRT3 * x1, SQRT3 * x2, 2.0 * x3],
        ]
    ) / (SQRT6 * n)
    r = _rotation_z(alpha)
    return sign * (r @ m @ r.T)


def tangent_map_scaled_energy(rho: float, alpha: float = 0.0, sign: int = 1) -> float:
    """(1/rho) * Dirichlet energy of the tangent map over the ball B_rho.

    The gradient is measured by central finite differences of the matrix
    entries (relative step 1e-4), then integrated on a 64 x 64 spherical
    midpoint grid in (s, theta); the exact answer is 4 pi for every rho.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    s = (np.arange(64) + 0.5) * rho / 64
    th = (np.arange(64) + 0.5) * np.pi / 64
    ds, dth = rho / 64, np.pi / 64
    total = 0.0
    for si in s:
        eps = 1e-4 * si
        for tj in th:
            # The energy density is phi-independent; sample the meridian.
            p = np.array([si * np.sin(tj), 0.0, si * np.cos(tj)])
            g2 = 0.0
            for d in range(3):
                e = np.zeros(3)
                e[d] = eps
                dq = (
                    tangent_map(alpha, sign, p + e) - tangent_map(alpha, sign, p - e)
                ) / (2.0 * eps)
                g2 += float(np.sum(dq * dq))
            total += 0.5 * g2 * si**2 * np.sin(tj) * ds * dth
    return 2.0 * np.pi * total / rho


# ---------------------------------------------------------------------------
# Conformality / isotropy diagnostics on a square grid over the disc.
# ---------------------------------------------------------------------------


def _sample_square(u_of_z, n: int):
    x = np.linspace(-1.0, 1.0, n)
    zz = x[None, :] + 1j * x[:, None]
    u0, u1, u2 = u_of_z(zz)
    return x, np.stack(
        [u0, u1.real, u1.imag, u2.real, u2.imag]
    )  # (5, n, n) real components


def _taps(u, axis):
    """The shifted views u_{-2}, ..., u_{+2} along `axis`, 2 nodes dropped per side."""
    m = u.shape[axis] - 4
    return [u[(slice(None),) * axis + (slice(k, k + m),)] for k in range(5)]


def _d1_o4(u, h, axis):
    """Fourth-order central first difference along `axis`."""
    m2, m1, _, p1, p2 = _taps(u, axis)
    return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)


def _d2_o4(u, h, axis):
    """Fourth-order central second difference along `axis`."""
    m2, m1, c, p1, p2 = _taps(u, axis)
    return (-p2 + 16.0 * p1 - 30.0 * c + 16.0 * m1 - m2) / (12.0 * h**2)


def _max_on_disc(val, x) -> float:
    xi = x[2:-2]
    rr = np.sqrt(xi[None, :] ** 2 + xi[:, None] ** 2)
    return float(np.max(val[rr <= 1.0]))


def conformality_residual(u_of_z, n: int) -> float:
    """Max over disc nodes of |d_z u . d_z u| by fourth-order differences."""
    if n < 5:
        raise ValueError("grid too small")
    x, u = _sample_square(u_of_z, n)
    h = x[1] - x[0]
    ux = _d1_o4(u, h, axis=2)[:, 2:-2, :]
    uy = _d1_o4(u, h, axis=1)[:, :, 2:-2]
    uz = 0.5 * (ux - 1j * uy)
    return _max_on_disc(np.abs(np.sum(uz * uz, axis=0)), x)


def isotropy_residual(u_of_z, n: int) -> float:
    """Max over disc nodes of |d2_z u . d2_z u| by fourth-order differences."""
    if n < 9:
        raise ValueError("grid too small")
    x, u = _sample_square(u_of_z, n)
    h = x[1] - x[0]
    uxx = _d2_o4(u, h, axis=2)[:, 2:-2, :]
    uyy = _d2_o4(u, h, axis=1)[:, :, 2:-2]
    uxy = _d1_o4(_d1_o4(u, h, axis=1), h, axis=2)
    uzz = 0.25 * (uxx - uyy) - 0.5j * uxy
    return _max_on_disc(np.abs(np.sum(uzz * uzz, axis=0)), x)


def bubble_energy(radius: float = 100.0) -> float:
    """Dirichlet energy of the bubble over D_radius by radial quadrature.

    Tends to 4 pi as the radius grows; the profile is sampled at r = 0 and
    on an 8000-node geometric grid of [1e-6, radius] and differentiated
    with second-order stencils.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    r = np.concatenate(([0.0], np.geomspace(1e-6, radius, 8000)))
    u0, u1, _ = bubble(r.astype(complex))
    d0 = np.gradient(u0, r, edge_order=2)
    d1 = np.gradient(u1, r, edge_order=2)
    dens = d0**2 + np.abs(d1) ** 2
    dens[1:] += np.abs(u1[1:]) ** 2 / r[1:] ** 2
    return np.pi * float(np.trapezoid(dens * r, r))


# ---------------------------------------------------------------------------
# Bubble insertion: class N profile -> class S profile.
# ---------------------------------------------------------------------------


def bubble_insert(profile: RadialProfile, rho: float) -> RadialProfile:
    """Three-zone construction exchanging the center value +E0 for -E0.

    A rescaled bubble (scale rho^3) fills D_{rho^2}, a renormalized linear
    interpolation bridges [rho^2, rho], and outside the profile is the
    frozen-core version of the input (flattened to (1,0,0) inside D_rho,
    bridged on [rho, sqrt(rho)]).  The energy converges to E0(input) + 4 pi
    as rho -> 0; the grid must resolve the rho^3 core.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if profile.f0[0] < 0:
        raise ValueError("bubble insertion expects a class-N profile")
    r = profile.grid
    f0 = profile.f0.copy()
    f1 = profile.f1.copy()
    f2 = profile.f2.copy()

    # Frozen core of the input on [rho, sqrt(rho)]; vacuum inside D_rho.
    sq = np.sqrt(rho)
    i_sq = int(np.searchsorted(r, sq))
    if i_sq >= r.size:
        raise ValueError("rho too large for this grid")
    anchor = (f0[i_sq], f1[i_sq], f2[i_sq])
    mid = (r >= rho) & (r < r[i_sq])
    s = (r[mid] - rho) / (r[i_sq] - rho)
    f0[mid] = 1.0 + s * (anchor[0] - 1.0)
    f1[mid] = s * anchor[1]
    f2[mid] = s * anchor[2]
    core = r < rho
    f0[core], f1[core], f2[core] = 1.0, 0.0, 0.0

    # Rescaled bubble in D_{rho^2}, oriented to hit (-1,0,0) at the origin.
    rb = r / rho**3
    in_bub = r <= rho**2
    den = rb**2 + 1.0
    b0 = (rb**2 - 1.0) / den
    b1 = 2.0 * rb / den
    edge = rho**2 / rho**3
    e0_edge = (edge**2 - 1.0) / (edge**2 + 1.0)
    e1_edge = 2.0 * edge / (edge**2 + 1.0)
    f0[in_bub] = b0[in_bub]
    f1[in_bub] = b1[in_bub]
    f2[in_bub] = 0.0

    # Linear interpolation from the bubble edge to (1,0,0) on [rho^2, rho].
    ring = (r > rho**2) & (r < rho)
    t = (r[ring] - rho**2) / (rho - rho**2)
    f0[ring] = e0_edge + t * (1.0 - e0_edge)
    f1[ring] = e1_edge * (1.0 - t)
    f2[ring] = 0.0

    norms = np.sqrt(f0**2 + np.abs(f1) ** 2 + np.abs(f2) ** 2)
    if float(np.min(norms)) < 0.5:
        raise ValueError("interpolant norm fell below 1/2; use a smaller rho")
    out = RadialProfile(r, f0 / norms, f1 / norms, f2 / norms)
    out.f0[0], out.f1[0], out.f2[0] = -1.0, 0.0, 0.0
    return out

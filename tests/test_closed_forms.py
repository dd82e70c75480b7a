"""Closed-form map tests.

Groups:
 1. Pointwise values and unit-norm / equivariance structure of the explicit
    maps (small solution, mu1 family, uniaxial member, bubble), and the
    hedgehog values of the boundary tensor meridian3d.homeotropic_tensor.
 2. Quadrature energies: 2 pi / 6 pi / 4 pi and the exact potential integral.
 3. Conformality, isotropy, and harmonic-ODE residual diagnostics with
    their convergence rates and a non-conformal control.
 4. Tangent maps: axis values, 4 pi scaled singularity cost.
 5. Bubble insertion: class flip, energy approach to E0(input) + 4 pi.
 6. Every name in the __all__ of ldglab, closed_forms and meridian3d resolves.
"""

import importlib

import numpy as np
import pytest

from ldglab import closed_forms as cf
from ldglab import meridian3d as m3
from ldglab import radial2d as r2
from ldglab import tensor_core as tc
from ldglab.profiles import BOUNDARY_F, profile_from_map, uniform_grid

RNG = np.random.default_rng(7)

TWO_PI = 2 * np.pi
FOUR_PI = 4 * np.pi
SIX_PI = 6 * np.pi


def random_disc_points(n):
    z = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
    return z * RNG.uniform(0, 1, n) / np.abs(z)


def norm_dev(u):
    u0, u1, u2 = u
    return np.max(np.abs(u0**2 + np.abs(u1) ** 2 + np.abs(u2) ** 2 - 1.0))


@pytest.mark.parametrize("module", ["ldglab", "ldglab.closed_forms", "ldglab.meridian3d"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_small_solution_values():
    u0, u1, u2 = cf.small_solution_us(0.0)
    assert (u0, u1, u2) == (pytest.approx(-1.0), 0, 0)
    u0, u1, u2 = cf.small_solution_us(1.0)
    assert u0 == pytest.approx(-0.5)
    assert u2 == pytest.approx(np.sqrt(3) / 2)
    assert norm_dev(cf.small_solution_us(random_disc_points(1000))) < 1e-12


def test_large_solution_values():
    u0, u1, u2 = cf.large_solution(0.0, 0.0)
    assert u0 == pytest.approx(1.0)
    # Any mu1 restricts to the anchoring value on |z| = 1.
    for mu in (0.0, 1.3 - 0.4j, 5.0):
        zs = np.exp(1j * RNG.uniform(0, 2 * np.pi, 64))
        u0, u1, u2 = cf.large_solution(mu, zs)
        assert np.max(np.abs(u0 + 0.5)) < 1e-12
        assert np.max(np.abs(u1)) < 1e-12
        assert np.max(np.abs(u2 - np.sqrt(3) / 2 * zs**2)) < 1e-12


def test_large_solution_sqrt3_is_ghbar():
    z = random_disc_points(512)
    a = cf.large_solution(np.sqrt(3.0), z)
    b = cf.g_hbar(z)
    for x, y in zip(a, b):
        assert np.max(np.abs(x - y)) < 1e-12


def test_ghbar_uniaxial():
    z = random_disc_points(1000)
    u0, u1, u2 = cf.g_hbar(z)
    beta = tc.beta_arrays(u0, u1, u2)
    assert np.max(np.abs(beta - 1.0)) < 1e-10
    # W = 0 iff u0 + sqrt3 |u2| = 1 on the unit sphere.
    assert np.max(np.abs(u0 + np.sqrt(3) * np.abs(u2) - 1.0)) < 1e-12
    assert cf.g_hbar(0.0)[0] == pytest.approx(1.0)


def test_equivariance_phases():
    r, phi = 0.62, 1.1
    for fmap in (cf.small_solution_us, cf.g_hbar, lambda z: cf.large_solution(2.0 + 1j, z)):
        u_r = fmap(r)
        u_rp = fmap(r * np.exp(1j * phi))
        assert u_rp[0] == pytest.approx(u_r[0], abs=1e-14)
        assert u_rp[1] == pytest.approx(u_r[1] * np.exp(1j * phi), abs=1e-14)
        assert u_rp[2] == pytest.approx(u_r[2] * np.exp(2j * phi), abs=1e-14)


def test_bubble_values_and_energy():
    u0, u1, u2 = cf.bubble(0.0)
    assert u0 == pytest.approx(1.0)
    u0, _, _ = cf.bubble(1e6)
    assert u0 == pytest.approx(-1.0, abs=1e-11)
    assert norm_dev(cf.bubble(random_disc_points(200), theta=0.3)) < 1e-12
    radius = 100.0
    e = cf.bubble_energy(radius)
    assert e == pytest.approx(FOUR_PI * radius**2 / (1 + radius**2), abs=1e-4)
    assert e == pytest.approx(FOUR_PI, abs=2e-3)


def test_hedgehogs():
    # The hedgehog sqrt(3/2)(v x v - Id/3), v = x/|x|, is the homeotropic
    # boundary tensor: E0 on the vertical axis, the lateral anchoring datum
    # on a horizontal direction, unit and positively uniaxial everywhere.
    assert np.allclose(m3.homeotropic_tensor([0, 0, 1.0]), tc.E0)
    u = tc.q_to_u(m3.homeotropic_tensor([1.0, 0, 0]))
    assert u.u0 == pytest.approx(-0.5)
    assert abs(u.u2 - np.sqrt(3) / 2) < 1e-14
    assert (u.u0, u.u1, u.u2) == pytest.approx(BOUNDARY_F, abs=1e-14)
    for _ in range(50):
        x = RNG.standard_normal(3)
        q = m3.homeotropic_tensor(x)
        assert abs(np.sqrt(np.sum(q * q)) - 1.0) < 1e-13
        assert tc.beta_tilde(tc.q_to_u(q)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        m3.homeotropic_tensor([0.0, 0.0, 0.0])
    # The planar hedgehog of a point on the vertical axis is undefined.
    x = np.array([0.0, 0.0, 5.0])
    with pytest.raises(ValueError):
        m3.homeotropic_tensor([x[0], x[1], 0.0])


def test_quadrature_energies():
    grid = uniform_grid(2049)
    p = profile_from_map(cf.small_solution_us, grid)
    assert r2.radial_energy(p, 0.0)[0] == pytest.approx(TWO_PI, abs=1e-3)
    for mu in (0.0, 1.0, np.sqrt(3.0), 5.0, 10.0 + 10.0j):
        p = profile_from_map(lambda z: cf.large_solution(mu, z), grid)
        assert r2.radial_energy(p, 0.0)[0] == pytest.approx(SIX_PI, abs=1e-3)


def test_exact_potential_integral():
    grid = uniform_grid(2049)
    p = profile_from_map(cf.small_solution_us, grid)
    total, dirichlet, potential = r2.radial_energy(p, 1.0)
    exact = -np.sqrt(6) / 4 * np.pi + np.sqrt(2) / 6 * np.pi**2
    assert potential == pytest.approx(exact, abs=1e-4)
    assert total == pytest.approx(TWO_PI + exact, abs=2e-3)


def test_conformality_residuals():
    fmap = lambda z: cf.large_solution(1.7 + 0.3j, z)
    res = cf.conformality_residual(fmap, 257)
    assert res < 1e-4
    # O(h^4) rate.
    res_c = cf.conformality_residual(fmap, 129)
    assert 12.0 < res_c / res < 20.0
    # Constant map: identically zero.
    const = lambda z: (np.full(z.shape, -0.5), np.zeros_like(z), np.full(z.shape, np.sqrt(3) / 2, dtype=complex))
    assert cf.conformality_residual(const, 65) == 0.0
    # Non-conformal control stays bounded away from zero under refinement.
    control = lambda z: (np.cos(z.real), np.sin(z.real).astype(complex), np.zeros_like(z))
    r1 = cf.conformality_residual(control, 65)
    r22 = cf.conformality_residual(control, 257)
    assert r1 > 0.1 and r22 > 0.1


def test_isotropy_residuals():
    fmap = lambda z: cf.large_solution(1.7 + 0.3j, z)
    res = cf.isotropy_residual(fmap, 257)
    res_c = cf.isotropy_residual(fmap, 129)
    assert 12.0 < res_c / res < 20.0  # O(h^4)
    assert res < 1e-4
    with pytest.raises(ValueError):
        cf.conformality_residual(fmap, 3)


def test_harmonic_ode_residuals():
    # The harmonic-map ODE system is the radial EL system at lambda = 0.
    grid = uniform_grid(2049)
    p = profile_from_map(cf.small_solution_us, grid)
    assert r2.el_residual_2d(p, 0.0) < 1e-3
    p = profile_from_map(lambda z: cf.large_solution(0.0, z), grid)
    assert r2.el_residual_2d(p, 0.0) < 1e-3
    # Constant vacuum profile: zero residual identically (constant map).  Its
    # boundary value is not the anchoring datum, which the residual warns of.
    n = 257
    const = profile_from_map(lambda z: (np.ones(z.shape), np.zeros_like(z), np.zeros_like(z)), uniform_grid(n))
    with pytest.warns(UserWarning, match="boundary datum mismatch"):
        assert r2.el_residual_2d(const, 0.0) == 0.0


def test_tangent_map_values():
    assert np.allclose(cf.tangent_map(0.0, 1, [0, 0, 1.0]), tc.E0)
    assert np.allclose(cf.tangent_map(0.0, 1, [0, 0, -1.0]), -tc.E0)
    assert np.allclose(cf.tangent_map(0.0, -1, [0, 0, 1.0]), -tc.E0)
    with pytest.raises(ValueError):
        cf.tangent_map(0.0, 1, [0.0, 0.0, 0.0])
    # Rotation invariance of the gradient density via the scaled energy below.
    m = cf.tangent_map(0.7, 1, [0.3, -0.2, 0.9])
    assert abs(np.trace(m)) < 1e-14
    assert np.allclose(m, m.T)
    assert abs(np.sqrt(np.sum(m * m)) - 1.0) < 1e-13  # unit Frobenius norm


def test_tangent_map_scaled_energy_4pi():
    for rho in (0.5, 1.0, 2.0):
        val = cf.tangent_map_scaled_energy(rho, alpha=0.4, sign=-1)
        assert val == pytest.approx(FOUR_PI, abs=1e-2)


def test_bubble_insert():
    # Clustered geometrically near r = 0, down to 1e-9, to resolve the bubbles.
    grid = np.concatenate(([0.0], np.geomspace(1e-9, 1.0, 4095)))
    base = profile_from_map(cf.g_hbar, grid)
    e_base = r2.radial_energy(base, 0.0)[0]
    assert e_base == pytest.approx(SIX_PI, abs=2e-3)
    out = cf.bubble_insert(base, 0.05)
    assert out.f0[0] == -1.0 and out.class_tag == "S"
    e = r2.radial_energy(out, 0.0)[0]
    # Measured approach rate: +0.29 at rho = 0.05, +0.12 at rho = 0.03
    # (always from above: these are upper-bound competitors for 10 pi).
    assert e == pytest.approx(10 * np.pi, abs=0.35)
    e3 = r2.radial_energy(cf.bubble_insert(base, 0.03), 0.0)[0]
    assert e3 == pytest.approx(10 * np.pi, abs=0.15)
    # Energies decrease monotonically toward E0 + 4 pi as rho -> 0.
    energies = [
        r2.radial_energy(cf.bubble_insert(base, rho), 0.0)[0] for rho in (0.2, 0.1, 0.05)
    ]
    target = e_base + FOUR_PI
    assert energies[0] > energies[1] > energies[2] > target - 5e-3
    with pytest.raises(ValueError):
        cf.bubble_insert(base, 1.2)
    s_profile = profile_from_map(cf.small_solution_us, grid)
    with pytest.raises(ValueError):
        cf.bubble_insert(s_profile, 0.1)

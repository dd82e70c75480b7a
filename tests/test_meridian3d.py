"""Axisymmetric 3D solver tests (coarse grids; heavy runs live in acceptance).

Groups:
 1. Geometry: 4-disc membership, inclusions, Hausdorff shrinkage, errors;
    properties (hypothesis, plus the cigar and pancake meshes): every valid
    (h, ell, rho, target_h) passes the inclusions, and its data layer is
    exactly the non-interior in-grid 4-neighbours of interior nodes; every
    invalid triple raises ValueError.
 2. Homeotropic data: cap/wall values, unit norms and unit data-layer
    normals; the boundary tensor's sqrt(3/2) factor; the data, converted
    once per distinct normal, equal the node-by-node conversion bit for bit
    on four lattices.
 3. Energy: constant fields, nodal shares summing to the energy, vertical
    extension vs 2D slice energy, refinement behavior.
 4. Axis trace and singularity detection, incl. the synthetic tangent map
    and the unresolved-span error.
 5. Minimization on a small cigar: split structure, monotone descent,
    classification, multi-start ordering; CG and the ladder reach the same
    minimum from either seed.
 6. Energy identities on an x3-independent field and a converged state;
    their one gradient pass against the row and wall stencils, and the
    horizontal identity against a row-by-row reference.
 7. Instability form: admissibility check, zero at zero, negativity on the
    synthetic singular field, the finite-difference reference.
 8. CSV output against the node-by-node csv.writer, also on signed zeros,
    subnormals and non-finite values; the npz archive round trip; shape
    validation.
 9. Level-by-level seeds: shared per-level Problems match single-seed solves bit
    for bit, factor one matrix per level, once, and drop the coarse Problem
    before the fine level factors anything; a seed's iterations count both
    levels.
"""

import csv
import hashlib
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldglab import descent
from ldglab import meridian3d as m3
from ldglab import radial2d as r2
from ldglab import tensor_core as tc
from ldglab.profiles import uniform_grid

OPTS = r2.SolveOptions(max_iters=6000)


def small_cigar(target_h=0.05):
    return m3.build_geometry(3.0, 0.6, 0.2, target_h=target_h)


def small_pancake(target_h=0.05):
    return m3.build_geometry(0.4, 3.0, 0.1, target_h=target_h)


def test_geometry_membership_and_inclusions():
    g = m3.build_geometry(2.0, 1.0, 0.2, target_h=0.05)
    assert g.level(0.0, 0.0) < 0  # center interior
    assert g.level(1.0, 2.0) > 0  # outer corner exterior
    # Corner probe: the 4-disc test decides membership near the corner arc;
    # the diagonal boundary point sits at offset rho * 2^(-1/4) from the
    # deflated corner.
    r_probe = 1.0 - 0.2 * (1 - 2 ** (-0.25))
    z_probe = 2.0 - 0.2 * (1 - 2 ** (-0.25))
    assert abs(g.level(r_probe, z_probe)) < 1e-12
    assert g.level(r_probe - 0.01, z_probe - 0.01) < 0
    assert g.level(r_probe + 0.01, z_probe + 0.01) > 0
    assert g.level(0.9, 1.9) < 0
    # Inclusions are asserted at build time; rebuilding tighter also works.
    m3.build_geometry(2.0, 1.0, 0.05, target_h=0.05)
    with pytest.raises(ValueError):
        m3.build_geometry(2.0, 1.0, 0.6)  # 2 rho >= min(h, ell)


@pytest.mark.parametrize("target_h", [-0.015, 0.0, -0.0, np.inf, np.nan])
def test_a_lattice_spacing_that_is_not_finite_and_positive_is_rejected(target_h):
    with pytest.raises(ValueError, match="target_h must be a finite positive number"):
        m3.build_geometry(8.0, 0.6, 0.2, target_h=target_h)


@st.composite
def cylinder_shapes(draw):
    """A valid (h, ell, rho, target_h) on a lattice of at most ~240 x 120 cells."""
    h = draw(st.floats(0.2, 10.0))
    ell = draw(st.floats(0.2, 12.0))
    rho = draw(st.floats(1e-3, 0.499)) * min(h, ell)
    target_h = max(h, ell) / draw(st.integers(4, 120))
    return h, ell, rho, target_h


@settings(max_examples=60, deadline=None)
@given(shape=cylinder_shapes())
# The cigar and pancake meshes: both have an interior axis node level with
# a non-interior node of the r = ell column that no interior node touches.
@example(shape=(8.0, 0.6, 0.2, 0.015))
@example(shape=(0.8, 12.0, 0.2, 0.025))
def test_geometry_inclusions_and_active_neighbours(shape):
    h, ell, rho, target_h = shape
    g = m3.build_geometry(h, ell, rho, target_h=target_h)
    rr, zz = g.r[None, :], g.z[:, None]
    inner = ((rr < ell - rho) & (np.abs(zz) < h)) | ((rr < ell) & (np.abs(zz) < h - rho))
    assert not np.any(inner & ~g.interior)
    assert not np.any(g.interior & ~((rr < ell) & (np.abs(zz) < h)))
    assert not np.any(g.interior & g.dirichlet)
    # Every in-grid 4-neighbour of an interior node is active; an interior
    # node never sits on the lattice's outer rows or column, so only the
    # axis column lacks its r - 1 neighbour.
    i, j = np.nonzero(g.interior)
    assert np.all((i > 0) & (i < g.nz - 1) & (j < g.nr - 1))
    act = g.active
    for di, dj in ((1, 0), (-1, 0), (0, 1)):
        assert np.all(act[i + di, j + dj])
    assert np.all(act[i[j > 0], j[j > 0] - 1])
    # Conversely, every data node has an interior 4-neighbour inside the grid.
    inside = np.pad(g.interior, 1)
    touched = inside[:-2, 1:-1] | inside[2:, 1:-1] | inside[1:-1, :-2] | inside[1:-1, 2:]
    assert np.array_equal(g.dirichlet, touched & ~g.interior)


@settings(max_examples=40, deadline=None)
@given(
    shape=cylinder_shapes(),
    broken=st.sampled_from(["h", "ell", "rho_zero", "rho_wide", "nan"]),
    scale=st.floats(0.0, 3.0),
)
def test_invalid_cylinder_shapes_raise(shape, broken, scale):
    h, ell, rho, target_h = shape
    if broken == "h":
        h = -scale * h
    elif broken == "ell":
        ell = -scale * ell
    elif broken == "rho_zero":
        rho = -scale * rho
    elif broken == "rho_wide":
        rho = (0.5 + scale) * min(h, ell)
    else:
        h = float("nan")
    with pytest.raises(ValueError, match="rho"):
        m3.build_geometry(h, ell, rho, target_h=target_h)


def test_geometry_hausdorff_shrinkage():
    # Interior mask approaches the full rectangle as rho -> 0.
    missing = []
    for rho in (0.4, 0.2, 0.1):
        g = m3.build_geometry(2.0, 1.0, rho, target_h=0.025)
        rect = (np.abs(g.r[None, :]) < 1.0) & (np.abs(g.z[:, None]) < 2.0)
        missing.append(int(np.sum(rect & ~g.interior)))
    assert missing[0] > missing[1] > missing[2]


def test_homeotropic_data_values():
    g = small_cigar()
    f0b, f1b, f2b = m3.homeotropic_data(g)
    caps = g.dirichlet & (np.abs(g.z[:, None]) >= g.h - 1e-12) & (g.r[None, :] < g.ell - g.rho)
    assert np.all(np.abs(f0b[caps] - 1.0) < 1e-12)
    wall = g.dirichlet & (g.r[None, :] >= g.ell - 1e-12) & (np.abs(g.z[:, None]) < g.h - g.rho)
    assert np.all(np.abs(f0b[wall] + 0.5) < 1e-12)
    assert np.all(np.abs(f2b[wall] - np.sqrt(3) / 2) < 1e-12)
    norms = np.sqrt(f0b**2 + np.abs(f1b) ** 2 + np.abs(f2b) ** 2)[g.dirichlet]
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def homeotropic_data_per_node(g):
    """The data node by node: one q_to_u per data node."""
    f0 = np.zeros((g.nz, g.nr))
    f1 = np.zeros((g.nz, g.nr), dtype=complex)
    f2 = np.zeros((g.nz, g.nr), dtype=complex)
    for i, j in np.argwhere(g.dirichlet):
        n2 = g.normals[i, j]
        u = tc.q_to_u(m3.homeotropic_tensor([n2[0], 0.0, n2[1]]))
        f0[i, j], f1[i, j], f2[i, j] = u.u0, u.u1, u.u2
    return f0, f1, f2


@pytest.mark.parametrize("make_geom", [
    small_cigar, small_pancake,
    lambda: m3.build_geometry(2.0, 1.0, 0.2, target_h=0.03),
    lambda: m3.build_geometry(8.0, 0.6, 0.2, target_h=0.015),
])
def test_homeotropic_data_matches_the_per_node_loop(monkeypatch, make_geom):
    g = make_geom()
    want = homeotropic_data_per_node(g)
    calls = []
    q_to_u = m3.q_to_u

    def counted(q):
        calls.append(1)
        return q_to_u(q)

    monkeypatch.setattr(m3, "q_to_u", counted)
    got = m3.homeotropic_data(g)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # One conversion per distinct normal, far fewer than the data nodes.
    distinct = np.unique(g.normals[g.dirichlet], axis=0)
    assert len(calls) == len(distinct) < np.count_nonzero(g.dirichlet) // 4


def test_boundary_data_is_computed_once_and_read_only(monkeypatch):
    g = small_cigar(target_h=0.1)
    want = m3.homeotropic_data(g)
    calls = []
    homeotropic_data = m3.homeotropic_data

    def counted(*args, **kwargs):
        calls.append(1)
        return homeotropic_data(*args, **kwargs)

    monkeypatch.setattr(m3, "homeotropic_data", counted)
    fields = [m3.seed_field(g, 1.0, kind, OPTS) for kind in ("torus-seed", "split-seed")]
    fields.append(m3.interp_field(fields[1], g))
    # A descent from the split seed that flips axis signs.
    flips = []
    flip_sweep = descent.flip_sweep

    def counted_flip_sweep(*args, **kwargs):
        out = flip_sweep(*args, **kwargs)
        flips.append(out[1])
        return out

    monkeypatch.setattr(descent, "flip_sweep", counted_flip_sweep)
    out, _, _ = descent.descend(m3._problem_for(g, 1.0),
                                tuple(f.ravel() for f in (fields[1].f0, fields[1].f1, fields[1].f2)),
                                descent.SolveOptions(max_iters=200), direction="cg")
    assert sum(flips) > 0
    fields.append(m3.MeridianField(g, *(v.reshape(g.nz, g.nr) for v in out)))
    assert len(calls) == 1
    for got, ref in zip(g.boundary_data, want):
        assert np.array_equal(got, ref) and not got.flags.writeable
    dm = g.dirichlet
    for fld in fields:
        for got, ref in zip((fld.f0, fld.f1, fld.f2), want):
            assert np.array_equal(got[dm], ref[dm])
            assert got.flags.writeable
        assert np.all(fld.f1[:, 0] == 0.0) and np.all(fld.f2[:, 0] == 0.0)
        assert np.all(np.abs(fld.f0[:, 0]) == 1.0)
    # The flips changed axis signs off the data layer, and left them +/-1.
    axis = ~dm[:, 0]
    assert np.any(fields[3].f0[axis, 0] != fields[1].f0[axis, 0])


def test_axis_and_data_off_by_roundoff_come_back_exact():
    g = small_cigar(target_h=0.1)
    init = m3.seed_field(g, 1.0, "torus-seed")
    init.f1[:, 0] = 1e-10
    init.f2[:, 0] = -1e-10j
    k = g.data_nodes[::7]
    init.f0.ravel()[k] += 1e-10
    init.validate()
    res = m3.minimize_3d(g, 1.0, init, r2.SolveOptions(max_iters=50))
    assert res.iterations > 0
    fld = res.field
    assert np.all(fld.f1[:, 0] == 0.0) and np.all(fld.f2[:, 0] == 0.0)
    assert np.all(np.abs(fld.f0[:, 0]) == 1.0)
    dm = g.dirichlet
    for got, ref in zip((fld.f0, fld.f1, fld.f2), g.boundary_data):
        assert np.array_equal(got[dm], ref[dm])
    # The caller's init is left as it was.
    assert np.all(init.f1[:, 0] == 1e-10)


def test_split_seed_rows_are_the_interpolated_2d_minimizer():
    g = small_cigar(target_h=0.1)
    lam = 1.0
    fld = m3.seed_field(g, lam, "split-seed", OPTS)
    # Reference: the 2D minimizer interpolated onto the radii and normalized inline.
    prof = r2.minimize_2d(lam * g.ell**2, "S", "uS", OPTS, grid=uniform_grid(513)).profile
    s = np.clip(g.r / g.ell, 0.0, 1.0)
    p0 = np.interp(s, prof.grid, prof.f0)
    p1 = np.interp(s, prof.grid, prof.f1.real) + 1j * np.interp(s, prof.grid, prof.f1.imag)
    p2 = np.interp(s, prof.grid, prof.f2.real) + 1j * np.interp(s, prof.grid, prof.f2.imag)
    nr_ = np.sqrt(p0**2 + np.abs(p1) ** 2 + np.abs(p2) ** 2)
    inner = g.interior.copy()
    inner[:, 0] = False  # the axis column carries the axis rules instead
    rows = np.nonzero(inner)
    for got, ref in zip((fld.f0, fld.f1, fld.f2), (p0 / nr_, p1 / nr_, p2 / nr_)):
        assert got[rows].tobytes() == ref[rows[1]].tobytes()


def test_data_layer_normals_have_unit_length():
    g = small_cigar()
    n = g.normals[g.dirichlet]
    assert n.shape == (np.count_nonzero(g.dirichlet), 2)
    assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) < 1e-12


def test_homeotropic_tensor_normalization():
    q_norm = m3.homeotropic_tensor([0.0, 0.0, 1.0])
    assert abs(np.sqrt(np.sum(q_norm * q_norm)) - 1.0) < 1e-14
    # Without its sqrt(3/2) factor the tensor is n x n - Id/3, of norm sqrt(2/3).
    q_raw = q_norm / np.sqrt(1.5)
    assert np.allclose(q_raw, np.diag([0.0, 0.0, 1.0]) - np.eye(3) / 3.0, rtol=0, atol=1e-15)
    assert abs(np.sqrt(np.sum(q_raw * q_raw)) - np.sqrt(2.0 / 3.0)) < 1e-14


def test_meridian_energy_constant_field():
    g = small_cigar()
    f0 = np.ones((g.nz, g.nr))
    f1 = np.zeros((g.nz, g.nr), complex)
    f2 = np.zeros((g.nz, g.nr), complex)
    total, dirichlet, potential = m3.meridian_energy(m3.MeridianField(g, f0, f1, f2), 2.0)
    assert dirichlet == pytest.approx(0.0, abs=1e-12)
    assert potential == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        m3.meridian_energy(m3.MeridianField(g, 2 * f0, f1, f2), 1.0)


def test_vertical_extension_energy_matches_2d():
    # An x3-independent interior field has energy ~ 2(h - rho) * E_2d(slice)
    # over the straight part; compare on the middle section.
    g = m3.build_geometry(4.0, 1.0, 0.2, target_h=0.02)
    lam = 0.5
    res2d = r2.minimize_2d(lam, "S", "uS", OPTS, grid=uniform_grid(513))
    fld = m3.seed_field(g, lam, "split-seed", OPTS)
    # The stripe's share of the solver's energy keeps the masked lattice's
    # first-order error at the wall: ~2% here.
    e_cyl = m3.energy_in_cylinder(fld, lam, g.ell + 1, 2.0)  # |z| < 2 stripe
    assert e_cyl == pytest.approx(4.0 * res2d.energy, rel=3e-2)
    # The row-wise slice energy is second order and much closer.
    assert m3._slice_energy_2d(fld, g.nz // 2, lam) == pytest.approx(res2d.energy, rel=5e-3)


@pytest.mark.parametrize("lam", [0.0, 1.7])
@pytest.mark.parametrize("make_geom", [small_cigar, small_pancake])
def test_energy_density_shares_the_meridian_energy(make_geom, lam):
    g = make_geom()
    covering = 2.0 * np.hypot(g.ell, g.h)
    for kind in ("split-seed", "torus-seed"):
        fld = m3.seed_field(g, lam, kind, OPTS)
        total = m3.meridian_energy(fld, lam)[0]
        dens = m3._energy_density(fld, lam)
        assert np.sum(dens) == pytest.approx(total, rel=1e-12)
        # A ball that covers the lattice holds the whole energy.
        share = m3.radial_monotonicity(fld, lam, [covering])[0] * covering
        assert share == pytest.approx(total, rel=1e-12)
        assert np.min(dens) >= -1e-12 * total


def test_axis_trace_and_unresolved_error():
    g = small_cigar()
    tf = m3.tangent_map_field(g, 0.5123)
    recs = m3.detect_singularities(tf)
    assert len(recs) == 1
    assert recs[0].position == pytest.approx(0.5123, abs=2 * g.hz)
    assert recs[0].jump == (-1, 1)
    # A flat |f0| < 0.9 span without a crossing raises.
    fld = tf.copy()
    i0 = g.nz // 2
    fld.f0[i0 - 4 : i0 + 4, 0] = 0.5
    with pytest.raises(m3.UnresolvedAxisError):
        m3.detect_singularities(fld)


def test_small_cigar_split_and_ordering():
    g = small_cigar()
    res = m3.minimize_seeds(g, 1.0, ["split-seed"], OPTS)["split-seed"]
    assert res.classification == "Split"
    n_up = sum(1 for s in res.singularities if s.position > 0)
    n_dn = sum(1 for s in res.singularities if s.position < 0)
    assert n_up % 2 == 1 and n_dn % 2 == 1
    assert res.beta_min == pytest.approx(-1.0, abs=2e-2)
    assert res.beta_max == pytest.approx(1.0, abs=2e-2)
    assert res.energy == pytest.approx(res.dirichlet + 1.0 * res.potential, abs=1e-9)
    res_t = m3.minimize_seeds(g, 1.0, ["torus-seed"], OPTS)["torus-seed"]
    assert res_t.classification == "Torus"
    assert res.energy < res_t.energy  # split wins on the cigar


@pytest.mark.parametrize("seed", ["split-seed", "torus-seed"])
def test_cg_and_the_ladder_reach_the_same_minimum(monkeypatch, seed):
    g = small_cigar()
    init = m3.seed_field(g, 1.0, seed)
    cg = m3.minimize_3d(g, 1.0, init, OPTS)
    descend = descent.descend

    def ladder(*args, direction, **kwargs):
        assert direction == "cg"
        return descend(*args, direction="ladder", **kwargs)

    monkeypatch.setattr(descent, "descend", ladder)
    lad = m3.minimize_3d(g, 1.0, init, OPTS)
    assert cg.converged and lad.converged
    assert cg.iterations < lad.iterations
    assert abs(cg.energy - lad.energy) <= 1e-9 * abs(lad.energy)
    assert cg.classification == lad.classification
    assert len(cg.singularities) == len(lad.singularities)


def test_constant_e0_classifies_torus_without_ring():
    g = small_cigar()
    f0 = np.ones((g.nz, g.nr))
    f1 = np.zeros((g.nz, g.nr), complex)
    f2 = np.zeros((g.nz, g.nr), complex)
    cls, sing, ring = m3.classify(m3.MeridianField(g, f0, f1, f2))
    assert cls == "Torus" and sing == [] and ring is None


def ring_of_blocks(g, blocks):
    """classify's ring for +E0 everywhere except -E0 on the given (z, r) blocks."""
    f0 = np.ones((g.nz, g.nr))
    for zs, rs in blocks:
        f0[zs, rs] = -1.0
    zero = np.zeros((g.nz, g.nr), complex)
    cls, sing, ring = m3.classify(m3.MeridianField(g, f0, zero, zero.copy()))
    assert cls == "Torus" and sing == []
    return ring


def test_classify_reports_the_largest_ring():
    g = small_pancake()
    small = (slice(4, 7), slice(10, 14))
    large = (slice(9, 13), slice(30, 40))
    for blocks in ((small, large), (large, small)):
        ring = ring_of_blocks(g, blocks)
        assert ring == {
            "r_range": (float(g.r[30]), float(g.r[39])),
            "z_range": (float(g.z[9]), float(g.z[12])),
            "cells": 40,
        }


def test_classify_ring_tie_keeps_the_first_in_raster_order():
    # Raster order runs along r within a z row, so the lower block comes
    # first although it lies farther from the axis.
    g = small_pancake()
    lower = (slice(3, 6), slice(30, 34))
    upper = (slice(9, 12), slice(10, 14))
    ring = ring_of_blocks(g, (upper, lower))
    assert ring == {
        "r_range": (float(g.r[30]), float(g.r[33])),
        "z_range": (float(g.z[3]), float(g.z[5])),
        "cells": 12,
    }


def test_vertical_identity_x3_independent_field():
    # For an x3-independent field both sides reduce to the slice energy.
    g = m3.build_geometry(4.0, 1.0, 0.2, target_h=0.02)
    fld = m3.seed_field(g, 0.7, "split-seed", OPTS)
    res = m3.vertical_identity_residual(fld, 0.7, -1.0, 1.5)
    assert res < 1e-10


def test_meridian_gradients_match_the_row_and_wall_stencils():
    # Reference stencils: the central z-difference on each interior row and
    # the one-sided second-order r-difference at the wall column.
    g = small_cigar()
    fld = m3.tangent_map_field(g, 0.5123)
    dr, dz = m3._meridian_gradients(fld)
    for k, f in enumerate((fld.f0, fld.f1, fld.f2)):
        row = (f[2:] - f[:-2]) / (2.0 * g.hz)
        assert np.max(np.abs(dz[k][1:-1] - row)) <= 1e-12 * np.max(np.abs(dz[k]))
        wall = (3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / (2.0 * g.hr)
        assert np.max(np.abs(dr[k][:, -1] - wall)) <= 1e-12 * np.max(np.abs(dr[k]))


def _horizontal_identity_reference(fld, lam, s):
    # Row by row with the central z-difference and the one-sided wall
    # difference: the reference for the one-pass horizontal identity.
    g = fld.geom
    fs = (fld.f0.astype(complex), fld.f1, fld.f2)
    i_lo, i_hi = (int(round((t + g.h) / g.hz)) for t in (-s, s))
    wz = np.full(i_hi + 1 - i_lo, g.hz)
    wz[0] = wz[-1] = g.hz / 2
    wr = r2._trapezoid_weights(g.r) * g.r
    dn2 = sum(np.abs((3.0 * f[:, -1] - 4.0 * f[:, -2] + f[:, -3]) / (2.0 * g.hr)) ** 2 for f in fs)
    wall = vol = cap = 0.0
    for w, i in zip(wz, range(i_lo, i_hi + 1)):
        wall += 2.0 * np.pi * g.ell**2 * w * (1.5 / g.ell**2 - 0.5 * dn2[i])
        dz = [(f[i + 1] - f[i - 1]) / (2.0 * g.hz) for f in fs]
        dens = sum(np.abs(d) ** 2 for d in dz)
        dens = dens + 2.0 * lam * tc.potential_w_arrays(fld.f0[i], fld.f1[i], fld.f2[i])
        vol += 2.0 * np.pi * w * np.sum(wr * dens)
        if i in (i_lo, i_hi):
            acc = sum(
                (np.gradient(f[i], g.r, edge_order=2) * np.conj(d)).real for f, d in zip(fs, dz)
            )
            cap += (1.0 if i == i_hi else -1.0) * 2.0 * np.pi * np.sum(wr * g.r * acc)
    return abs(wall - vol - cap) / max(abs(wall), abs(vol + cap))


def test_horizontal_identity_matches_the_row_by_row_reference():
    g = small_cigar()
    fld = m3.tangent_map_field(g, 0.5123)
    s = 0.8 * (g.h - g.rho)
    for lam in (0.0, 2.0):
        res = m3.horizontal_identity_residual(fld, lam, s)
        assert res == pytest.approx(_horizontal_identity_reference(fld, lam, s), rel=1e-12)


def test_identity_parameter_validation():
    g = small_cigar()
    fld = m3.seed_field(g, 1.0, "torus-seed", OPTS)
    with pytest.raises(ValueError):
        m3.horizontal_identity_residual(fld, 1.0, g.h + 1.0)
    with pytest.raises(ValueError):
        m3.radial_identity_residual(fld, 1.0, 0.1, 0.2)


def test_instability_form_admissibility_and_zero():
    g = small_cigar()
    tf = m3.tangent_map_field(g, 0.5123)
    bad = m3.EtaSpec(a=0.0, b=2.0, s_min=0.45)  # no singular core, late start
    assert bad.hardy_deficit() > 0
    with pytest.raises(ValueError, match="admissible"):
        m3.instability_form(tf, 0.0, 0.5123, 0.5, eta=bad)
    with pytest.raises(ValueError):
        m3.EtaSpec(b=0.0)  # discontinuous at s = 1
    with pytest.raises(ValueError, match="exceeds"):
        m3.instability_form(tf, 0.0, 2.9, 0.5)
    assert m3.EtaSpec().hardy_deficit() < 0


def test_instability_negative_on_tangent_field():
    g = m3.build_geometry(3.0, 1.2, 0.2, target_h=0.03)
    tf = m3.tangent_map_field(g, 0.2123)
    deficit = m3.EtaSpec().hardy_deficit()
    vals = [m3.instability_form(tf, 0.0, 0.2123, rb) for rb in (1.0, 0.7)]
    assert all(v < 0 for v in vals)
    # Approaches the Hardy-deficit value (dominated by quadrature at small r).
    assert vals[0] == pytest.approx(deficit, rel=0.25)
    assert m3.instability_form(tf, 0.0, 0.2123, 1.0, vbar=1j) < 0


def fd_potential_term(field, lam, p_z, r_ball, eta, n_phi=32, fd_step=1e-4):
    """lam * int D^2W(Q)[Phi_T, Phi_T] for vbar = 1, by second differences.

    The potential term of instability_form as it was first written: a
    finite-difference second difference of the 0-homogeneous W along Phi_T.
    """
    g = field.geom
    rr, zz = np.meshgrid(g.r, g.z)
    s_dist = np.sqrt(rr**2 + (zz - p_z) ** 2) / r_ball
    supp = (s_dist < 1.0) & (rr > 0)
    gv = r_ball ** (-0.5) * eta.value(s_dist[supp])
    vol = 2.0 * np.pi / n_phi * g.hr * g.hz * rr[supp]

    def w_homog(x):
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        return tc.potential_w_arrays(x[:, 0], x[:, 1] + 1j * x[:, 2], x[:, 3] + 1j * x[:, 4])

    total = 0.0
    for phi in np.arange(n_phi) * 2.0 * np.pi / n_phi:
        u5 = tc.real5_arrays(
            field.f0[supp], field.f1[supp] * np.exp(1j * phi), field.f2[supp] * np.exp(2j * phi)
        )
        v5 = np.zeros_like(u5)
        v5[:, 3] = 1.0
        pt5 = gv[:, None] * (v5 - u5[:, 3:4] * u5)
        second = w_homog(u5 + fd_step * pt5) - 2.0 * w_homog(u5) + w_homog(u5 - fd_step * pt5)
        total += float(np.sum(lam * second / fd_step**2 * vol))
    return total


def test_instability_form_matches_finite_difference_reference():
    g = m3.build_geometry(3.0, 1.5, 0.2, target_h=0.05)
    res = m3.minimize_seeds(g, 4.0, ["split-seed"], OPTS)["split-seed"]
    assert res.classification == "Split"
    pz = max(s.position for s in res.singularities)
    eta = m3.EtaSpec()
    value = m3.instability_form(res.field, 4.0, pz, 0.5, eta=eta)
    reference = m3.instability_form(res.field, 0.0, pz, 0.5, eta=eta) + fd_potential_term(
        res.field, 4.0, pz, 0.5, eta
    )
    assert value < 0
    assert value == pytest.approx(reference, rel=1e-5)


def test_seed_requires_known_name():
    g = small_cigar()
    with pytest.raises(ValueError):
        m3.seed_field(g, 1.0, "mystery-seed")


def rowwise_csv(fld, path):
    """The CSV written one active node at a time, as to_csv was first written."""
    g = fld.geom
    beta = fld.beta()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "x3", "f0", "Re f1", "Im f1", "Re f2", "Im f2", "beta"])
        for i in range(g.nz):
            for j in range(g.nr):
                if g.active[i, j]:
                    f1, f2 = fld.f1[i, j], fld.f2[i, j]
                    vals = (g.r[j], g.z[i], fld.f0[i, j], f1.real, f1.imag, f2.real, f2.imag,
                            beta[i, j])
                    w.writerow([repr(float(v)) for v in vals])


def test_field_csv_roundtrip(tmp_path):
    g = small_cigar(target_h=0.1)
    for kind in ("torus-seed", "split-seed"):
        fld = m3.seed_field(g, 1.0, kind, OPTS)
        path = tmp_path / "field.csv"
        fld.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "r,x3,f0,Re f1,Im f1,Re f2,Im f2,beta"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[1] == 8
        assert data.shape[0] == int(g.active.sum())
        rowwise_csv(fld, tmp_path / "reference.csv")
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_field_csv_matches_the_csv_writer_on_awkward_values(tmp_path):
    # Signed zeros, subnormals, huge and non-finite values, as repr spells them.
    g = small_cigar(target_h=0.1)
    rng = np.random.default_rng(11)
    odd = np.array([0.0, -0.0, 5e-324, -1e-300, 1e300, np.inf, -np.inf, np.nan, 1.0 / 3.0])
    f0, f1, f2 = (np.zeros((g.nz, g.nr), dtype=t) for t in (float, complex, complex))
    for part in (f0, f1.real, f1.imag, f2.real, f2.imag):
        part[...] = rng.choice(odd, size=part.shape)
    awkward = m3.MeridianField(g, f0, f1, f2)
    # A real field on a real geometry: its zero imaginary columns, spelled
    # once per distinct value, keep a signed zero apart from 0.0.
    real = m3.seed_field(g, 1.0, "torus-seed", OPTS)
    assert not (np.any(real.f1.imag) or np.any(real.f2.imag))
    real.f2.imag[::2, ::3] = -0.0
    for name, fld in (("awkward", awkward), ("real", real)):
        with np.errstate(all="ignore"):
            fld.to_csv(tmp_path / f"{name}.csv")
            rowwise_csv(fld, tmp_path / f"{name}-reference.csv")
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}-reference.csv").read_bytes(), name
    assert b",-0.0," in got and b",0.0," in got


def test_field_archive_round_trips_a_complex_field(tmp_path):
    # Nonzero imaginary parts everywhere off the axis, on a lattice whose
    # target_h is not its r-spacing.
    g = small_cigar(target_h=0.07)
    assert g.target_h == 0.07 and g.hr != g.target_h
    rng = np.random.default_rng(4)
    f0, f1, f2 = (rng.standard_normal((g.nz, g.nr)) + 1j * rng.standard_normal((g.nz, g.nr))
                  for _ in range(3))
    norm = np.sqrt(f0.real**2 + np.abs(f1) ** 2 + np.abs(f2) ** 2)
    fld = m3.MeridianField(g, f0.real / norm, f1 / norm, f2 / norm)
    # save writes the path it is given, with or without an .npz suffix.
    fld.save(tmp_path / "f.field")
    back = m3.MeridianField.load(tmp_path / "f.field")
    for name in ("r", "z", "interior", "dirichlet", "normals", "foot"):
        assert np.array_equal(getattr(back.geom, name), getattr(g, name)), name
    assert (back.geom.h, back.geom.ell, back.geom.rho, back.geom.target_h) == (
        g.h, g.ell, g.rho, g.target_h)
    # Active nodes bit for bit; the inactive ones are stored as 0, and the
    # saved field keeps its own values there.
    act = g.active
    assert not act.all()
    for name in ("f0", "f1", "f2"):
        a, b = getattr(back, name), getattr(fld, name)
        assert a.dtype == b.dtype and a[act].tobytes() == b[act].tobytes(), name
        assert np.array_equal(a[~act], np.zeros_like(a[~act])), name
        assert np.all(b[~act] != 0), name


def test_field_rejects_shape_mismatch():
    g = small_cigar(target_h=0.1)
    fld = m3.seed_field(g, 1.0, "torus-seed", OPTS)
    with pytest.raises(ValueError, match="shape"):
        m3.MeridianField(g, fld.f0[:-2], fld.f1[:-2], fld.f2[:-2])


# ---------------------------------------------------------------------------
# Level-by-level seeds (minimize_seeds).
# ---------------------------------------------------------------------------

SEEDS = ("split-seed", "torus-seed")


def assert_same_result(got, want):
    for name in ("f0", "f1", "f2"):
        assert np.array_equal(getattr(got.field, name), getattr(want.field, name))
    assert (got.energy, got.iterations, got.converged, got.classification, got.seed_name) == (
        want.energy, want.iterations, want.converged, want.classification, want.seed_name)


def test_minimize_seeds_matches_single_seed_solves():
    g = small_cigar()
    shared = m3.minimize_seeds(g, 1.0, SEEDS, OPTS)
    assert list(shared) == list(SEEDS)
    for seed in SEEDS:
        assert_same_result(shared[seed], m3.minimize_seeds(g, 1.0, [seed], OPTS)[seed])


class FactorLog:
    """Counts 3D `splu` calls by (level, matrix) and watches the live Problems.

    Matrices of other sizes (the split seed's 2D solve) are passed through.
    """

    def __init__(self, monkeypatch, levels):
        self.levels = levels  # matrix size -> level name
        self.keys = []  # (level, matrix digest) per factorization
        self.problems = []  # (level, weakref to the Problem)
        self.coarse_alive_at_fine = []
        splu, problem_for = spla.splu, m3._problem_for

        def counting_splu(mat, *args, **kwargs):
            level = self.levels.get(mat.shape[0])
            if level is None:
                return splu(mat, *args, **kwargs)
            if level == "fine" and not any(k[0] == "fine" for k in self.keys):
                self.coarse_alive_at_fine = [
                    lv for lv, p in self.problems if lv == "coarse" and p() is not None
                ]
            digest = hashlib.sha256(
                mat.data.tobytes() + mat.indices.tobytes() + mat.indptr.tobytes()
            ).hexdigest()
            self.keys.append((level, digest))
            return splu(mat, *args, **kwargs)

        def recording_problem_for(geom, lam):
            p = problem_for(geom, lam)
            level = self.levels[geom.disc.free0.size + 2 * geom.disc.free12.size]
            self.problems.append((level, weakref.ref(p)))
            return p

        monkeypatch.setattr(spla, "splu", counting_splu)
        monkeypatch.setattr(m3, "_problem_for", recording_problem_for)


def levels_of(g):
    """Matrix size -> level: a level's one matrix spans f0's free nodes and
    f1's and f2's."""
    coarse = m3.build_geometry(g.h, g.ell, g.rho, target_h=2.0 * g.hr)
    return {
        d.free0.size + 2 * d.free12.size: name
        for name, d in (("coarse", coarse.disc), ("fine", g.disc))
    }


def test_seed_levels_factor_each_matrix_once_while_cached(monkeypatch):
    g = small_cigar()
    levels = levels_of(g)
    assert len(levels) == 2
    alone = {}
    for seed in SEEDS:
        log = FactorLog(monkeypatch, levels)
        m3.minimize_seeds(g, 1.0, [seed], OPTS)
        alone[seed] = len(log.keys)
    log = FactorLog(monkeypatch, levels)
    m3.minimize_seeds(g, 1.0, SEEDS, OPTS)
    # Level by level: every coarse factorization comes before every fine one.
    order = [level for level, _ in log.keys]
    assert order == sorted(order)
    assert order.count("coarse") > 0 and order.count("fine") > 0
    # Each level's Problem factors one matrix, once.
    for level in ("coarse", "fine"):
        keys = [key for key in log.keys if key[0] == level]
        assert len(keys) == len(set(keys)) == 1
    assert len(log.keys) < sum(alone.values())


def test_coarse_problem_is_dropped_before_the_fine_level(monkeypatch):
    g = small_cigar()
    log = FactorLog(monkeypatch, levels_of(g))
    m3.minimize_seeds(g, 1.0, SEEDS, OPTS)
    assert any(level == "coarse" for level, _ in log.problems)
    assert any(level == "fine" for level, _ in log.keys)
    assert log.coarse_alive_at_fine == []


def test_seed_iterations_count_both_levels(monkeypatch):
    g = small_cigar()
    coarse = m3.build_geometry(g.h, g.ell, g.rho, target_h=2.0 * g.hr)
    sizes = {coarse.nz * coarse.nr: "coarse", g.nz * g.nr: "fine"}
    runs = []  # (level, iterations) of each 3D descent, in call order
    descend = descent.descend

    def recording_descend(p, *args, **kwargs):
        out = descend(p, *args, **kwargs)
        if p.mass.size in sizes:
            runs.append((sizes[p.mass.size], out[1]))
        return out

    monkeypatch.setattr(descent, "descend", recording_descend)
    res = m3.minimize_seeds(g, 1.0, SEEDS, OPTS)
    # Level by level: every seed's coarse descent, then every seed's fine one.
    assert [level for level, _ in runs] == ["coarse"] * len(SEEDS) + ["fine"] * len(SEEDS)
    for k, seed in enumerate(SEEDS):
        assert res[seed].iterations == runs[k][1] + runs[len(SEEDS) + k][1]

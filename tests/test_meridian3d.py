"""Axisymmetric 3D solver tests (coarse grids; heavy runs live in acceptance).

Groups:
 1. Geometry: 4-disc membership, inclusions, Hausdorff shrinkage, errors.
 2. Homeotropic data: cap/wall values, unit norms, raw vs normalized.
 3. Energy: constant fields, nodal shares summing to the energy, vertical
    extension vs 2D slice energy, refinement behavior.
 4. Axis trace and singularity detection, incl. the synthetic tangent map
    and the unresolved-span error.
 5. Minimization on a small cigar: split structure, monotone descent,
    classification, multi-start ordering.
 6. Energy identities on an x3-independent field and a converged state.
 7. Instability form: admissibility check, zero at zero, negativity on the
    synthetic singular field, the finite-difference reference.
 8. CSV output against the node-by-node writer; shape validation.
 9. Level-by-level seeds: shared per-level Problems match single-seed solves bit
    for bit, factor three matrices per level, none twice, and drop the
    coarse Problem before the fine level factors anything, trimming the
    heap after each level; a seed's iterations count both levels.
"""

import csv
import hashlib
import weakref

import numpy as np
import pytest

import scipy.sparse.linalg as spla

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
    # The descent's projection of a random state onto the split seed's constraints.
    p = m3._problem_for(fields[1], 1.0)
    rng = np.random.default_rng(3)
    shape = g.nz * g.nr
    noisy = (rng.standard_normal(shape),
             rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
             rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    fields.append(m3.MeridianField(g, *(v.reshape(g.nz, g.nr) for v in p.project(*noisy))))
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
    # The axis keeps the sign of the projected state off the data layer.
    axis = ~dm[:, 0]
    assert np.array_equal(fields[3].f0[axis, 0], np.where(noisy[0][::g.nr][axis] >= 0, 1.0, -1.0))


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


def test_normal_query_outside_layer_raises():
    g = small_cigar()
    i, j = np.argwhere(g.dirichlet)[0]
    n = g.normal_at(i, j)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-12
    ii, jj = np.argwhere(g.interior)[0]
    with pytest.raises(ValueError, match="no boundary normal"):
        g.normal_at(ii, jj)


def test_homeotropic_tensor_normalization():
    q_norm = m3.homeotropic_tensor([0.0, 0.0, 1.0])
    assert abs(np.sqrt(np.sum(q_norm * q_norm)) - 1.0) < 1e-14
    q_raw = m3.homeotropic_tensor([0.0, 0.0, 1.0], normalized=False)
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
        assert m3.energy_in_ball(fld, lam, covering) == pytest.approx(total, rel=1e-12)
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
    res = m3.minimize_3d(g, 1.0, "split-seed", OPTS)
    assert res.classification == "Split"
    n_up = sum(1 for s in res.singularities if s.position > 0)
    n_dn = sum(1 for s in res.singularities if s.position < 0)
    assert n_up % 2 == 1 and n_dn % 2 == 1
    assert res.beta_min == pytest.approx(-1.0, abs=2e-2)
    assert res.beta_max == pytest.approx(1.0, abs=2e-2)
    assert res.energy == pytest.approx(res.dirichlet + 1.0 * res.potential, abs=1e-9)
    res_t = m3.minimize_3d(g, 1.0, "torus-seed", OPTS)
    assert res_t.classification == "Torus"
    assert res.energy < res_t.energy  # split wins on the cigar


def test_constant_e0_classifies_torus_without_ring():
    g = small_cigar()
    f0 = np.ones((g.nz, g.nr))
    f1 = np.zeros((g.nz, g.nr), complex)
    f2 = np.zeros((g.nz, g.nr), complex)
    cls, sing, ring = m3.classify(m3.MeridianField(g, f0, f1, f2))
    assert cls == "Torus" and sing == [] and ring is None


def test_vertical_identity_x3_independent_field():
    # For an x3-independent field both sides reduce to the slice energy.
    g = m3.build_geometry(4.0, 1.0, 0.2, target_h=0.02)
    fld = m3.seed_field(g, 0.7, "split-seed", OPTS)
    res = m3.vertical_identity_residual(fld, 0.7, -1.0, 1.5)
    assert res < 1e-10


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
        return tc.potential_w_arrays(
            *tc.renormalize_arrays(x[:, 0], x[:, 1] + 1j * x[:, 2], x[:, 3] + 1j * x[:, 4])
        )

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
    res = m3.minimize_3d(g, 4.0, "split-seed", OPTS)
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
        assert_same_result(shared[seed], m3.minimize_3d(g, 1.0, seed, OPTS))
    flat = r2.SolveOptions(max_iters=6000, cascade=False)
    shared = m3.minimize_seeds(g, 1.0, SEEDS, flat)
    for seed in SEEDS:
        assert_same_result(shared[seed], m3.minimize_3d(g, 1.0, seed, flat))


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

        def recording_problem_for(field, lam):
            p = problem_for(field, lam)
            level = self.levels[field.geom.disc.free0.size]
            self.problems.append((level, weakref.ref(p)))
            return p

        monkeypatch.setattr(spla, "splu", counting_splu)
        monkeypatch.setattr(m3, "_problem_for", recording_problem_for)


def levels_of(g):
    coarse = m3.build_geometry(g.h, g.ell, g.rho, target_h=2.0 * g.hr)
    return {
        d.free0.size if k == 0 else d.free12.size: name
        for name, d in (("coarse", coarse.disc), ("fine", g.disc))
        for k in (0, 1)
    }


def test_seed_levels_factor_each_matrix_once_while_cached(monkeypatch):
    g = small_cigar()
    levels = levels_of(g)
    assert len(levels) == 4
    alone = {}
    for seed in SEEDS:
        log = FactorLog(monkeypatch, levels)
        m3.minimize_3d(g, 1.0, seed, OPTS)
        alone[seed] = len(log.keys)
    log = FactorLog(monkeypatch, levels)
    m3.minimize_seeds(g, 1.0, SEEDS, OPTS)
    # Level by level: every coarse factorization comes before every fine one.
    order = [level for level, _ in log.keys]
    assert order == sorted(order)
    assert order.count("coarse") > 0 and order.count("fine") > 0
    # Each level's Problem factors one matrix per component, none twice.
    for level in ("coarse", "fine"):
        keys = [key for key in log.keys if key[0] == level]
        assert len(keys) == len(set(keys)) == 3
    assert len(log.keys) < sum(alone.values())


def test_coarse_problem_is_dropped_before_the_fine_level(monkeypatch):
    g = small_cigar()
    log = FactorLog(monkeypatch, levels_of(g))
    m3.minimize_seeds(g, 1.0, SEEDS, OPTS)
    assert any(level == "coarse" for level, _ in log.problems)
    assert any(level == "fine" for level, _ in log.keys)
    assert log.coarse_alive_at_fine == []


def test_heap_is_trimmed_after_each_level_is_freed(monkeypatch):
    g = small_cigar()
    log = FactorLog(monkeypatch, levels_of(g))
    trims = []  # (fine factorizations so far, levels of the live Problems)

    def recording_trim():
        fine = sum(1 for level, _ in log.keys if level == "fine")
        trims.append((fine, [lv for lv, p in log.problems if p() is not None]))

    monkeypatch.setattr(descent, "trim_heap", recording_trim)
    m3.minimize_seeds(g, 1.0, SEEDS, OPTS)
    fine_total = sum(1 for level, _ in log.keys if level == "fine")
    assert fine_total > 0
    # Once before the fine level factors anything and once after it, each
    # time with no Problem alive.
    assert trims == [(0, []), (fine_total, [])]


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

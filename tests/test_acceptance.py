"""Acceptance suite: the twelve quantitative gates, one test each.

Each test prints a single `ACCEPTANCE <k> <name>: PASS/FAIL` line (run
pytest with -s to see them live) and asserts every stated tolerance.
Heavy solves are shared through module-scoped fixtures; everything runs
at the documented default grids and seeds.

 1. Closed-form energies 2pi / 6pi with O(h^2) Richardson confirmation.
 2. Exact potential integral of the small solution.
 3. Conformality / isotropy residuals and the non-conformal control.
 4. 2D gap by optimization from noisy inits.
 5. Energy curve e*_lam on 20 samples: monotone, bounded, concave,
    e = min(6pi, e*).
 6. lambda_* localization by bisection plus the regimes on either side.
 7. Tangent-map singularity cost 4pi at three radii.
 8. Cigar: split structure, parity, beta range, 2D reduction, identity.
 9. Pancake: torus structure, ring, interior decay, monotonicity.
10. Energy growth laws in h (cigar) and ell (pancake).
11. Shape sweep with dual seeds and a coexistence witness.
12. Second variation positivity (2D) and instability of a split
    minimizer along a Hardy-deficit direction.
"""

import math

import numpy as np
import pytest

from ldglab import closed_forms as cf
from ldglab import meridian3d as m3
from ldglab import radial2d as r2
from ldglab.profiles import RadialProfile, profile_from_map, uniform_grid

TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi
SIX_PI = 6 * math.pi
TEN_PI = 10 * math.pi

pytestmark = pytest.mark.slow

OPTS = r2.SolveOptions(max_iters=20000, grad_tol=1e-5)
OPTS3D = r2.SolveOptions(max_iters=20000, grad_tol=2e-5)


def _report(num, name, passed, detail=""):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {state} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Shared heavy solves.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gap_runs():
    grid = uniform_grid(2049)
    res_s = r2.minimize_2d(
        0.0, "S", r2.preset_profile("uS", grid, noise=0.01, seed=0), OPTS
    )
    res_n = r2.minimize_2d(
        0.0, "N", r2.preset_profile("ghbar", grid, noise=0.002, seed=1), OPTS
    )
    return res_s, res_n


@pytest.fixture(scope="module")
def curve_rows():
    lams = list(np.linspace(0.0, 114.0, 20))
    return r2.energy_curve(lams, OPTS, n=1025, richardson=True)


@pytest.fixture(scope="module")
def lambda_star_run():
    return r2.estimate_lambda_star(tol=0.5, opts=OPTS, n=1025)


@pytest.fixture(scope="module")
def cigar_run():
    geom = m3.build_geometry(8.0, 0.6, 0.2, target_h=0.015)
    runs = m3.minimize_seeds(geom, 1.0, ("split-seed", "torus-seed"), OPTS3D)
    split, torus = runs["split-seed"], runs["torus-seed"]
    best = split if split.energy <= torus.energy else torus
    return geom, best, split, torus


@pytest.fixture(scope="module")
def pancake_run():
    geom = m3.build_geometry(0.8, 12.0, 0.2, target_h=0.025)
    runs = m3.minimize_seeds(geom, 1.0, ("torus-seed", "split-seed"), OPTS3D)
    torus, split = runs["torus-seed"], runs["split-seed"]
    best = torus if torus.energy <= split.energy else split
    geom6 = m3.build_geometry(0.8, 6.0, 0.2, target_h=0.025)
    runs6 = m3.minimize_seeds(geom6, 1.0, ("torus-seed", "split-seed"), OPTS3D)
    torus6, split6 = runs6["torus-seed"], runs6["split-seed"]
    best6 = torus6 if torus6.energy <= split6.energy else split6
    return geom, best, geom6, best6


@pytest.fixture(scope="module")
def weak_cigar_run():
    # Split minimizer with defects deep enough for an interior ball:
    # lam ell^2 = 36 keeps the vertical drive weak.
    geom = m3.build_geometry(6.0, 3.0, 0.2, target_h=0.025)
    runs = m3.minimize_seeds(geom, 4.0, ("split-seed", "torus-seed"), OPTS3D)
    return geom, runs["split-seed"], runs["torus-seed"]


# ---------------------------------------------------------------------------
# Criteria 1-3: closed forms.
# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_energies():
    grid_f = uniform_grid(2049)
    grid_c = uniform_grid(1025)
    e_us_f = r2.radial_energy(profile_from_map(cf.small_solution_us, grid_f), 0.0)[0]
    e_us_c = r2.radial_energy(profile_from_map(cf.small_solution_us, grid_c), 0.0)[0]
    ok = abs(e_us_f - TWO_PI) < 1e-3
    ratio = abs(e_us_c - TWO_PI) / max(abs(e_us_f - TWO_PI), 1e-300)
    ok &= 3.0 < ratio < 5.0  # O(h^2) Richardson confirmation
    details = [f"uS: {e_us_f - TWO_PI:+.2e} (rate ratio {ratio:.2f})"]
    for mu in (0.0, 1.0, math.sqrt(3.0), 5.0, 10.0 + 10.0j):
        e = r2.radial_energy(
            profile_from_map(lambda z: cf.large_solution(mu, z), grid_f), 0.0
        )[0]
        ok &= abs(e - SIX_PI) < 1e-3
        details.append(f"mu={mu}: {e - SIX_PI:+.2e}")
    _report(1, "closed-form energies", ok, "; ".join(details))


def test_criterion_02_exact_potential_integral():
    p = profile_from_map(cf.small_solution_us, uniform_grid(2049))
    pot = r2.radial_energy(p, 1.0)[2]
    exact = -math.sqrt(6.0) / 4.0 * math.pi + math.sqrt(2.0) / 6.0 * math.pi**2
    _report(
        2,
        "uS potential integral",
        abs(pot - exact) < 1e-4,
        f"value {pot:.6f}, exact {exact:.6f}",
    )


def test_criterion_03_conformality_isotropy():
    ok = True
    details = []
    for mu in (0.0, 1.0, math.sqrt(3.0), 1.7 + 0.3j):
        fmap = lambda z: cf.large_solution(mu, z)
        c = cf.conformality_residual(fmap, 257)
        i = cf.isotropy_residual(fmap, 257)
        ok &= c < 1e-4 and i < 1e-4
        details.append(f"mu={mu}: conf {c:.1e} iso {i:.1e}")
    control = lambda z: (np.cos(z.real), np.sin(z.real).astype(complex), np.zeros_like(z))
    ctrl = cf.conformality_residual(control, 257)
    ok &= ctrl > 1e-1
    details.append(f"control {ctrl:.3f}")
    _report(3, "conformality/isotropy", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criteria 4-6: 2D minimization.
# ---------------------------------------------------------------------------


def test_criterion_04_gap_2d(gap_runs):
    res_s, res_n = gap_runs
    grid = res_s.profile.grid
    p_us = profile_from_map(cf.small_solution_us, grid)
    gh = profile_from_map(cf.g_hbar, grid)
    gh_neg = profile_from_map(lambda z: cf.g_hbar(-z), grid)
    d_n = min(res_n.profile.max_norm_distance(gh), res_n.profile.max_norm_distance(gh_neg))
    ok = abs(res_s.energy - TWO_PI) < 5e-3
    ok &= abs(res_n.energy - SIX_PI) < 5e-3
    ok &= d_n < 2e-2
    _report(
        4,
        "2D gap by optimization",
        ok,
        f"classS {res_s.energy - TWO_PI:+.1e}, classN {res_n.energy - SIX_PI:+.1e}, "
        f"g_hbar dist {d_n:.2e}",
    )


def test_criterion_05_energy_curve(curve_rows):
    rows = curve_rows
    est = np.array([row.estar for row in rows])
    ok = all(row.valid for row in rows)
    ok &= bool(np.all(np.diff(est) >= -5e-3))
    ok &= bool(est.min() >= TWO_PI - 5e-3 and est.max() <= TEN_PI + 5e-3)
    d2 = est[:-2] - 2 * est[1:-1] + est[2:]
    ok &= bool(np.max(d2) <= 1e-3)
    e_dev = max(abs(row.e - min(SIX_PI, row.estar)) for row in rows)
    ok &= e_dev <= 5e-3
    _report(
        5,
        "energy curve",
        ok,
        f"e* in [{est.min():.4f}, {est.max():.4f}], max D2 {np.max(d2):.2e}, "
        f"e-rule dev {e_dev:.1e}",
    )


def test_criterion_06_lambda_star(lambda_star_run):
    lo, hi, pt = lambda_star_run
    ok = hi - lo <= 0.5
    ok &= r2.LAMBDA_STAR_LOWER <= lo and hi <= r2.LAMBDA_STAR_UPPER
    below = lo - 5.0
    res_b = r2.minimize_2d(below, "S", "uS", OPTS, grid=uniform_grid(1025))
    ok_b = (
        res_b.energy < SIX_PI
        and res_b.beta_min <= -1 + 2e-2
        and res_b.beta_max >= 1 - 2e-2
    )
    above = hi + 5.0
    res_s = r2.minimize_2d(above, "S", "uS", OPTS, grid=uniform_grid(1025))
    res_n = r2.minimize_2d(above, "N", "ghbar", OPTS, grid=uniform_grid(1025))
    glob = res_n if res_n.energy <= res_s.energy else res_s
    ok_a = glob.class_tag == "N" and glob.potential <= 1e-6
    _report(
        6,
        "lambda_* localization",
        ok and ok_b and ok_a,
        f"interval [{lo:.3f}, {hi:.3f}] width {hi - lo:.3f}; "
        f"below: beta [{res_b.beta_min:.3f}, {res_b.beta_max:.3f}]; "
        f"above: class {glob.class_tag}, potential {glob.potential:.1e}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: tangent-map singularity cost.
# ---------------------------------------------------------------------------


def test_criterion_07_tangent_map_cost():
    vals = [cf.tangent_map_scaled_energy(rho) for rho in (0.5, 1.0, 2.0)]
    ok = all(abs(v - FOUR_PI) < 1e-2 for v in vals)
    _report(
        7,
        "tangent-map 4pi cost",
        ok,
        ", ".join(f"rho-scaled {v:.5f}" for v in vals),
    )


# ---------------------------------------------------------------------------
# Criteria 8-9: cigar and pancake.
# ---------------------------------------------------------------------------


def test_criterion_08_cigar_split(cigar_run):
    geom, best, split, torus = cigar_run
    ok = best.classification == "Split"
    n_up = sum(1 for s in best.singularities if s.position > 0)
    n_dn = sum(1 for s in best.singularities if s.position < 0)
    ok &= n_up % 2 == 1 and n_dn % 2 == 1 and (n_up + n_dn) % 2 == 0
    ok &= best.beta_min <= -1 + 2e-2 and best.beta_max >= 1 - 2e-2
    res2d = r2.minimize_2d(1.0 * 0.6**2, "S", "uS", OPTS, grid=uniform_grid(1025))
    i_mid = geom.nz // 2
    prof3 = RadialProfile(
        geom.r / geom.ell,
        best.field.f0[i_mid],
        best.field.f1[i_mid],
        best.field.f2[i_mid],
    )
    dist = prof3.max_norm_distance(res2d.profile)
    ok &= dist < 3e-2
    ids = m3.energy_identity_residuals(best.field, 1.0)
    ok &= not math.isnan(ids["vertical"]) and ids["vertical"] < 5e-2
    _report(
        8,
        "cigar split structure",
        ok,
        f"E {best.energy:.3f} (torus-seeded {torus.energy:.1f}), sing "
        f"{[round(s.position, 2) for s in best.singularities]}, beta "
        f"[{best.beta_min:.3f}, {best.beta_max:.3f}], 2D-slice dist {dist:.2e}, "
        f"vert-id {ids['vertical']:.1e}",
    )


def test_criterion_09_pancake_torus(pancake_run):
    geom, best, geom6, best6 = pancake_run
    ok = best.classification == "Torus" and len(best.singularities) == 0
    cls, _, ring = m3.classify(best.field)
    ok &= ring is not None
    ratio12 = m3.energy_in_cylinder(best.field, 1.0, 6.0, 0.8) / 12.0
    ratio6 = m3.energy_in_cylinder(best6.field, 1.0, 3.0, 0.8) / 6.0
    decay_ok = ratio12 < 0.5 * ratio6 or (ratio12 < 1e-8 and ratio6 < 1e-8)
    ok &= decay_ok
    radii = np.linspace(0.85, 11.8, 40)
    mono = m3.radial_monotonicity(best.field, 1.0, radii)
    ok &= bool(np.all(np.diff(mono) >= -1e-3))
    _report(
        9,
        "pancake torus structure",
        ok,
        f"E {best.energy:.3f}, ring {ring}, interior ratios "
        f"{ratio12:.2e} vs {ratio6:.2e}, min mono diff {np.min(np.diff(mono)):.1e}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: growth laws.
# ---------------------------------------------------------------------------


def test_criterion_10_growth_laws(pancake_run):
    hs = (4.0, 8.0, 12.0)
    energies = []
    for h in hs:
        geom = m3.build_geometry(h, 0.6, 0.2, target_h=0.015)
        res = m3.minimize_seeds(geom, 1.0, ["split-seed"], OPTS3D)["split-seed"]
        energies.append(res.energy)
    res2d = r2.minimize_2d(0.36, "S", "uS", OPTS, grid=uniform_grid(1025))
    e2d = min(SIX_PI, res2d.energy)
    slope = np.polyfit(hs, energies, 1)[0]
    slope_ok = abs(slope - 2.0 * e2d) / (2.0 * e2d) < 0.05

    geom12, best12, geom6, best6 = pancake_run
    geom9 = m3.build_geometry(0.8, 9.0, 0.2, target_h=0.025)
    best9 = m3.minimize_seeds(geom9, 1.0, ["torus-seed"], OPTS3D)["torus-seed"]
    ks = [best6.energy / 6.0, best9.energy / 9.0, best12.energy / 12.0]
    k_ok = (max(ks) - min(ks)) / min(ks) < 0.10
    _report(
        10,
        "energy growth laws",
        slope_ok and k_ok,
        f"cigar slope {slope:.4f} vs 2 e_(lam l^2) {2 * e2d:.4f}; "
        f"pancake K {['%.3f' % k for k in ks]}",
    )


# ---------------------------------------------------------------------------
# Criterion 11: shape sweep.
# ---------------------------------------------------------------------------


def test_criterion_11_shape_sweep(tmp_path):
    from ldglab import experiments

    cfg = experiments.ExperimentConfig(
        "shape-sweep",
        {
            "h": 2.0,
            "rho": 0.2,
            "lambda": 1.0,
            "target_h": 0.04,
            "ells": [0.6, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 9.0, 12.0],
            "max_iters": 20000,
            "grad_tol": 2e-5,
        },
        str(tmp_path),
    )
    doc = experiments.run(cfg)
    checks = {c["name"]: c for c in doc["summary"]["checks"]}
    ok = all(c["passed"] for c in checks.values())
    wit = doc["summary"]["scalars"]["coexistence_ell"]["value"]
    _report(
        11,
        "shape sweep",
        ok,
        f"classes {next(r for r in doc['runs'] if r['id'] == 'shape/summary')['classes']}, "
        f"coexistence at ell = {wit}",
    )


# ---------------------------------------------------------------------------
# Criterion 12: second variation and instability.
# ---------------------------------------------------------------------------


def test_criterion_12_second_variation_and_instability(weak_cigar_run):
    eigs = {}
    for lam in (0.0, 0.1):
        res = r2.minimize_2d(lam, "S", "uS", OPTS, grid=uniform_grid(1025))
        smallest, _ = r2.second_variation_spectrum(res.profile, lam)
        eigs[lam] = smallest
    hess_ok = all(v >= -1e-6 for v in eigs.values())

    geom, split, torus = weak_cigar_run
    minimizer_ok = split.classification == "Split" and split.energy <= torus.energy
    pz = max(s.position for s in split.singularities)
    eta = m3.EtaSpec()
    val = m3.instability_form(split.field, 4.0, pz, 0.5, eta=eta)
    inst_ok = val < 0.0 and eta.hardy_deficit() < 0.0
    _report(
        12,
        "second variation / instability",
        hess_ok and minimizer_ok and inst_ok,
        f"2D Hessian eigs {eigs}; split minimizer E {split.energy:.2f} "
        f"(torus-seeded {torus.energy:.2f}); instability {val:.3f} "
        f"(deficit {eta.hardy_deficit():.3f})",
    )

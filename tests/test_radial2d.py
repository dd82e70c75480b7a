"""2D minimizer tests (fast grids; the acceptance suite runs the big ones).

Groups:
 1. radial_energy: structure, error paths, the segment-form reference,
    O(h^2) quadrature.
 2. Euler-Lagrange residual examples, including the boundary-mismatch flag.
 3. minimize_2d: gap recovery, class handling, determinism; the ladder and
    CG direction rules each descend monotonically to one 2D minimum.
 4. energy_curve and the lambda_* bisection on coarse grids.
 5. Second variation: positivity at the small solution, zero at zero,
    non-stationary rejection, oracle agreement, the nodewise
    finite-difference reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ldglab import closed_forms as cf
from ldglab import descent
from ldglab import radial2d as r2
from ldglab import tensor_core as tc
from ldglab.profiles import BOUNDARY_F, RadialProfile, profile_from_map, uniform_grid

TWO_PI = 2 * np.pi
SIX_PI = 6 * np.pi
TEN_PI = 10 * np.pi


def us_profile(n=513):
    return profile_from_map(cf.small_solution_us, uniform_grid(n))


def test_radial_energy_split_identity():
    p = us_profile()
    for lam in (0.0, 0.7, 3.0):
        total, dirichlet, potential = r2.radial_energy(p, lam)
        assert total == pytest.approx(dirichlet + lam * potential, abs=1e-10)
    with pytest.raises(ValueError):
        r2.radial_energy(p, -1.0)


def test_radial_energy_rejects_norm_violation():
    p = us_profile(65)
    p.f0 = p.f0 * 1.01
    with pytest.raises(ValueError):
        r2.radial_energy(p, 0.0)


def test_radial_energy_examples():
    p = us_profile(2049)
    assert r2.radial_energy(p, 0.0)[0] == pytest.approx(TWO_PI, abs=1e-3)
    gh = profile_from_map(cf.g_hbar, uniform_grid(2049))
    total, _, pot = r2.radial_energy(gh, 5.0)
    assert total == pytest.approx(SIX_PI, abs=1e-3)
    assert abs(pot) < 1e-6


@pytest.mark.parametrize("solution", [cf.small_solution_us, cf.g_hbar])
def test_radial_dirichlet_is_the_segment_form(solution):
    r = uniform_grid(513)
    p = profile_from_map(solution, r)
    dr = np.diff(r)
    wr = r * np.concatenate(([dr[0]], dr[:-1] + dr[1:], [dr[-1]])) / 2.0
    seg_coef = 0.5 * (r[:-1] + r[1:]) / dr
    seg = sum(np.sum(seg_coef * np.abs(np.diff(f)) ** 2) for f in (p.f0, p.f1, p.f2))
    pen = np.sum(wr[1:] * (np.abs(p.f1[1:]) ** 2 + 4.0 * np.abs(p.f2[1:]) ** 2) / r[1:] ** 2)
    assert r2.radial_energy(p, 0.0)[1] == pytest.approx(np.pi * (seg + pen), rel=1e-11)


def test_el_residual_us():
    assert r2.el_residual_2d(us_profile(2049), 0.0) < 1e-3


def test_el_residual_constant_vacuum_flags_boundary():
    n = 257
    grid = uniform_grid(n)
    p = RadialProfile(grid, np.ones(n), np.zeros(n, complex), np.zeros(n, complex))
    with pytest.warns(UserWarning, match="boundary"):
        res = r2.el_residual_2d(p, 0.0)
    assert res == pytest.approx(0.0, abs=1e-12)


def test_minimize_gap_small_grids():
    opts = r2.SolveOptions()
    res_s = r2.minimize_2d(0.0, "S", r2.preset_profile("uS", uniform_grid(513), noise=0.01, seed=1), opts)
    assert res_s.converged and res_s.class_tag == "S"
    assert res_s.energy == pytest.approx(TWO_PI, abs=5e-3)
    assert res_s.profile.max_norm_distance(us_profile()) < 1e-2
    assert res_s.beta_min == pytest.approx(-1.0, abs=1e-9)
    assert res_s.beta_max == pytest.approx(1.0, abs=1e-9)
    assert res_s.residual < 10 * opts.grad_tol

    res_n = r2.minimize_2d(0.0, "N", r2.preset_profile("ghbar", uniform_grid(513), noise=0.005, seed=2), opts)
    assert res_n.converged
    assert res_n.energy == pytest.approx(SIX_PI, abs=5e-3)


def test_minimize_energy_split_invariant():
    res = r2.minimize_2d(0.8, "S", "uS", grid=uniform_grid(257))
    assert res.energy == pytest.approx(res.dirichlet + 0.8 * res.potential, abs=1e-10)
    assert -1 - 1e-9 <= res.beta_min and res.beta_max <= 1 + 1e-9


def test_minimize_class_mismatch_raises():
    with pytest.raises(ValueError):
        r2.minimize_2d(0.0, "N", "uS", grid=uniform_grid(129))
    with pytest.raises(ValueError):
        r2.minimize_2d(0.0, "X", "uS", grid=uniform_grid(129))


@pytest.mark.parametrize("lam", [0.5, 20.0])
def test_direction_rules_agree_on_the_2d_minimum(lam):
    # The ladder and CG share the increment but not the path: each must
    # record a monotone history and converge, and both must reach the same
    # discrete minimum, stationary for the Euler-Lagrange system.
    grid = uniform_grid(129)
    init = r2.preset_profile("uS", grid, noise=0.05, seed=3)
    prob = r2._problem_for(grid, lam)
    opts = descent.SolveOptions(max_iters=800)
    minima = {}
    for direction in ("ladder", "cg"):
        history = [descent.energy(prob, descent.stack_fields(init.f0, init.f1, init.f2))]
        fields, _, converged = descent.descend(
            prob, (init.f0, init.f1, init.f2), opts,
            on_accept=lambda it, e: history.append(e), direction=direction,
        )
        assert converged and len(history) > 1
        # Nonincreasing up to the engine's floating-point acceptance slack.
        assert all(b <= a + 1e-10 + 1e-12 * abs(a) for a, b in zip(history, history[1:]))
        state = descent.stack_fields(*fields)
        assert descent.energy(prob, state) == history[-1]
        assert descent.gradient_norm(prob, state) < opts.grad_tol
        # From about 6e3 at the noisy init; what is left is the finite-
        # difference residual's own discretization error on 129 nodes.
        assert r2.el_residual_2d(RadialProfile(grid.copy(), *fields), lam) < 1e-2
        minima[direction] = history[-1]
    assert minima["cg"] == pytest.approx(minima["ladder"], rel=1e-10, abs=0.0)


def test_node_norms_exact_after_projection():
    res = r2.minimize_2d(0.3, "S", "uS", grid=uniform_grid(257))
    assert np.max(np.abs(res.profile.node_norms() - 1.0)) < 1e-14


def test_pins_off_by_roundoff_come_back_exact():
    init = r2.preset_profile("uS", uniform_grid(129))
    init.f1[0] = init.f2[0] = 1e-10
    init.f0[-1] += 1e-10
    init.f2[-1] -= 1e-10j
    kept = init.copy()
    res = r2.minimize_2d(1.0, "S", init, r2.SolveOptions(max_iters=50))
    prof = res.profile
    assert (prof.f0[0], prof.f1[0], prof.f2[0]) == (-1.0, 0.0, 0.0)
    assert (prof.f0[-1], prof.f1[-1], prof.f2[-1]) == BOUNDARY_F
    # The caller's init is left as it was.
    assert all(np.array_equal(getattr(init, k), getattr(kept, k)) for k in ("f0", "f1", "f2"))


def test_minimize_deterministic():
    a = r2.minimize_2d(1.0, "S", r2.preset_profile("uS", uniform_grid(257), noise=0.01, seed=9))
    b = r2.minimize_2d(1.0, "S", r2.preset_profile("uS", uniform_grid(257), noise=0.01, seed=9))
    assert a.energy == b.energy
    assert np.array_equal(a.profile.f0, b.profile.f0)


def test_class_preservation_at_zero_lambda():
    res = r2.minimize_2d(0.0, "S", r2.preset_profile("uS", uniform_grid(257), noise=0.02, seed=4))
    assert not res.escaped
    assert np.sign(res.profile.f0[1]) == -1


def test_energy_curve_coarse():
    lambdas = [0.0, 10.0, 20.0, 30.0]
    rows = r2.energy_curve(lambdas, r2.SolveOptions(), n=257)
    est = [row.estar for row in rows]
    assert all(row.valid for row in rows)
    assert est[0] == pytest.approx(TWO_PI, abs=5e-3)
    assert all(b >= a - 5e-3 for a, b in zip(est, est[1:]))
    assert all(TWO_PI - 5e-3 <= v <= TEN_PI + 5e-3 for v in est)
    for row in rows:
        assert row.e == pytest.approx(min(SIX_PI, row.estar), abs=5e-3)
    # Discrete concavity on the uniform grid.
    d2 = np.diff(est, 2)
    assert np.max(d2) <= 1e-3


def test_energy_curve_records_failed_inits(monkeypatch):
    lambdas = [0.0, 10.0]
    clean = r2.energy_curve(lambdas, n=129)
    solve = r2.minimize_2d

    def failing(lam, class_tag, init, *args, **kwargs):
        if isinstance(init, str) and init in failing.inits:
            raise RuntimeError(f"no {init}")
        return solve(lam, class_tag, init, *args, **kwargs)

    failing.inits = ("bubbled",)
    monkeypatch.setattr(r2, "minimize_2d", failing)
    rows = r2.energy_curve(lambdas, n=129)
    # At weak coupling 'bubbled' only ever ties the other inits.
    assert [row.estar for row in rows] == pytest.approx([row.estar for row in clean], rel=1e-12)
    assert all(row.failures == (("bubbled", "no bubbled"),) for row in rows)
    assert all(row.failures == () for row in clean)
    # With every init failing, the row is invalid and carries the reasons.
    failing.inits = ("uS", "bubbled")
    (row,) = r2.energy_curve([0.0], n=129)
    assert not row.valid
    ((name, message),) = row.failures
    assert name == "row" and "no uS" in message and "no bubbled" in message


def test_warm_starts_descend_on_their_own_grid(monkeypatch):
    # A continuation warm start and a Richardson fine solve begin from a
    # converged profile: one descent, on the init's own grid.  The named
    # presets and a cold noisy profile still descend on 129 nodes first.
    solve, step = r2.minimize_2d, r2._descend
    calls = []

    def labelled(lam, class_tag, init, *args, **kwargs):
        calls.append((init if isinstance(init, str) else init.n, []))
        return solve(lam, class_tag, init, *args, **kwargs)

    def recording(prof, *args):
        calls[-1][1].append(prof.n)
        return step(prof, *args)

    monkeypatch.setattr(r2, "minimize_2d", labelled)
    monkeypatch.setattr(r2, "_descend", recording)
    rows = r2.energy_curve([0.0, 6.0], n=257)
    assert all(row.valid for row in rows)
    assert calls == [
        ("uS", [129, 257]), ("bubbled", [129, 257]), (513, [513]),
        (257, [257]), ("uS", [129, 257]), ("bubbled", [129, 257]), (513, [513]),
    ]
    # The levels, not the final state, are the subject: a small budget
    # keeps the class-N descent short.
    calls.clear()
    noisy = r2.preset_profile("ghbar", uniform_grid(257), noise=0.005, seed=2)
    r2.minimize_2d(0.0, "N", noisy, r2.SolveOptions(max_iters=200))
    assert calls == [(257, [129, 257])]


def test_unconverged_solves_are_recorded(monkeypatch):
    step = r2._descend

    def unconverged(prof, *args):
        out, it, _ = step(prof, *args)
        return out, it, False

    clean = r2.energy_curve([0.0, 6.0], n=129)
    assert all(row.converged and row.fine_converged for row in clean)

    monkeypatch.setattr(r2, "_descend", unconverged)
    rows = r2.energy_curve([0.0, 6.0], n=129)
    # Unconverged is not failed: the rows stay valid and keep their energies.
    assert [row.estar for row in rows] == [row.estar for row in clean]
    assert all(row.valid and not row.converged and row.fine_converged is False for row in rows)
    est = r2.estimate_lambda_star(tol=40.0, n=129, bracket=(60.0, 140.0))
    assert est.failures == ()
    # Each endpoint has no warm start; the midpoint has one.
    assert est.unconverged == (
        (60.0, "uS"), (60.0, "bubbled"), (140.0, "uS"), (140.0, "bubbled"),
        (100.0, "warm"), (100.0, "uS"), (100.0, "bubbled"),
    )


def record_curve(monkeypatch, lambdas, n):
    """energy_curve(lambdas, n=n) from an empty discretization cache, with
    every minimize_2d result, the order of every matrix that splu factors
    and the (grid size, lambda) of every descent."""
    monkeypatch.setattr(r2, "_DISC_CACHE", {})
    solve, splu, descend = r2.minimize_2d, spla.splu, descent.descend
    log = {"results": [], "factored": [], "descents": []}

    def recording_solve(*args, **kwargs):
        log["results"].append(solve(*args, **kwargs))
        return log["results"][-1]

    def counting_splu(mat, *args, **kwargs):
        log["factored"].append(mat.shape[0])
        return splu(mat, *args, **kwargs)

    def recording_descend(p, *args, **kwargs):
        log["descents"].append((p.mass.size, p.lam))
        return descend(p, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(r2, "minimize_2d", recording_solve)
        patch.setattr(spla, "splu", counting_splu)
        patch.setattr(descent, "descend", recording_descend)
        return r2.energy_curve(lambdas, n=n), log


def test_the_descents_at_one_lambda_share_one_factor_per_grid(monkeypatch):
    # Above lambda_*: 'uS', 'bubbled' and 'ghbar' on 129 nodes, and the
    # Richardson solve on 257.
    rows, shared = record_curve(monkeypatch, [100.0], 129)
    assert rows[0].valid and rows[0].global_class == "N"
    assert sorted(shared["descents"]) == [(129, 100.0)] * 3 + [(257, 100.0)]
    # One factor per grid, over the three components' interior nodes.
    assert sorted(shared["factored"]) == [3 * 127, 3 * 255]
    # Bit for bit what a fresh Problem, and factor, for every descent gives.
    monkeypatch.setattr(r2, "_descent_problem", r2._problem_for)
    fresh_rows, fresh = record_curve(monkeypatch, [100.0], 129)
    assert len(fresh["factored"]) == len(fresh["descents"]) == 4
    assert fresh_rows == rows
    assert len(fresh["results"]) == len(shared["results"]) == 4
    for a, b in zip(shared["results"], fresh["results"]):
        assert (a.energy, a.iterations, a.residual) == (b.energy, b.iterations, b.residual)
        for name in ("f0", "f1", "f2"):
            assert getattr(a.profile, name).tobytes() == getattr(b.profile, name).tobytes()


def test_a_new_lambda_replaces_the_shared_factor(monkeypatch):
    grid = uniform_grid(129)
    monkeypatch.setattr(r2, "_DISC_CACHE", {})
    alone = r2.minimize_2d(60.0, "S", "uS", grid=grid)
    monkeypatch.setattr(r2, "_DISC_CACHE", {})
    r2.minimize_2d(5.0, "S", "uS", grid=grid)
    after = r2.minimize_2d(60.0, "S", "uS", grid=grid)
    assert (after.energy, after.iterations) == (alone.energy, alone.iterations)
    for name in ("f0", "f1", "f2"):
        assert getattr(after.profile, name).tobytes() == getattr(alone.profile, name).tobytes()
    # The grid holds one Problem, the last lambda's; radial_energy's
    # lambda = 0 Problem does not replace it.
    (disc,) = r2._DISC_CACHE.values()
    held = disc.descent_problem
    r2.radial_energy(after.profile, 60.0)
    assert disc.descent_problem is held and held.lam == 60.0


def test_lambda_star_coarse_bracket():
    lo, hi, pt = r2.estimate_lambda_star(tol=2.0, n=257, bracket=(60.0, 140.0))
    assert hi - lo <= 2.0
    assert 60.0 <= lo <= hi <= 140.0
    # The threshold sits in the certified interval.
    assert r2.LAMBDA_STAR_LOWER <= pt <= r2.LAMBDA_STAR_UPPER


def test_lambda_star_bad_bracket_raises():
    with pytest.raises(RuntimeError, match="sign change"):
        r2.estimate_lambda_star(tol=1.0, n=129, bracket=(0.5, 1.0))


def test_second_variation_positive_at_us():
    p = us_profile(513)
    smallest, vals = r2.second_variation_spectrum(p, 0.0)
    assert smallest > 0
    assert np.all(np.diff(vals) >= -1e-9)


def test_second_variation_spectrum_is_reproducible():
    res = r2.minimize_2d(5.0, "S", "uS", grid=uniform_grid(129))
    runs = [r2.second_variation_spectrum(res.profile, 5.0) for _ in range(3)]
    for smallest, vals in runs[1:]:
        assert smallest == runs[0][0]
        assert vals.tobytes() == runs[0][1].tobytes()


def test_second_variation_zero_at_zero():
    p = us_profile(257)
    z = np.zeros(257)
    assert r2.second_variation_form(p, 0.3, (z, z.astype(complex), z.astype(complex))) == 0.0


def random_direction(n, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
    )


def tangent_part(p, phi):
    """phi projected tangentially along p and zeroed at the pinned nodes."""
    dot = phi[0] * p.f0 + (phi[1] * np.conj(p.f1)).real + (phi[2] * np.conj(p.f2)).real
    q = [phi[0] - dot * p.f0, phi[1] - dot * p.f1, phi[2] - dot * p.f2]
    for arr in q:
        arr[0] = 0.0
        arr[-1] = 0.0
    return q


def fd_hessian_w(v, step=1e-6):
    """Central differences of grad_w_homog, symmetrized."""
    h = np.zeros((5, 5))
    for j in range(5):
        e = np.zeros(5)
        e[j] = step
        h[:, j] = (tc.grad_w_homog(v + e) - tc.grad_w_homog(v - e)) / (2.0 * step)
    return 0.5 * (h + h.T)


def test_second_variation_form_matches_nodewise_reference():
    # The potential term summed node by node with a finite-difference
    # Hessian of W, as the form was first written.
    n = 129
    p = r2.preset_profile("uS", uniform_grid(n), noise=0.01, seed=2)
    phi = random_direction(n, 7)
    lam = 3.0
    q = tangent_part(p, phi)
    mass = r2._disc_for(p.grid).mass
    u5 = np.stack([p.f0, p.f1.real, p.f1.imag, p.f2.real, p.f2.imag], axis=1)
    p5 = np.stack([q[0], q[1].real, q[1].imag, q[2].real, q[2].imag], axis=1)
    pot = 0.0
    for i in range(n):
        if mass[i] != 0.0:
            pot += mass[i] * float(p5[i] @ fd_hessian_w(u5[i]) @ p5[i])
    reference = r2.second_variation_form(p, 0.0, phi) + lam * pot
    assert r2.second_variation_form(p, lam, phi) == pytest.approx(reference, rel=1e-8)


def test_second_variation_spectrum_matches_nodewise_reference():
    # Assembled node by node: Gram-Schmidt tangent frames and a
    # finite-difference Hessian of W, as the spectrum was first written.
    # Eigenvalues do not depend on the choice of tangent basis.
    res = r2.minimize_2d(0.1, "S", "uS", grid=uniform_grid(129))
    p, lam, n = res.profile, 0.1, 129
    d = r2._disc_for(p.grid)
    u5 = np.stack([p.f0, p.f1.real, p.f1.imag, p.f2.real, p.f2.imag], axis=1)
    big = sp.block_diag([d.lap + k * k * sp.diags(d.pen) for k in (0, 1, 1, 2, 2)], format="lil")
    big -= sp.diags(np.tile(d.mass * d.grad_sq(p.f0, p.f1, p.f2), 5))
    t = sp.lil_matrix((5 * n, 4 * (n - 2)))
    for i in range(1, n - 1):
        h = lam * d.mass[i] * fd_hessian_w(u5[i])
        cols = []
        for j in range(5):
            v = np.eye(5)[j] - u5[i, j] * u5[i]
            for c in cols:
                v = v - np.dot(v, c) * c
            if np.linalg.norm(v) > 1e-8 and len(cols) < 4:
                cols.append(v / np.linalg.norm(v))
        for a in range(5):
            for b in range(5):
                big[a * n + i, b * n + i] += h[a, b]
            for b in range(4):
                t[a * n + i, 4 * (i - 1) + b] = cols[b][a]
    t = t.tocsr()
    h_t = (t.T @ big.tocsr() @ t).tocsc()
    m_t = sp.diags(np.repeat(d.mass[1:-1], 4)).tocsc()
    ref = np.sort(spla.eigsh(h_t, k=4, M=m_t, sigma=-2.0, which="LM", return_eigenvectors=False))
    _, vals = r2.second_variation_spectrum(p, lam)
    assert vals == pytest.approx(ref, rel=1e-8)


def test_second_variation_oracle():
    # Assembled quadratic form equals the literal second difference of the
    # discrete energy along a projected direction.
    n = 129
    grid = uniform_grid(n)
    p = us_profile(n)
    phi = random_direction(n, 5)
    lam = 0.4
    form = r2.second_variation_form(p, lam, phi)
    q = tangent_part(p, phi)
    prob = r2._problem_for(grid, lam)

    def energy_at(t):
        v0 = p.f0 + t * q[0].real
        v1 = p.f1 + t * q[1]
        v2 = p.f2 + t * q[2]
        norm = np.sqrt(v0**2 + np.abs(v1) ** 2 + np.abs(v2) ** 2)
        return descent.energy(prob, descent.stack_fields(v0 / norm, v1 / norm, v2 / norm))

    t = 1e-4
    oracle = (energy_at(t) - 2 * energy_at(0.0) + energy_at(-t)) / t**2
    assert form == pytest.approx(oracle, rel=1e-5)


def test_second_variation_rejects_nonstationary():
    p = r2.preset_profile("uS", uniform_grid(257), noise=0.2, seed=11)
    with pytest.raises(ValueError, match="stationary"):
        r2.second_variation_spectrum(p, 0.0)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        r2.SolveOptions(grad_tol=-1.0)
    with pytest.raises(ValueError):
        r2.SolveOptions(max_iters=0)
    # A max_iters with a fraction is refused, not truncated; a whole float,
    # as a config file gives 2e4, is taken as the integer.
    with pytest.raises(ValueError, match="whole number"):
        r2.SolveOptions(max_iters=1.5)
    opts = r2.SolveOptions(max_iters=2e4)
    assert opts.max_iters == 20000 and isinstance(opts.max_iters, int)

"""Descent engine tests: the semi-implicit step against a reference.

Groups:
 1. The increment-form step equals a full right-hand-side reference step
    on a radial and a meridian problem, and the shifted matrices assembled
    from the cached free-node blocks equal the reference's byte for byte.
 2. Discrete stationary states are fixed points of the step.
 3. Carried stiffness products: the energy with precomputed products, and
    one product per component per candidate step.
 4. The factors: a full descent, backtracking included, factors one
    matrix and extracts one free-node block per component; factors live
    on the Problem, keyed by tau, so descents with different step sizes
    can share one Problem.
 5. The flip sweep of the deep-backtracking branch refreshes the carried
    products and signed biaxiality.
 6. Real fields: the step's pieces agree on real arrays and on the same
    values held in complex ones; a real field descends in real arrays, a
    complex one keeps its imaginary part, and both come back complex.
 7. Properties (hypothesis): the energy is invariant under the circle
    action, and the accepted energies of a descent never rise.
"""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ldglab import descent
from ldglab import meridian3d as m3
from ldglab import radial2d as r2
from ldglab.profiles import uniform_grid
from ldglab.tensor_core import beta_arrays, grad_w_tan_arrays, renormalize_arrays


def radial_case(lam=20.0, n=129):
    grid = uniform_grid(n)
    prof = r2.preset_profile("uS", grid, noise=0.05, seed=3)
    prob = r2._problem_for(grid, lam, -1.0)
    return prob, (prof.f0, prof.f1, prof.f2)


def radial_free_axis_case():
    """A radial problem whose axis node is free: a free row of zero mass."""
    prob, fields = radial_case()
    n = fields[0].size
    prob.free = (np.arange(n - 1),) * 3
    assert prob.mass[0] == 0.0
    return prob, fields


def meridian_split_seed(lam=1.0):
    geom = m3.build_geometry(3.0, 0.6, 0.2, target_h=0.1)
    fld = m3.seed_field(geom, lam, "split-seed")
    return m3._problem_for(fld, lam), fld


def meridian_case(lam=1.0):
    prob, fld = meridian_split_seed(lam)
    rng = np.random.default_rng(5)
    f = [fld.f0.ravel().copy(), fld.f1.ravel().copy(), fld.f2.ravel().copy()]
    for c, scale in enumerate((0.1, 0.1 + 0.1j, 0.1 - 0.05j)):
        f[c][prob.free[c]] += scale * rng.standard_normal(prob.free[c].size)
    return prob, prob.project(*renormalize_arrays(*f))


def reference_matrix(p, c, tau):
    """M (1 + tau lam C) + tau A_c on the free nodes, rebuilt from the full operators."""
    idx = p.free[c]
    shift = p.mass * (1.0 + tau * p.lam * descent.STAB_C)
    return (sp.diags(shift) + tau * p.stiff[c]).tocsr()[idx, :][:, idx].tocsc()


def reference_step(p, fields, tau):
    """The semi-implicit step with the full right-hand side, before renormalization.

    (M (1 + tau lam C) + tau A_ff) v_f
        = M (1 + tau lam C) f + tau (M sigma f - lam M grad W_tan) - tau A_fb f_b,
    with sigma = (A f) . conj(f) / M the nodal multiplier (0 where M = 0).
    """
    f0, f1, f2 = (np.asarray(f, dtype=complex) for f in fields)
    gws = grad_w_tan_arrays(*fields)
    s = sum(((p.stiff[c] @ f) * np.conj(f)).real for c, f in enumerate((f0, f1, f2)))
    sigma = np.zeros_like(s)
    np.divide(s, p.mass, out=sigma, where=p.mass > 0)
    shift = p.mass * (1.0 + tau * p.lam * descent.STAB_C)
    out = []
    for c, f in enumerate((f0, f1, f2)):
        idx = p.free[c]
        mat = reference_matrix(p, c, tau)
        bvec = f.copy()
        bvec[idx] = 0.0
        rhs = shift * f - tau * p.lam * p.mass * gws[c] + tau * p.mass * sigma * f
        rhs = rhs[idx] - tau * (p.stiff[c] @ bvec)[idx]
        v = f.copy()
        v[idx] = spla.spsolve(mat, rhs.real) + 1j * spla.spsolve(mat, rhs.imag)
        out.append(v)
    return out[0].real, out[1], out[2]


def increment_step(p, fields, ladder, step=0.1):
    """The candidate f + delta at tau = step * 2**ladder, before renormalization."""
    af = descent.stiffness_products(p, *fields)
    force = descent._force(p, *fields, af, descent._grad_w(p, *fields))
    delta = descent._semi_implicit(p, fields, force, step * 2.0**ladder)
    return [f + d for f, d in zip(fields, delta)]


def rel_diff(a, b):
    num = sum(float(np.sum(np.abs(x - y) ** 2)) for x, y in zip(a, b))
    den = sum(float(np.sum(np.abs(y) ** 2)) for y in b)
    return np.sqrt(num / den)


@pytest.mark.parametrize("case", [radial_case, radial_free_axis_case, meridian_case])
@pytest.mark.parametrize("ladder", [-3, 0, 6])
def test_increment_step_matches_full_rhs_reference(case, ladder):
    p, fields = case()
    assert np.any(fields[1].imag != 0.0)  # the 2-column solve is exercised
    got = increment_step(p, fields, ladder)
    want = reference_step(p, fields, 0.1 * 2.0**ladder)
    assert got[0].dtype == float
    assert rel_diff(got, want) < 1e-12
    # The step moves the state: the comparison is not between two copies of f.
    assert rel_diff(fields, want) > 1e-4


@pytest.mark.parametrize("case", [radial_case, radial_free_axis_case, meridian_case])
def test_shifted_matrices_equal_the_reference_byte_for_byte(case):
    p, _ = case()
    for c in range(3):
        for ladder in range(-12, 7):
            tau = 0.1 * 2.0**ladder
            got, want = p.shifted(c, tau), reference_matrix(p, c, tau)
            for attr in ("data", "indices", "indptr"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (c, ladder, attr)
    assert sorted(p.blocks) == [0, 1, 2]


def test_a_free_node_without_a_stored_diagonal_is_rejected():
    p, _ = radial_case()
    a = p.stiff[1].tolil()
    k = p.free[1][3]
    a[k, k] = 0.0
    p.stiff = (p.stiff[0], a.tocsc(), p.stiff[2])
    with pytest.raises(ValueError, match="diagonal"):
        p.shifted(1, 0.1)


def constant_problem(value, lam, n=65):
    """Radial operators with both ends pinned to one constant unit vector."""
    d = r2._disc_for(uniform_grid(n))

    def project(v0, v1, v2):
        for v, x in zip((v0, v1, v2), value):
            v[0] = v[-1] = x
        return v0, v1, v2

    prob = descent.Problem(
        stiff=(d.stiff[0], d.stiff[1], d.stiff[2]),
        mass=d.mass,
        free=(d.interior,) * 3,
        project=project,
        lam=lam,
    )
    fields = (np.full(n, value[0], dtype=float), np.full(n, value[1], dtype=complex),
              np.full(n, value[2], dtype=complex))
    return prob, fields


@pytest.mark.parametrize(
    "value, lam",
    [
        ((1.0, 0.0, 0.0), 20.0),  # E0: the potential's tangential gradient vanishes
        ((0.0, 0.6 + 0.8j, 0.0), 0.0),  # A f != 0, balanced by the multiplier alone
    ],
)
def test_stationary_state_is_a_fixed_point(value, lam):
    p, fields = constant_problem(value, lam)
    assert descent.gradient_norm(p, *fields) < 1e-12
    if lam == 0.0:
        assert np.max(np.abs(p.stiff[1] @ fields[1])) > 1.0
    for ladder in (0, 6):
        step = increment_step(p, fields, ladder)
        moved = p.project(*renormalize_arrays(*step))
        assert rel_diff(moved, fields) < 1e-13
    out, _, converged = descent.descend(p, fields, descent.SolveOptions(max_iters=30))
    assert converged
    assert rel_diff(out, fields) < 1e-13


@pytest.mark.parametrize("case", [radial_case, meridian_case])
def test_energy_with_carried_products(case):
    p, fields = case()
    af = descent.stiffness_products(p, *fields)
    assert descent.energy(p, *fields, af) == descent.energy(p, *fields)
    ref = descent.riemannian_gradient(p, *fields)
    for g, h in zip(descent.riemannian_gradient(p, *fields, af), ref):
        assert np.array_equal(g, h)


def test_carried_products_stay_fresh_through_flips(monkeypatch):
    # The split seed flips two axis nodes within its first iterations.
    p, fld = meridian_split_seed()
    flips = []
    seen = []
    carried = []

    def fresh(f0, f1, f2, af, gw=None, beta=None):
        if af is not None:
            ref = descent.stiffness_products(p, f0, f1, f2)
            seen.append(all(np.array_equal(a, b) for a, b in zip(af, ref)))
        if gw is not None:
            ref = grad_w_tan_arrays(f0, f1, f2)
            seen.append(all(np.array_equal(a, b) for a, b in zip(gw, ref)))
        if beta is not None:
            seen.append(np.array_equal(beta, beta_arrays(f0, f1, f2)))

    energy, gradient_norm, flip_sweep = descent.energy, descent.gradient_norm, descent.flip_sweep
    grad_w = descent.grad_w_tan_arrays

    def checked_energy(p, f0, f1, f2, af=None, beta=None):
        fresh(f0, f1, f2, af, beta=beta)
        return energy(p, f0, f1, f2, af, beta)

    def checked_grad_w(f0, f1, f2, beta=None):
        fresh(f0, f1, f2, None, beta=beta)
        carried.append(beta is not None)
        return grad_w(f0, f1, f2, beta)

    def checked_gradient_norm(p, f0, f1, f2, af=None, gw=None):
        fresh(f0, f1, f2, af, gw)
        return gradient_norm(p, f0, f1, f2, af, gw)

    def counted_flip_sweep(*args, **kwargs):
        out = flip_sweep(*args, **kwargs)
        flips.append(out[1])
        return out

    monkeypatch.setattr(descent, "energy", checked_energy)
    monkeypatch.setattr(descent, "gradient_norm", checked_gradient_norm)
    monkeypatch.setattr(descent, "flip_sweep", counted_flip_sweep)
    monkeypatch.setattr(descent, "grad_w_tan_arrays", checked_grad_w)
    fields = (fld.f0.ravel(), fld.f1.ravel(), fld.f2.ravel())
    _, _, converged = descent.descend(p, fields, descent.SolveOptions(max_iters=3000))
    assert converged and sum(flips) > 0
    assert seen and all(seen)
    # beta is carried into grad W_tan, and recomputed after each flip.
    assert any(carried) and not all(carried)


class CountingStiffness:
    """A stiffness matrix that counts its matrix-vector products."""

    def __init__(self, mat):
        self.mat = mat
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self.mat @ x

    def __rmul__(self, scalar):
        return scalar * self.mat

    def __getattr__(self, attr):
        return getattr(self.mat, attr)


def test_one_stiffness_product_per_component_per_candidate(monkeypatch):
    p, fields = radial_case(lam=5.0)
    counted = [CountingStiffness(a) for a in p.stiff]
    p.stiff = tuple(counted)
    candidates = []
    energy = descent.energy

    def counting_energy(*args, **kwargs):
        candidates.append(1)
        return energy(*args, **kwargs)

    monkeypatch.setattr(descent, "energy", counting_energy)
    _, iters, _ = descent.descend(p, fields, descent.SolveOptions(max_iters=120))
    # The initial state plus one candidate per iteration; no flip sweeps here.
    assert len(candidates) == iters + 1
    assert [a.products for a in counted] == [iters + 1] * 3


def test_a_descent_factors_one_matrix_per_component(monkeypatch):
    p, fields = meridian_case()
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    free_block = descent._free_block
    blocks = []

    def counting_free_block(*args):
        blocks.append(1)
        return free_block(*args)

    energy = descent.energy
    evaluations = []

    def every_tenth_rises(*args, **kwargs):
        # These steps are all accepted as they are: raise every tenth
        # energy so that the descent also backtracks.
        evaluations.append(1)
        return energy(*args, **kwargs) + (1.0 if len(evaluations) % 10 == 0 else 0.0)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(descent, "_free_block", counting_free_block)
    monkeypatch.setattr(descent, "energy", every_tenth_rises)
    accepted = []
    _, iters, _ = descent.descend(p, fields, descent.SolveOptions(max_iters=200),
                                  on_accept=lambda it, e: accepted.append(it))
    # Many accepts, so the ladder climbs, and many rejections, so it falls,
    # yet one factorization and one free-node block per component.
    assert len(set(accepted)) > 16 and iters - len(set(accepted)) > 16
    assert len(calls) == 3 and len(blocks) == 3
    assert sorted(p.factors) == [(c, 0.1 * 2.0**descent.LADDER_MAX) for c in range(3)]


def test_descents_with_different_steps_share_one_problem():
    p, fields = meridian_case()
    shared = [descent.descend(p, fields, descent.SolveOptions(step=step, max_iters=60))
              for step in (0.1, 0.05, 0.1)]
    assert p.factors
    for step, got in zip((0.1, 0.05, 0.1), shared):
        fresh, _ = meridian_case()
        want = descent.descend(fresh, fields, descent.SolveOptions(step=step, max_iters=60))
        assert got[1:] == want[1:]
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
    assert rel_diff(shared[0][0], shared[1][0]) > 1e-8


def test_deep_backtracking_flip_refreshes_carried_products(monkeypatch):
    p, fld = meridian_split_seed()
    f0, f1, f2 = fld.f0.ravel().copy(), fld.f1.ravel(), fld.f2.ravel()
    axis = p.snap_nodes
    assert np.all(f0[axis] == f0[axis[0]])
    planted, other = axis[axis.size // 2], axis[axis.size // 4]
    f0[planted] = -f0[planted]  # a flip back lowers the energy
    state = {"accepted": 0, "deep_flips": 0}
    seen = []

    def fresh(g0, g1, g2, af, gw=None, beta=None):
        if af is not None:
            ref = descent.stiffness_products(p, g0, g1, g2)
            seen.append(all(np.array_equal(a, b) for a, b in zip(af, ref)))
        if gw is not None:
            ref = grad_w_tan_arrays(g0, g1, g2)
            seen.append(all(np.array_equal(a, b) for a, b in zip(gw, ref)))
        if beta is not None:
            seen.append(np.array_equal(beta, beta_arrays(g0, g1, g2)))

    energy, force, semi_implicit = descent.energy, descent._force, descent._semi_implicit
    flip_sweep, grad_w = descent.flip_sweep, descent.grad_w_tan_arrays

    def checked_energy(p, g0, g1, g2, af=None, beta=None):
        fresh(g0, g1, g2, af, beta=beta)
        return energy(p, g0, g1, g2, af, beta)

    def checked_grad_w(g0, g1, g2, beta=None):
        fresh(g0, g1, g2, None, beta=beta)
        return grad_w(g0, g1, g2, beta)

    def checked_force(p, g0, g1, g2, af, gw):
        fresh(g0, g1, g2, af, gw)
        return force(p, g0, g1, g2, af, gw)

    def rising_step(p, fields, force, tau):
        # Until the deep-backtracking flip, every candidate flips another
        # axis node, which raises the energy: each rung is rejected.  The
        # increment reverses that node for every alpha above 2**-21.
        if state["deep_flips"]:
            return semi_implicit(p, fields, force, tau)
        delta = [np.zeros_like(f) for f in fields]
        delta[0][other] = -(2.0**21) * fields[0][other]
        return delta

    def counted_flip_sweep(*args, **kwargs):
        out = flip_sweep(*args, **kwargs)
        if out[1] and not state["accepted"]:
            state["deep_flips"] += out[1]
        return out

    def on_accept(it, e):
        state["accepted"] += 1

    monkeypatch.setattr(descent, "energy", checked_energy)
    monkeypatch.setattr(descent, "_force", checked_force)
    monkeypatch.setattr(descent, "_semi_implicit", rising_step)
    monkeypatch.setattr(descent, "flip_sweep", counted_flip_sweep)
    monkeypatch.setattr(descent, "grad_w_tan_arrays", checked_grad_w)
    out, _, _ = descent.descend(p, (f0, f1, f2), descent.SolveOptions(max_iters=40),
                                on_accept=on_accept)
    # The planted node was flipped back before any step was accepted, that
    # is, by the flip sweep of the deep-backtracking branch.
    assert state["deep_flips"] > 0 and state["accepted"] > 0
    assert out[0][planted] == fld.f0.ravel()[planted]
    assert seen and all(seen)


def real_meridian_case(lam=1.0):
    """A meridian state off the seed with Im f1 = Im f2 = 0, in real arrays."""
    prob, fld = meridian_split_seed(lam)
    rng = np.random.default_rng(7)
    f = [fld.f0.ravel().copy(), fld.f1.ravel().real.copy(), fld.f2.ravel().real.copy()]
    for c in range(3):
        f[c][prob.free[c]] += 0.1 * rng.standard_normal(prob.free[c].size)
    return prob, prob.project(*renormalize_arrays(*f))


def rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / max(np.max(np.abs(b)), 1e-300))


def test_real_and_complex_arrays_give_the_same_step():
    p, real = real_meridian_case()
    held = (real[0], real[1].astype(complex), real[2].astype(complex))
    assert real[1].dtype == float and np.any(real[1] != 0.0)
    out = {}
    for name, f in (("real", real), ("complex", held)):
        af = descent.stiffness_products(p, *f)
        gw = grad_w_tan_arrays(*f)
        force = descent._force(p, *f, af, gw)
        out[name] = {
            "energy": [descent.energy(p, *f)],
            "grad_w": gw,
            "force": force,
            "step": descent._semi_implicit(p, f, force, 0.2),
            "gradient": descent.riemannian_gradient(p, *f),
        }
    for key, got in out["real"].items():
        for a, b in zip(got, out["complex"][key]):
            assert np.isrealobj(a), key
            assert rel_err(a, b) <= 1e-14, key


def test_descend_keeps_the_dtype_of_its_fields(monkeypatch):
    for case, real_path in ((real_meridian_case, True), (meridian_case, False)):
        p, fields = case()
        project = p.project
        kinds = set()

        def recording(v0, v1, v2):
            kinds.add((v1.dtype, v2.dtype))
            return project(v0, v1, v2)

        p.project = recording
        out, _, _ = descent.descend(p, fields, descent.SolveOptions(max_iters=20))
        want = np.dtype(float) if real_path else np.dtype(complex)
        assert kinds == {(want, want)}
        # Either way f1 and f2 come back complex, and a complex field keeps
        # its imaginary part.
        assert out[0].dtype == float and out[1].dtype == out[2].dtype == complex
        assert np.any(out[1].imag != 0.0) != real_path


@functools.lru_cache(maxsize=None)
def small_problem(kind):
    if kind == "radial":
        return radial_case(lam=1.0, n=33)[0]
    geom = m3.build_geometry(2.0, 0.6, 0.2, target_h=0.15)
    return m3._problem_for(m3.seed_field(geom, 1.0, "split-seed"), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["radial", "meridian"]),
    lam=st.floats(0.0, 120.0),
    alpha=st.floats(0.0, 2.0 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_energy_is_invariant_under_the_circle_action(kind, lam, alpha, seed):
    p = dataclasses.replace(small_problem(kind), lam=lam)
    n = p.mass.size
    rng = np.random.default_rng(seed)
    f = renormalize_arrays(
        rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
    )
    turned = (f[0], np.exp(1j * alpha) * f[1], np.exp(2j * alpha) * f[2])
    e = descent.energy(p, *f)
    assert abs(descent.energy(p, *turned) - e) <= 1e-12 * abs(e)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([33, 65]),
    lam=st.floats(0.0, 120.0),
    noise=st.floats(0.01, 0.3),
    seed=st.integers(0, 2**32 - 1),
    stepper=st.sampled_from(["semi_implicit", "explicit"]),
)
def test_accepted_energies_never_rise(n, lam, noise, seed, stepper):
    grid = uniform_grid(n)
    prof = r2.preset_profile("uS", grid, noise=noise, seed=seed)
    p = r2._problem_for(grid, lam, -1.0)
    fields = (prof.f0, prof.f1, prof.f2)
    # The explicit stepper's upper rungs overshoot, so its history also
    # exercises the rejection of rising candidates.
    step = 0.1 if stepper == "semi_implicit" else 0.5 * grid[1] ** 2
    energies = [descent.energy(p, *fields)]
    opts = descent.SolveOptions(step=step, max_iters=300, stepper=stepper)
    descent.descend(p, fields, opts, on_accept=lambda it, e: energies.append(e))
    assert len(energies) > 1
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-10 + 1e-12 * abs(before)


"""Descent engine tests: the semi-implicit step against a reference.

Groups:
 1. The operators: S + k^2 diag(P) equals each component's stiffness,
    assembled edge by edge, and one product with the block-diagonal
    stiffness applies all three (S a view of its first block).  The
    stacked increment-form step equals a full right-hand-side reference
    step on a radial and a meridian problem, and a per-component reference
    step, with a factor per component, on real and complex fields; the one
    shifted matrix over every free dof has the reference's per-component
    matrices as its diagonal blocks, byte for byte, and nothing outside them.
 2. Discrete stationary states are fixed points of the step.
 3. Carried stiffness products: the energy with precomputed products, and
    one sparse product per candidate step.
 4. The factors: a full descent under either direction rule, backtracking
    included, factors one matrix, in float32 under CG and float64 under the
    ladder, and solves each increment in one call; the float32 increment
    matches the float64 one on real and complex states; factors live on
    the Problem, keyed by precision.  Every solve of a descent is
    SuperLU's transposed solve, which on the symmetric shifted matrix
    equals the plain one to roundoff.
 5. Flip sweeps refresh the carried products and signed biaxiality: after
    an accept under either rule, and in the ladder's deep-backtracking
    branch.
 6. Real fields: the step's pieces agree on real arrays and on the same
    values held in complex ones; a real field descends in real arrays, a
    complex one keeps its imaginary part, and both come back complex.
 7. Properties (hypothesis): the energy is invariant under the circle
    action, and the accepted energies of a descent never rise; nor do those
    of a CG descent from either seed of a small cigar.
 8. Fixed dofs: a descent gives back the initial values on them bit for
    bit, on real and complex radial fields and a real meridian field; the
    two-point nodes are the interior axis nodes in 3D and none in 2D.
 9. The direction rule: an unknown rule is rejected.
10. Bit-identity oracles: the lean helpers (one-pass inner products, in-place
    projections and force, the increment through the free-dof mask, the
    real branches of beta and grad W) equal the formulas they replaced bit
    for bit on a real radial and a real meridian state, and within a fixed
    tolerance on complex ones; descents under either rule take the same
    iterates with the lean helpers as with the replaced ones.
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
from ldglab import tensor_core as tc
from ldglab.descent import components, stack_fields
from ldglab.profiles import uniform_grid
from ldglab.tensor_core import beta_arrays, grad_w_tan_arrays


def radial_case(lam=20.0, n=129):
    grid = uniform_grid(n)
    prof = r2.preset_profile("uS", grid, noise=0.05, seed=3)
    prob = r2._problem_for(grid, lam)
    return prob, (prof.f0, prof.f1, prof.f2)


def radial_free_axis_case():
    """A radial problem whose axis node is free: a free row of zero mass."""
    prob, fields = radial_case()
    n = fields[0].size
    prob = dataclasses.replace(prob, free=(np.arange(n - 1),) * 3)
    assert prob.mass[0] == 0.0
    return prob, fields


def meridian_split_seed(lam=1.0):
    geom = m3.build_geometry(3.0, 0.6, 0.2, target_h=0.1)
    fld = m3.seed_field(geom, lam, "split-seed")
    return m3._problem_for(geom, lam), fld


def split_seed_case():
    prob, fld = meridian_split_seed()
    return prob, (fld.f0.ravel(), fld.f1.ravel(), fld.f2.ravel())


def projected(prob, fields):
    """fields renormalized with their fixed dofs kept, as the descent does
    with a candidate, as a tuple of node arrays."""
    F = stack_fields(*fields)
    out = descent._renormalize(F.copy())
    out.ravel()[prob.fixed_dofs] = F.ravel()[prob.fixed_dofs]
    return tuple(np.array(f) for f in components(out))


def meridian_case(lam=1.0):
    prob, fld = meridian_split_seed(lam)
    rng = np.random.default_rng(5)
    f = [fld.f0.ravel().copy(), fld.f1.ravel().copy(), fld.f2.ravel().copy()]
    for c, scale in enumerate((0.1, 0.1 + 0.1j, 0.1 - 0.05j)):
        f[c][prob.free[c]] += scale * rng.standard_normal(prob.free[c].size)
    return prob, projected(prob, f)


def stiffness(p, c):
    """A_c, the c-th diagonal block of the stacked stiffness, on the full node
    set (`test_shared_laplacian_and_weight_equal_each_components_stiffness`
    checks it against the edgewise references)."""
    n = p.mass.size
    return p.stiff[c * n:(c + 1) * n, c * n:(c + 1) * n]


def reference_matrix(p, c, tau):
    """M (1 + tau lam C) + tau A_c on the free nodes, rebuilt from the full operators."""
    idx = p.free[c]
    shift = p.mass * (1.0 + tau * p.lam * descent.STAB_C)
    return (sp.diags(shift) + tau * stiffness(p, c)).tocsr()[idx, :][:, idx].tocsc()


def reference_step(p, fields, tau):
    """The semi-implicit step with the full right-hand side, before renormalization.

    (M (1 + tau lam C) + tau A_ff) v_f
        = M (1 + tau lam C) f + tau (M sigma f - lam M grad W_tan) - tau A_fb f_b,
    with sigma = (A f) . conj(f) / M the nodal multiplier (0 where M = 0).
    """
    f0, f1, f2 = (np.asarray(f, dtype=complex) for f in fields)
    gws = grad_w_tan_arrays(*fields)
    s = sum(((stiffness(p, c) @ f) * np.conj(f)).real for c, f in enumerate((f0, f1, f2)))
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
        rhs = rhs[idx] - tau * (stiffness(p, c) @ bvec)[idx]
        v = f.copy()
        v[idx] = spla.spsolve(mat, rhs.real) + 1j * spla.spsolve(mat, rhs.imag)
        out.append(v)
    return out[0].real, out[1], out[2]


def increment_step(p, fields, ladder):
    """The ladder's candidate f + alpha delta at rung `ladder`, alpha =
    2**(ladder - LADDER_MAX), before renormalization."""
    F = stack_fields(*fields)
    af = descent.stiffness_products(p, F)
    force = descent._force(p, F, af, descent._grad_w(p, F))
    alpha = 2.0 ** (ladder - descent.LADDER_MAX)
    return components(F + alpha * descent._semi_implicit(p, F, force))


def per_component_step(p, fields, tau):
    """The increment delta component by component, one stiffness product,
    one factor of the component's own shifted matrix and one solve per
    component: the loop the stacked step replaces."""
    f0, f1, f2 = fields
    af = [stiffness(p, c) @ f for c, f in enumerate(fields)]
    s = af[0] * f0 + (af[1] * f1.conj()).real + (af[2] * f2.conj()).real
    s = np.where(p.mass > 0, s, 0.0)
    out = []
    for c, (f, a, g) in enumerate(zip(fields, af, grad_w_tan_arrays(f0, f1, f2))):
        idx = p.free[c]
        rhs = tau * (s * f - a - p.lam * p.mass * g)[idx]
        fac = spla.splu(reference_matrix(p, c, tau), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        delta = np.zeros_like(f)
        if np.iscomplexobj(rhs):
            sol = fac.solve(np.column_stack((rhs.real, rhs.imag)))
            delta[idx] = sol[:, 0] + 1j * sol[:, 1]
        else:
            delta[idx] = fac.solve(rhs)
        out.append(delta)
    return out


def diagonal_blocks(p, mat):
    """The per-component diagonal blocks of a matrix over the free dofs, and
    the number of entries stored outside them."""
    ends = np.cumsum([0] + [f.size for f in p.free])
    blocks = [mat[a:b, a:b] for a, b in zip(ends[:-1], ends[1:])]
    return blocks, mat.nnz - sum(b.nnz for b in blocks)


def rel_diff(a, b):
    num = sum(float(np.sum(np.abs(x - y) ** 2)) for x, y in zip(a, b))
    den = sum(float(np.sum(np.abs(y) ** 2)) for y in b)
    return np.sqrt(num / den)


def edgewise_radial_stiffness(r, k):
    """2 pi (segment stiffness + k^2 trapezoid r / r^2 on the diagonal),
    assembled segment by segment."""
    n = r.size
    a = np.zeros((n, n))
    for i in range(n - 1):
        coef = 0.5 * (r[i] + r[i + 1]) / (r[i + 1] - r[i])
        a[i, i] += coef
        a[i + 1, i + 1] += coef
        a[i, i + 1] -= coef
        a[i + 1, i] -= coef
    for i in range(1, n):
        w = 0.5 * (r[i] - r[i - 1]) + (0.5 * (r[i + 1] - r[i]) if i < n - 1 else 0.0)
        a[i, i] += k * k * w * r[i] / r[i] ** 2
    return 2.0 * np.pi * a


def edgewise_meridian_stiffness(g, k):
    """2 pi (edge Laplacian + k^2 m / r^2 on the diagonal), assembled edge
    by edge: an edge joins two active nodes, one of them interior."""
    act, inter, r = g.active, g.interior, g.r
    n = g.nz * g.nr
    a = np.zeros((n, n))

    def edge(p, q, coef):
        a[p, p] += coef
        a[q, q] += coef
        a[p, q] -= coef
        a[q, p] -= coef

    for i in range(g.nz):
        for j in range(g.nr):
            here = i * g.nr + j
            if j + 1 < g.nr and act[i, j] and act[i, j + 1] and (inter[i, j] or inter[i, j + 1]):
                edge(here, here + 1, g.hz * 0.5 * (r[j] + r[j + 1]) / g.hr)
            if i + 1 < g.nz and act[i, j] and act[i + 1, j] and (inter[i, j] or inter[i + 1, j]):
                edge(here, here + g.nr, g.hr * r[j] / g.hz)
            if j > 0 and inter[i, j]:
                a[here, here] += k * k * g.hr * g.hz * r[j] / r[j] ** 2
    return 2.0 * np.pi * a


@pytest.mark.parametrize("kind", ["radial", "meridian"])
def test_shared_laplacian_and_weight_equal_each_components_stiffness(kind):
    if kind == "radial":
        grid = uniform_grid(33)
        d, p = r2._disc_for(grid), r2._problem_for(grid, 1.0)
        want = [edgewise_radial_stiffness(grid, k) for k in (0, 1, 2)]
    else:
        g = m3.build_geometry(2.0, 0.6, 0.2, target_h=0.15)
        d, p = g.disc, m3._problem_for(g, 1.0)
        want = [edgewise_meridian_stiffness(g, k) for k in (0, 1, 2)]
    for c, ref in enumerate(want):
        # S and P of the front end's discretization, and the Problem's block.
        for got in (d.lap + descent.K2[c] * sp.diags(d.pen), stiffness(p, c)):
            assert np.max(np.abs(got.toarray() - ref)) <= 1e-15 * np.max(np.abs(ref)), c
    # The k^2/r^2 weight vanishes on the axis, where the mass is the axis
    # column's lumped share (3D) or zero (2D).
    assert np.all(d.pen[d.mass == 0.0] == 0.0)


@pytest.mark.parametrize("case", [radial_case, meridian_case])
def test_one_product_with_the_stacked_stiffness_applies_each_component(case):
    p, fields = case()
    F = stack_fields(*fields)
    got = descent.stiffness_products(p, F)
    for c in range(3):
        assert np.array_equal(got[c], stiffness(p, c).tocsr() @ F[c])
    # S is a view of the stacked matrix's first block, not a copy.
    for attr in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(p.lap, attr), getattr(p.stiff, attr))


@pytest.mark.parametrize("case", [radial_case, radial_free_axis_case, meridian_case])
@pytest.mark.parametrize("ladder", [-3, 0, 6])
def test_increment_step_matches_full_rhs_reference(case, ladder):
    p, fields = case()
    assert np.any(fields[1].imag != 0.0)  # the 2-column solve is exercised
    got = increment_step(p, fields, ladder)
    alpha = 2.0 ** (ladder - descent.LADDER_MAX)
    want = [f + alpha * (v - f) for f, v in zip(fields, reference_step(p, fields, descent.TAU0))]
    assert got[0].dtype == float
    assert rel_diff(got, want) < 1e-12
    # The step moves the state: the comparison is not between two copies of f.
    assert rel_diff(fields, want) > 1e-4


@pytest.mark.parametrize("case", ["real", "complex"])
def test_stacked_step_matches_the_per_component_step(case):
    p, fields = real_meridian_case() if case == "real" else meridian_case()
    F = stack_fields(*fields)
    assert F.dtype == (float if case == "real" else complex)
    af = descent.stiffness_products(p, F)
    gw = descent._grad_w(p, F)
    got = descent._semi_implicit(p, F, descent._force(p, F, af, gw))
    want = per_component_step(p, fields, descent.TAU0)
    for c in range(3):
        assert rel_err(got[c], want[c]) <= 1e-14, c
        assert rel_err(af[c], stiffness(p, c) @ fields[c]) <= 1e-14, c
    quad = sum(0.5 * float((f.conj() @ (stiffness(p, c) @ f)).real) for c, f in enumerate(fields))
    pot = float(np.sum(p.mass * descent.potential_w_from_beta(beta_arrays(*fields))))
    assert descent.energy(p, F, af) == pytest.approx(quad + p.lam * pot, rel=1e-14)


@pytest.mark.parametrize("case", [radial_case, radial_free_axis_case, meridian_case])
def test_shifted_matrices_equal_the_reference_byte_for_byte(case):
    p, _ = case()
    for ladder in range(-12, 7):
        tau = 0.1 * 2.0**ladder
        got, off_diagonal = diagonal_blocks(p, p.shifted(tau))
        # The components are uncoupled: nothing is stored between them.
        assert off_diagonal == 0, ladder
        for c in range(3):
            want = reference_matrix(p, c, tau)
            for attr in ("data", "indices", "indptr"):
                a, b = getattr(got[c], attr), getattr(want, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (c, ladder, attr)


def test_a_free_node_without_a_stored_diagonal_is_rejected():
    p, _ = radial_case()
    a = p.lap.tolil()
    k = p.free[1][3]
    a[k, k] = 0.0
    pen = r2._disc_for(uniform_grid(p.mass.size)).pen
    p = dataclasses.replace(p, stiff=descent.stack_stiffness(a.tocsr(), pen))
    with pytest.raises(ValueError, match="diagonal"):
        p.shifted(0.1)


def constant_problem(value, lam, n=65):
    """Radial operators with both ends pinned to one constant unit vector."""
    d = r2._disc_for(uniform_grid(n))
    prob = descent.Problem(stiff=d.stiff, mass=d.mass, free=(d.interior,) * 3, lam=lam)
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
@pytest.mark.parametrize("direction", ["ladder", "cg"])
def test_stationary_state_is_a_fixed_point(value, lam, direction):
    p, fields = constant_problem(value, lam)
    F = stack_fields(*fields)
    assert descent.gradient_norm(p, F) < 1e-12
    if lam == 0.0:
        assert np.max(np.abs(descent.stiffness_products(p, F)[1])) > 1.0
    for ladder in (0, descent.LADDER_MAX):
        step = increment_step(p, fields, ladder)
        assert rel_diff(projected(p, step), fields) < 1e-13
    out, _, converged = descent.descend(p, fields, descent.SolveOptions(max_iters=30),
                                        direction=direction)
    assert converged
    assert rel_diff(out, fields) < 1e-13


@pytest.mark.parametrize("case", [radial_case, meridian_case])
def test_energy_with_carried_products(case):
    p, fields = case()
    F = stack_fields(*fields)
    af = descent.stiffness_products(p, F)
    assert descent.energy(p, F, af) == descent.energy(p, F)
    assert np.array_equal(descent.riemannian_gradient(p, F, af), descent.riemannian_gradient(p, F))


def freshness_checks(p, seen):
    """A check that appends whether the carried products af, the potential
    gradient gw and the signed biaxiality beta are those of F."""

    def fresh(F, af=None, gw=None, beta=None):
        if af is not None:
            seen.append(np.array_equal(af, descent.stiffness_products(p, F)))
        if gw is not None:
            seen.append(np.array_equal(gw, np.stack(grad_w_tan_arrays(*components(F)))))
        if beta is not None:
            seen.append(np.array_equal(beta, beta_arrays(*components(F))))

    return fresh


@pytest.mark.parametrize("direction", ["ladder", "cg"])
def test_carried_products_stay_fresh_through_flips(monkeypatch, direction):
    # The split seed flips two axis nodes within its first iterations.
    p, fld = meridian_split_seed()
    flips = []
    seen = []
    carried = []
    fresh = freshness_checks(p, seen)
    energy, gradient_norm, flip_sweep = descent.energy, descent.gradient_norm, descent.flip_sweep
    grad_w = descent.grad_w_tan_arrays

    def checked_energy(p, F, af=None, beta=None):
        fresh(F, af, beta=beta)
        return energy(p, F, af, beta)

    def checked_grad_w(f0, f1, f2, beta=None):
        if beta is not None:
            seen.append(np.array_equal(beta, beta_arrays(f0, f1, f2)))
        carried.append(beta is not None)
        return grad_w(f0, f1, f2, beta)

    def checked_gradient_norm(p, F, af=None, gw=None):
        fresh(F, af, gw)
        return gradient_norm(p, F, af, gw)

    def counted_flip_sweep(*args, **kwargs):
        out = flip_sweep(*args, **kwargs)
        flips.append(out[1])
        return out

    monkeypatch.setattr(descent, "energy", checked_energy)
    monkeypatch.setattr(descent, "gradient_norm", checked_gradient_norm)
    monkeypatch.setattr(descent, "flip_sweep", counted_flip_sweep)
    monkeypatch.setattr(descent, "grad_w_tan_arrays", checked_grad_w)
    fields = (fld.f0.ravel(), fld.f1.ravel(), fld.f2.ravel())
    _, _, converged = descent.descend(p, fields, descent.SolveOptions(max_iters=3000),
                                      direction=direction)
    assert converged and sum(flips) > 0
    assert seen and all(seen)
    # beta is carried into grad W_tan, and recomputed after each flip.
    assert any(carried) and not all(carried)


class CountingStiffness:
    """A sparse matrix that counts the products taken with it."""

    def __init__(self, mat):
        self.mat = mat
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self.mat @ x

    def __getattr__(self, attr):
        return getattr(self.mat, attr)


def test_one_sparse_product_per_candidate(monkeypatch):
    p, fields = radial_case(lam=5.0)
    counted = CountingStiffness(p.stiff)
    p = dataclasses.replace(p, stiff=counted)
    candidates = []
    energy = descent.energy

    def counting_energy(*args, **kwargs):
        candidates.append(1)
        return energy(*args, **kwargs)

    monkeypatch.setattr(descent, "energy", counting_energy)
    _, iters, _ = descent.descend(p, fields, descent.SolveOptions(max_iters=120),
                                  direction="ladder")
    # The initial state plus one candidate per iteration; no flip sweeps here.
    assert len(candidates) == iters + 1
    assert counted.products == iters + 1


@pytest.mark.parametrize("direction", ["ladder", "cg"])
def test_a_descent_factors_one_matrix(monkeypatch, direction):
    p, fields = meridian_case()
    factored = []
    splu = spla.splu

    def counting_splu(mat, *args, **kwargs):
        factored.append((mat.shape[0], mat.dtype))
        return splu(mat, *args, **kwargs)

    solve_sizes = []
    solve = descent._solve

    def recording_solve(fac, rhs, dtype):
        solve_sizes.append(rhs.size)
        return solve(fac, rhs, dtype)

    energy = descent.energy
    evaluations = []

    def every_seventh_rises(*args, **kwargs):
        # These steps are all accepted as they are: raise every seventh
        # energy so that the descent also backtracks.
        evaluations.append(1)
        return energy(*args, **kwargs) + (1.0 if len(evaluations) % 7 == 0 else 0.0)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(descent, "_solve", recording_solve)
    monkeypatch.setattr(descent, "energy", every_seventh_rises)
    accepted = []
    _, iters, _ = descent.descend(p, fields, descent.SolveOptions(max_iters=200),
                                  on_accept=lambda it, e: accepted.append(it),
                                  direction=direction)
    # Many accepts, so the ladder climbs or the CG step grows, and many
    # rejections, so they fall, yet one factorization, of the one matrix
    # over every free dof of the three components: in float32 for CG, whose
    # factor only preconditions, and in float64 for the ladder.
    precision = np.dtype(np.float32 if direction == "cg" else np.float64)
    assert len(set(accepted)) > 16 and len(evaluations) - len(accepted) > 16
    assert factored == [(p.free_dofs.size, precision)]
    assert p.free_dofs.size == sum(f.size for f in p.free)
    assert list(p.factors) == [precision]
    # One solve per increment, over every free dof at once.
    assert solve_sizes and set(solve_sizes) == {p.free_dofs.size}
    assert len(solve_sizes) <= iters


@pytest.mark.parametrize("case", [split_seed_case, meridian_case])
def test_the_float32_increment_matches_the_float64_one(case):
    p, fields = case()
    F = stack_fields(*fields)
    force = descent._force(p, F, descent.stiffness_products(p, F), descent._grad_w(p, F))
    want = descent._semi_implicit(p, F, force)
    got = descent._semi_implicit(p, F, force, np.float32)
    assert got.dtype == want.dtype == F.dtype
    if F.dtype == complex:
        assert np.any(got.imag != 0.0)  # the 2-column solve is exercised
    assert 0.0 < rel_diff(got, want) < 1e-6
    assert not got.ravel()[p.fixed_dofs].any()
    # Two factors of the one matrix, one per precision.
    assert sorted(p.factors, key=str) == [np.dtype(np.float32), np.dtype(np.float64)]
    # The float32 factor is still exact at a zero force: r = 0 gives z = 0.
    assert not descent._semi_implicit(p, F, np.zeros_like(force), np.float32).any()


def plain_solve(fac, rhs, dtype):
    """`descent._solve` with SuperLU's untransposed sweeps."""
    if rhs.dtype.kind == "c" and np.any(rhs.imag):
        sol = fac.solve(np.column_stack((rhs.real, rhs.imag)).astype(dtype))
        return sol[:, 0] + 1j * sol[:, 1]
    return fac.solve(rhs.real.astype(dtype))


@pytest.mark.parametrize("case, dtype, tol", [
    (radial_case, np.float64, 1e-12),
    (meridian_case, np.float64, 1e-12),
    (split_seed_case, np.float32, 1e-5),
    (meridian_case, np.float32, 1e-5),
])
def test_the_transposed_solve_is_the_plain_solve(case, dtype, tol):
    p, fields = case()
    F = stack_fields(*fields)
    force = descent._force(p, F, descent.stiffness_products(p, F), descent._grad_w(p, F))
    rhs = descent.TAU0 * force[p.free_mask]
    # The shifted matrix is exactly symmetric, so A^T x = b is A x = b.
    mat = p.shifted(descent.TAU0, dtype)
    assert (mat != mat.T).nnz == 0
    fac = p.factor(dtype)
    got, want = descent._solve(fac, rhs, dtype), plain_solve(fac, rhs, dtype)
    assert got.dtype == want.dtype
    assert np.any(got.imag) == (F.dtype == complex)  # the 2-column solve too
    assert 0.0 <= rel_diff([got], [want]) < tol


class RecordingFactor:
    """A SuperLU factor that records the `trans` and column count of every
    solve."""

    def __init__(self, factor, calls):
        self._factor, self.calls = factor, calls

    def solve(self, rhs, trans="N"):
        self.calls.append((trans, rhs.shape[1:]))
        return self._factor.solve(rhs, trans=trans)


@pytest.mark.parametrize("direction", ["ladder", "cg"])
@pytest.mark.parametrize("case", [split_seed_case, meridian_case])
def test_every_solve_of_a_descent_is_transposed(monkeypatch, case, direction):
    p, fields = case()
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: RecordingFactor(splu(*a, **kw), calls))
    _, iters, _ = descent.descend(p, fields, descent.SolveOptions(max_iters=60),
                                  direction=direction)
    assert 0 < len(calls) <= iters
    assert {trans for trans, _ in calls} == {"T"}
    # Real states solve one column, complex ones two.
    assert {cols for _, cols in calls} == ({(2,)} if case is meridian_case else {()})


def test_deep_backtracking_flip_refreshes_carried_products(monkeypatch):
    p, fld = meridian_split_seed()
    f0, f1, f2 = fld.f0.ravel().copy(), fld.f1.ravel(), fld.f2.ravel()
    axis = p.two_point_nodes
    assert np.all(f0[axis] == f0[axis[0]])
    planted, other = axis[axis.size // 2], axis[axis.size // 4]
    f0[planted] = -f0[planted]  # a flip back lowers the energy
    state = {"accepted": 0, "deep_flips": 0}
    seen = []
    fresh = freshness_checks(p, seen)
    energy, force, semi_implicit = descent.energy, descent._force, descent._semi_implicit
    flip_sweep, grad_w = descent.flip_sweep, descent.grad_w_tan_arrays

    def checked_energy(p, F, af=None, beta=None):
        fresh(F, af, beta=beta)
        return energy(p, F, af, beta)

    def checked_grad_w(g0, g1, g2, beta=None):
        if beta is not None:
            seen.append(np.array_equal(beta, beta_arrays(g0, g1, g2)))
        return grad_w(g0, g1, g2, beta)

    def checked_force(p, F, af, gw):
        fresh(F, af, gw)
        return force(p, F, af, gw)

    def rising_step(p, F, force):
        # Until the deep-backtracking flip, every candidate flips another
        # axis node, which raises the energy: each rung is rejected.  The
        # increment reverses that node for every alpha above 2**-21.
        if state["deep_flips"]:
            return semi_implicit(p, F, force)
        delta = np.zeros_like(F)
        delta[0, other] = -(2.0**21) * F[0, other]
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
                                on_accept=on_accept, direction="ladder")
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
    return prob, projected(prob, f)


def rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / max(np.max(np.abs(b)), 1e-300))


def test_real_and_complex_arrays_give_the_same_step():
    p, real = real_meridian_case()
    assert real[1].dtype == float and np.any(real[1] != 0.0)
    out = {}
    for name, F in (("real", stack_fields(*real)), ("complex", stack_fields(*real).astype(complex))):
        af = descent.stiffness_products(p, F)
        gw = descent._grad_w(p, F)
        force = descent._force(p, F, af, gw)
        out[name] = {
            "energy": [descent.energy(p, F)],
            "grad_w": gw,
            "force": force,
            "step": descent._semi_implicit(p, F, force),
            "gradient": descent.riemannian_gradient(p, F),
        }
    for key, got in out["real"].items():
        for a, b in zip(got, out["complex"][key]):
            assert np.isrealobj(a), key
            assert rel_err(a, b) <= 1e-14, key


@pytest.mark.parametrize("direction", ["ladder", "cg"])
def test_descend_keeps_the_dtype_of_its_fields(direction):
    for case, real_path in ((real_meridian_case, True), (meridian_case, False)):
        p, fields = case()
        renormalize = descent._renormalize
        kinds = set()

        def recording(F):
            kinds.add(F.dtype)
            return renormalize(F)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(descent, "_renormalize", recording)
            out, _, _ = descent.descend(p, fields, descent.SolveOptions(max_iters=20),
                                        direction=direction)
        assert kinds == {np.dtype(float) if real_path else np.dtype(complex)}
        # Either way f1 and f2 come back complex, and a complex field keeps
        # its imaginary part.
        assert out[0].dtype == float and out[1].dtype == out[2].dtype == complex
        assert np.any(out[1].imag != 0.0) != real_path


def radial_real_case():
    """A noise-free radial profile: f1 and f2 real, so the descent is real."""
    grid = uniform_grid(129)
    prof = r2.preset_profile("uS", grid)
    return r2._problem_for(grid, 20.0), (prof.f0, prof.f1, prof.f2)


@pytest.mark.parametrize(
    "case, dtype", [(radial_real_case, float), (radial_case, complex), (split_seed_case, float)]
)
@pytest.mark.parametrize("direction", ["ladder", "cg"])
def test_descend_keeps_the_initial_values_on_the_fixed_dofs(case, dtype, direction):
    p, fields = case()
    F = stack_fields(*fields)
    assert F.dtype == dtype
    # Off the unit sphere, so a renormalized candidate would move them.
    F.ravel()[p.fixed_dofs] *= 1.0 + 1e-10
    out, iters, _ = descent.descend(p, components(F), descent.SolveOptions(max_iters=50),
                                    direction=direction)
    got = np.stack(out).ravel()
    assert iters > 0 and rel_diff(out, components(F)) > 1e-6
    assert np.array_equal(got[p.fixed_dofs], F.ravel()[p.fixed_dofs])


def test_two_point_nodes_are_the_interior_axis_nodes():
    geom = m3.build_geometry(3.0, 0.6, 0.2, target_h=0.1)
    nodes = m3._problem_for(geom, 1.0).two_point_nodes
    assert nodes.size > 0
    assert np.array_equal(nodes, np.flatnonzero(geom.interior[:, 0]) * geom.nr)
    assert radial_case()[0].two_point_nodes.size == 0


@functools.lru_cache(maxsize=None)
def small_problem(kind):
    if kind == "radial":
        return radial_case(lam=1.0, n=33)[0]
    geom = m3.build_geometry(2.0, 0.6, 0.2, target_h=0.15)
    return m3._problem_for(geom, 1.0)


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
    f = components(descent._renormalize(stack_fields(
        rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
    )))
    turned = (f[0], np.exp(1j * alpha) * f[1], np.exp(2j * alpha) * f[2])
    e = descent.energy(p, stack_fields(*f))
    assert abs(descent.energy(p, stack_fields(*turned)) - e) <= 1e-12 * abs(e)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([33, 65]),
    lam=st.floats(0.0, 120.0),
    noise=st.floats(0.01, 0.3),
    seed=st.integers(0, 2**32 - 1),
    direction=st.sampled_from(["ladder", "cg"]),
)
def test_accepted_energies_never_rise(n, lam, noise, seed, direction):
    grid = uniform_grid(n)
    prof = r2.preset_profile("uS", grid, noise=noise, seed=seed)
    p = r2._problem_for(grid, lam)
    fields = (prof.f0, prof.f1, prof.f2)
    # CG's line search overshoots and backtracks, so its history also
    # exercises the rejection of rising candidates.
    energies = [descent.energy(p, stack_fields(*fields))]
    opts = descent.SolveOptions(max_iters=300)
    descent.descend(p, fields, opts, on_accept=lambda it, e: energies.append(e),
                    direction=direction)
    assert_never_rises(energies)


@pytest.mark.parametrize("seed", ["split-seed", "torus-seed"])
def test_accepted_energies_never_rise_under_cg(seed):
    # Both seeds of a small cigar, as the meridian front end descends them.
    geom = m3.build_geometry(3.0, 0.6, 0.2, target_h=0.1)
    fld = m3.seed_field(geom, 1.0, seed)
    p = m3._problem_for(geom, 1.0)
    fields = (fld.f0.ravel(), fld.f1.ravel(), fld.f2.ravel())
    energies = [descent.energy(p, stack_fields(*fields))]
    _, _, converged = descent.descend(p, fields, descent.SolveOptions(max_iters=2000),
                                      on_accept=lambda it, e: energies.append(e),
                                      direction="cg")
    assert converged
    assert_never_rises(energies)


def assert_never_rises(energies):
    assert len(energies) > 1
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-10 + 1e-12 * abs(before)


def test_unknown_direction_rule_is_rejected():
    p, fields = split_seed_case()
    with pytest.raises(ValueError, match="direction rule"):
        descent.descend(p, fields, descent.SolveOptions(), direction="steepest")



# ---------------------------------------------------------------------------
# Bit-identity oracles: the formulas the lean helpers replaced.
# ---------------------------------------------------------------------------

#: On complex states the helpers may round differently from the reference
#: formulas (a complex product orders its real and imaginary terms its own
#: way); they must agree to this relative error, fixed before measuring.
COMPLEX_TOL = 1e-15


def ref_inner(a, b):
    prod = (a * b.conj()).real if b.dtype.kind == "c" else a * b
    return np.add.reduce(prod, axis=0)


def ref_tangent(F, x):
    return x - ref_inner(x, F) * F


def ref_beta(f0, f1, f2):
    return f0 * (f0**2 + 1.5 * np.abs(f1) ** 2 - 3.0 * np.abs(f2) ** 2) + (
        1.5 * tc.SQRT3) * (f1**2 * np.conj(f2)).real


def ref_grad_w(f0, f1, f2, beta=None):
    if beta is None:
        beta = ref_beta(f0, f1, f2)
    g0 = (np.abs(f2) ** 2 - f0**2 - 0.5 * np.abs(f1) ** 2 + beta * f0) / tc.SQRT6
    g1 = (-tc.SQRT3 * f2 * f1.conj() - f0 * f1 + beta * f1) / tc.SQRT6
    g2 = (-(tc.SQRT3 / 2.0) * f1**2 + 2.0 * f0 * f2 + beta * f2) / tc.SQRT6
    return g0, g1, g2


def ref_force(p, F, af, gw):
    r = np.where(p.mass > 0, ref_inner(af, F), 0.0) * F
    r -= af
    if p.lam != 0.0:
        r -= p.lam_mass * np.array(gw)
    return r


def ref_semi_implicit(p, F, force, dtype=np.float64):
    """The increment gathered and scattered through the index array."""
    delta = np.zeros_like(F)
    rhs = descent.TAU0 * force.ravel()[p.free_dofs]
    delta.ravel()[p.free_dofs] = descent._solve(p.factor(dtype), rhs, dtype)
    return delta


def ref_renormalize(F):
    F /= np.sqrt(ref_inner(F, F))
    return F


def real_radial_case():
    """The noisy radial case's real parts, with a free axis node of zero
    mass: a real state on which the force zeroes an unweighted row."""
    p, (f0, f1, f2) = radial_free_axis_case()
    return p, projected(p, (f0, f1.real, f2.real))


ORACLE_CASES = [(real_radial_case, True), (real_meridian_case, True),
                (radial_free_axis_case, False), (meridian_case, False)]


@pytest.mark.parametrize("case, real", ORACLE_CASES)
def test_lean_helpers_match_the_reference_formulas(case, real):
    p, fields = case()
    F = stack_fields(*fields)
    assert np.isrealobj(F) == real
    assert p.unweighted.size > 0
    rng = np.random.default_rng(13)
    x = rng.standard_normal(F.shape) * (1.0 if real else 1.0 + 0.5j)
    af = descent.stiffness_products(p, F)
    gw, want_gw = descent._grad_w(p, F), ref_grad_w(*components(F))
    force, want_force = descent._force(p, F, af, gw), ref_force(p, F, af, want_gw)
    pairs = {
        "inner": (descent._inner(x, F), ref_inner(x, F)),
        "beta": (descent._beta(p, F), ref_beta(*components(F))),
        "grad_w": (np.array(gw), np.array(want_gw)),
        "tangent": (descent._tangent(F, x.copy()), ref_tangent(F, x)),
        "force": (force, want_force),
        "renormalize": (descent._renormalize(F + 0.1 * x), ref_renormalize(F + 0.1 * x)),
        "gradient": (descent.riemannian_gradient(p, F),
                     ref_tangent(F, af / p.mass_safe + p.lam * np.array(want_gw))),
    }
    for dtype in (np.float64, np.float32):
        pairs[f"increment {np.dtype(dtype)}"] = (
            descent._semi_implicit(p, F, force, dtype),
            ref_semi_implicit(p, F, want_force, dtype))
    pairs["gradient"][1].ravel()[p.fixed_dofs] = 0.0
    for name, (got, want) in pairs.items():
        assert got.dtype == want.dtype, name
        if real:
            assert np.array_equal(got, want), name
        else:
            assert rel_err(got, want) <= COMPLEX_TOL, name


@pytest.mark.parametrize("case, direction", [
    (real_radial_case, "ladder"), (real_radial_case, "cg"), (real_meridian_case, "cg")])
def test_a_lean_descent_takes_the_reference_iterates(monkeypatch, case, direction):
    # The reference helpers return new arrays where the lean ones work in
    # place, so this also checks that the CG update's in-place projections
    # of the last direction leave every iterate as it was.
    p, fields = case()
    opts = descent.SolveOptions(max_iters=60)
    energies = {"lean": [], "reference": []}

    def run(name):
        out = descent.descend(p, fields, opts, lambda it, e: energies[name].append(e),
                              direction=direction)
        return out[0], out[1]

    lean, lean_iters = run("lean")
    for name, ref in (("_inner", ref_inner), ("_tangent", ref_tangent), ("_force", ref_force),
                      ("_semi_implicit", ref_semi_implicit), ("_renormalize", ref_renormalize),
                      ("beta_arrays", ref_beta), ("grad_w_tan_arrays", ref_grad_w)):
        monkeypatch.setattr(descent, name, ref)
    want, want_iters = run("reference")
    assert lean_iters == want_iters
    assert energies["lean"] == energies["reference"] and len(energies["lean"]) > 10
    for got, ref in zip(lean, want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("shape", [(), (257,), (9, 33)])
def test_real_beta_and_grad_w_equal_the_complex_formulas(shape):
    # The complex formulas evaluated on real arrays, scalars included.
    rng = np.random.default_rng(8)
    f = rng.standard_normal((3,) + shape)
    f0, f1, f2 = f / np.sqrt(np.sum(f**2, axis=0))
    beta = tc.beta_arrays(f0, f1, f2)
    assert np.array_equal(beta, ref_beta(f0, f1, f2))
    for carried in (None, beta):
        got = tc.grad_w_tan_arrays(f0, f1, f2, carried)
        for g, want in zip(got, ref_grad_w(f0, f1, f2, carried)):
            assert np.isrealobj(g) and np.shape(g) == shape
            assert np.array_equal(g, want)

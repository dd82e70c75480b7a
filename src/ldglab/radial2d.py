"""Constrained 2D minimization on the unit disc in the equivariant class.

Energy of a profile f = (f0, f1, f2) at coupling lambda:

    E_lam(f) = pi * int_0^1 ( |f'|^2 + (|f1|^2 + 4 |f2|^2)/r^2
                              + 2 lam (1 - beta(f)) / (3 sqrt 6) ) r dr

minimized over profiles pinned to f(1) = (-1/2, 0, sqrt3/2) and to a class
tag at the origin: f0(0) = +1 (class N) or -1 (class S).  The minimizer is
found by projected gradient descent: a semi-implicit (backward-Euler in the
linear part, stabilized in the potential) step followed by nodewise
renormalization, with backtracking on the discrete energy so every accepted
iteration decreases it.

The module also provides the Euler-Lagrange residual, the e*_lam / e_lam
energy curves, bisection for the biaxial-escape threshold lambda_*, and the
second-variation (Hessian) diagnostic.

Sign note: the zero-order k^2/r^2 terms enter the Euler-Lagrange system as
f_k'' + f_k'/r - k^2 f_k / r^2 + |grad u|^2 f_k = lam grad_tan W(f)_k, the
variational equations of the energy above (checked against the closed-form
harmonic solutions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import closed_forms, descent
from .descent import SolveOptions
from .profiles import RadialProfile, profile_from_map, uniform_grid
from .tensor_core import (
    SQRT2,
    SQRT3,
    SQRT6,
    grad_w_tan_arrays,
    hessian_w_homog,
    potential_w_arrays,
    real5_arrays,
)

SIX_PI = 6.0 * np.pi

#: Paper-certified bracket for the biaxial-escape threshold lambda_*.
LAMBDA_STAR_LOWER = 24.0 * SQRT2 / (2.0 * np.pi - 3.0 * SQRT3)
LAMBDA_STAR_UPPER = 3.0**8 * (SQRT6 / 4.0) * np.pi**2

#: Eigenvalues returned by `second_variation_spectrum`, and the largest EL
#: residual of a profile it accepts as stationary.
SPECTRUM_MODES = 4
STATIONARY_RESIDUAL = 0.05


@dataclass
class MinResult2D:
    profile: RadialProfile
    energy: float
    dirichlet: float
    potential: float
    residual: float
    iterations: int
    class_tag: str
    beta_min: float
    beta_max: float
    converged: bool = True
    escaped: bool = False


# ---------------------------------------------------------------------------
# Discretization: quadrature weights, stiffness matrices.
# ---------------------------------------------------------------------------


def _trapezoid_weights(r: np.ndarray) -> np.ndarray:
    w = np.zeros_like(r)
    dr = np.diff(r)
    w[0] = dr[0] / 2.0
    w[-1] = dr[-1] / 2.0
    w[1:-1] = (dr[:-1] + dr[1:]) / 2.0
    return w


class _Discretization:
    """Grid-bound operators shared by energy, descent, and Hessian assembly.

    The Dirichlet term uses the segment form sum_i r_{i+1/2} |df_i|^2 / h_i
    (piecewise-linear elements), whose variational derivative is the
    conservative second-order radial Laplacian; zeroth-order terms use
    trapezoid weights with the 1/r^2 integrand taken as 0 on the axis.
    """

    def __init__(self, r: np.ndarray):
        self.r = r
        self.n = r.size
        wr = _trapezoid_weights(r) * r
        seg_coef = 0.5 * (r[:-1] + r[1:]) / np.diff(r)
        inv_r2 = np.zeros_like(r)
        inv_r2[1:] = 1.0 / r[1:] ** 2
        # Tridiagonal segment stiffness: gradient of pi * sum seg_coef |df|^2.
        main = np.zeros(self.n)
        main[:-1] += seg_coef
        main[1:] += seg_coef
        a_seg = sp.diags([-seg_coef, main, -seg_coef], offsets=(-1, 0, 1))
        # Component k's stiffness is lap + k^2 diag(pen) (`descent.Problem`).
        self.pen = 2.0 * np.pi * wr * inv_r2
        self.stiff = descent.stack_stiffness(2.0 * np.pi * a_seg, self.pen)
        self.lap = descent.first_block(self.stiff)
        self.mass = 2.0 * np.pi * wr  # diagonal, vanishes at r = 0
        self.interior = np.arange(1, self.n - 1)

    def grad_sq(self, f0, f1, f2) -> np.ndarray:
        """|grad u|^2 along the profile (finite limit on the axis)."""
        d0, d1, d2 = (np.gradient(f, self.r, edge_order=2) for f in (f0, f1, f2))
        g = np.abs(d0) ** 2 + np.abs(d1) ** 2 + np.abs(d2) ** 2
        g[1:] += (np.abs(f1[1:]) ** 2 + 4.0 * np.abs(f2[1:]) ** 2) / self.r[1:] ** 2
        g[0] += np.abs(d1[0]) ** 2 + 4.0 * np.abs(d2[0]) ** 2
        return g


_DISC_CACHE: dict[bytes, _Discretization] = {}


def _disc_for(r: np.ndarray) -> _Discretization:
    key = r.tobytes()
    d = _DISC_CACHE.get(key)
    if d is None:
        d = _Discretization(r.copy())
        if len(_DISC_CACHE) > 32:
            _DISC_CACHE.clear()
        _DISC_CACHE[key] = d
    return d


# ---------------------------------------------------------------------------
# Energy and Euler-Lagrange residual.
# ---------------------------------------------------------------------------


def radial_energy(profile: RadialProfile, lam: float):
    """(total, dirichlet, potential): the discrete energy the descent decreases.

    dirichlet is `descent.energy` of the profile's Problem at lambda = 0:
    pi times the segment form sum_i r_{i+1/2} |df_i|^2 / h_i plus the
    trapezoid sum of (|f1|^2 + 4 |f2|^2)/r^2 r (0 on the axis, where the
    r weight vanishes).  potential = sum_i mass_i W(f_i), the trapezoid
    rule for pi * int 2 W r dr, and total = dirichlet + lam * potential.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    profile.validate()
    p = _problem_for(profile.grid, 0.0)
    f0, f1, f2 = profile.f0, profile.f1, profile.f2
    dirichlet = descent.energy(p, descent.stack_fields(f0, f1, f2))
    potential = float(np.sum(p.mass * potential_w_arrays(f0, f1, f2)))
    return dirichlet + lam * potential, dirichlet, potential


def _second_deriv_interior(f, r):
    """3-point second derivative at interior nodes (exact on quadratics)."""
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    return 2.0 * (
        f[:-2] * hp - f[1:-1] * (hm + hp) + f[2:] * hm
    ) / (hm * hp * (hm + hp))


def el_residual_2d(profile: RadialProfile, lam: float) -> float:
    """Max-norm residual of the lambda-modified radial EL system.

    Interior residual only; a profile whose boundary node deviates from
    the anchoring datum is still evaluated, with the mismatch warned.
    """
    profile.validate(boundary=False)
    mismatch = profile.boundary_mismatch()
    if mismatch > 1e-9:
        import warnings

        warnings.warn(
            f"boundary datum mismatch {mismatch:.3g}; residual is interior-only",
            stacklevel=2,
        )
    d = _disc_for(profile.grid)
    r = profile.grid
    f0, f1, f2 = profile.f0.astype(complex), profile.f1, profile.f2
    g2 = d.grad_sq(profile.f0, f1, f2)
    gw0, gw1, gw2 = grad_w_tan_arrays(profile.f0, f1, f2)
    res_max = 0.0
    for k, (f, gw) in enumerate(((f0, gw0), (f1, gw1), (f2, gw2))):
        d1 = np.gradient(f, r, edge_order=2)
        d2v = _second_deriv_interior(f, r)
        res = (
            d2v
            + d1[1:-1] / r[1:-1]
            - (k * k) * f[1:-1] / r[1:-1] ** 2
            + g2[1:-1] * f[1:-1]
            - lam * np.asarray(gw, dtype=complex)[1:-1]
        )
        res_max = max(res_max, float(np.max(np.abs(res))))
    return res_max


# ---------------------------------------------------------------------------
# Canonical initializers.
# ---------------------------------------------------------------------------


def preset_profile(
    name: str, grid: np.ndarray, noise: float = 0.0, seed: int = 0
) -> RadialProfile:
    """Named starting profiles: 'uS', 'ghbar', 'bubbled'.

    'bubbled' is g_hbar with the center value flipped to -E0 across the
    first grid cell.  That one-cell jump costs 2 pi on any grid and carries
    no potential (the mass vanishes at r = 0), so a descent from it settles
    at 6 pi + 2 pi = 8 pi: a grid artifact, not a class-S competitor.
    Optional tangential noise (relative amplitude) is applied away from
    the pinned nodes, then everything is renormalized.
    """
    grid = np.asarray(grid, dtype=float)
    if name == "uS":
        p = profile_from_map(closed_forms.small_solution_us, grid)
    elif name == "ghbar":
        p = profile_from_map(closed_forms.g_hbar, grid)
    elif name == "bubbled":
        p = profile_from_map(closed_forms.g_hbar, grid)
        p.f0[0] = -1.0
    else:
        raise ValueError(f"unknown preset {name!r}")
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        sh = grid.shape
        p.f0 = p.f0 + noise * rng.standard_normal(sh)
        p.f1 = p.f1 + noise * (rng.standard_normal(sh) + 1j * rng.standard_normal(sh))
        p.f2 = p.f2 + noise * (rng.standard_normal(sh) + 1j * rng.standard_normal(sh))
        norms = p.node_norms()
        p.f0 /= norms
        p.f1 /= norms
        p.f2 /= norms
        p.impose_pins()
    return p


# ---------------------------------------------------------------------------
# Projected gradient descent.
# ---------------------------------------------------------------------------


def _problem_for(grid: np.ndarray, lam: float) -> descent.Problem:
    d = _disc_for(grid)
    return descent.Problem(d.stiff, d.mass, (d.interior,) * 3, lam)


def minimize_2d(
    lam: float,
    class_tag: str,
    init: RadialProfile | str,
    opts: SolveOptions | None = None,
    grid: np.ndarray | None = None,
    *,
    cascade: bool = True,
) -> MinResult2D:
    """Projected gradient descent within a class; monotone in energy.

    init may be a RadialProfile or a preset name; a preset requires grid.
    With cascade=True, on a uniform grid of at least 257 nodes the descent
    first runs on up to three successively halved grids, each with a
    quarter of the iteration budget (at least 500): nested iteration that
    builds a starting guess for a cold init.  With cascade=False it runs
    only on the init's own grid, for a warm start (a converged profile at
    a nearby lambda or on a coarser grid) that restriction would spoil.
    The initial profile must carry the requested class pin and the
    boundary datum to within `validate`'s tolerance; the descent starts
    from a copy with both written exactly, and keeps them.  Returns the
    converged state with its energy split, EL residual, and beta range;
    class escape is flagged, not fatal.
    """
    opts = opts or SolveOptions()
    if class_tag not in ("N", "S"):
        raise ValueError("class must be 'N' or 'S'")
    if isinstance(init, str):
        if grid is None:
            raise ValueError("preset init requires a grid")
        init = preset_profile(init, grid)
    init.validate()
    if init.class_tag != class_tag:
        raise ValueError(
            f"init carries class {init.class_tag}, requested {class_tag}"
        )
    init = init.copy()
    init.impose_pins()

    grids = [init.grid]
    if cascade and init.n >= 257:
        n = init.n
        levels = []
        while n >= 257:
            n = (n - 1) // 2 + 1
            levels.append(n)
        for nl in levels[:3]:
            grids.insert(0, np.linspace(0.0, 1.0, nl))
        # Cascade assumes a uniform fine grid; fall back if it is not.
        if np.max(np.abs(np.diff(init.grid) - np.diff(init.grid)[0])) > 1e-12:
            grids = [init.grid]

    prof = init
    total_iters = 0
    for gi, g in enumerate(grids):
        if g.size != prof.n:
            prof = prof.interp_to(g)
        it_budget = opts.max_iters if gi == len(grids) - 1 else max(500, opts.max_iters // 4)
        prof, iters, converged = _descend(prof, lam, opts, it_budget)
        total_iters += iters

    energy, dirichlet, potential = radial_energy(prof, lam)
    beta = prof.beta()
    escaped = bool(np.sign(prof.f0[1]) != np.sign(prof.f0[0]))
    return MinResult2D(
        profile=prof,
        energy=energy,
        dirichlet=dirichlet,
        potential=potential,
        residual=el_residual_2d(prof, lam),
        iterations=total_iters,
        class_tag=class_tag,
        beta_min=float(np.min(beta)),
        beta_max=float(np.max(beta)),
        converged=converged,
        escaped=escaped,
    )


def _descend(prof: RadialProfile, lam: float, opts: SolveOptions, budget: int):
    opts = replace(opts, max_iters=budget)
    # The ladder, not CG: criterion 4's class-N check needs its slow drift.
    fields, it, converged = descent.descend(
        _problem_for(prof.grid, lam), (prof.f0, prof.f1, prof.f2), opts, direction="ladder")
    return RadialProfile(prof.grid.copy(), *fields), it, converged


# ---------------------------------------------------------------------------
# Energy curves and the escape threshold.
# ---------------------------------------------------------------------------


@dataclass
class CurveRow:
    lam: float
    estar: float
    e: float
    beta_min: float
    beta_max: float
    global_class: str
    valid: bool
    #: (name, message) of each solve that raised: a class-S init ('warm',
    #: 'uS', 'bubbled'), or 'row' for the error that invalidated the row.
    failures: tuple[tuple[str, str], ...] = ()
    #: Whether the winning class-S solve converged, and whether its
    #: Richardson partner on the fine grid did.
    converged: bool = False
    fine_converged: bool = False


def _best_class_s(lam, grid, opts, warm: RadialProfile | None):
    """Lowest-energy class-S solve over warm start and canonical inits.

    The warm start is a converged profile, so it descends on `grid` alone
    (cascade=False); the named presets 'uS' and 'bubbled' run the cascade.
    Also returns the (init name, message) of every init whose solve raised,
    and the name of every init whose solve returned unconverged.
    """
    inits: list[RadialProfile | str] = []
    if warm is not None:
        inits.append(warm.interp_to(grid) if warm.n != grid.size else warm)
    inits += ["uS", "bubbled"]
    best = None
    failures = []
    unconverged = []
    for ini in inits:
        name = ini if isinstance(ini, str) else "warm"
        try:
            res = minimize_2d(lam, "S", ini, opts, grid=grid, cascade=name != "warm")
        except RuntimeError as exc:
            failures.append((name, str(exc)))
            continue
        if not res.converged:
            unconverged.append(name)
        if best is None or res.energy < best.energy:
            best = res
    if best is None:
        raise RuntimeError(f"all class-S solves failed at lambda={lam}: {failures}")
    return best, tuple(failures), tuple(unconverged)


def energy_curve(
    lambdas,
    opts: SolveOptions | None = None,
    n: int = 1025,
) -> list[CurveRow]:
    """e*_lam (class-S minimum) and e_lam = min(6 pi, e*_lam) along a sweep.

    Ascends the sorted lambda values with warm starts, also trying the
    canonical inits at every point and keeping the lowest energy.  Each e*
    is Richardson-extrapolated from grids (n, 2n-1); the fine solve starts
    from the winning n-grid profile and descends on the fine grid alone
    (cascade=False).  Each row records whether both solves converged.
    """
    opts = opts or SolveOptions()
    lambdas = list(lambdas)
    if any(l < 0 for l in lambdas) or sorted(lambdas) != lambdas:
        raise ValueError("lambda values must be sorted and nonnegative")
    grid_c = uniform_grid(n)
    grid_f = uniform_grid(2 * n - 1)
    rows: list[CurveRow] = []
    warm = None
    for lam in lambdas:
        try:
            res, failures, _ = _best_class_s(lam, grid_c, opts, warm)
            warm = res.profile
            res_f = minimize_2d(lam, "S", res.profile.interp_to(grid_f), opts, cascade=False)
            estar = (4.0 * res_f.energy - res.energy) / 3.0
            e = min(SIX_PI, estar)
            if estar <= SIX_PI:
                bmin, bmax, gclass = res.beta_min, res.beta_max, "S"
            else:
                gh = minimize_2d(lam, "N", "ghbar", opts, grid=grid_c)
                bmin, bmax, gclass = gh.beta_min, gh.beta_max, "N"
            rows.append(
                CurveRow(
                    lam, estar, e, bmin, bmax, gclass, True, failures,
                    converged=res.converged, fine_converged=res_f.converged,
                )
            )
        except RuntimeError as exc:
            rows.append(
                CurveRow(
                    lam, math.nan, math.nan, math.nan, math.nan, "?", False,
                    failures=(("row", str(exc)),),
                )
            )
    return rows


class LambdaStar(tuple):
    """(lo, hi, point) of the lambda_* bisection.

    `.failures` holds (lambda, init name, message) for every class-S init
    whose solve raised at one of the bisection's evaluation points, and
    `.unconverged` the (lambda, init name) of every one that returned
    converged=False.
    """

    def __new__(cls, lo: float, hi: float, point: float, failures=(), unconverged=()):
        self = super().__new__(cls, (lo, hi, point))
        self.failures = tuple(failures)
        self.unconverged = tuple(unconverged)
        return self


def estimate_lambda_star(
    tol: float = 0.5,
    opts: SolveOptions | None = None,
    n: int = 1025,
    bracket: tuple[float, float] | None = None,
) -> LambdaStar:
    """Bisection for lambda_*: the unique solution of e*_lam = 6 pi.

    Returns (lo, hi, point_estimate) as a LambdaStar, which also carries
    the failed and the unconverged inits.  The seed bracket defaults to the
    certified interval [24 sqrt2/(2 pi - 3 sqrt3), 3^8 (sqrt6/4) pi^2]; a
    missing sign change there is reported as an error with both endpoint
    energies.  Both bracket ends start without a warm profile; the first
    midpoint warm-starts from the lower end's profile, and every later
    midpoint from the midpoint before it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    opts = opts or SolveOptions()
    grid = uniform_grid(n)
    lo, hi = bracket if bracket is not None else (LAMBDA_STAR_LOWER, LAMBDA_STAR_UPPER)

    failures: list[tuple[float, str, str]] = []
    unconverged: list[tuple[float, str]] = []

    def g(lam, warm):
        res, failed, slow = _best_class_s(lam, grid, opts, warm)
        failures.extend((lam, name, message) for name, message in failed)
        unconverged.extend((lam, name) for name in slow)
        return res.energy - SIX_PI, res.profile

    g_lo, warm = g(lo, None)
    g_hi, _ = g(hi, None)
    if not (g_lo < 0.0 < g_hi):
        raise RuntimeError(
            "no sign change over the seed bracket: "
            f"e*({lo:.4g}) - 6pi = {g_lo:.4g}, e*({hi:.4g}) - 6pi = {g_hi:.4g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid, warm = g(mid, warm)
        if g_mid < 0.0:
            lo = mid
        else:
            hi = mid
    if bracket is None and not (LAMBDA_STAR_LOWER <= lo and hi <= LAMBDA_STAR_UPPER):
        raise RuntimeError(
            f"bisection result [{lo}, {hi}] escaped the certified interval"
        )
    return LambdaStar(lo, hi, 0.5 * (lo + hi), failures, unconverged)


# ---------------------------------------------------------------------------
# Second variation (Hessian) diagnostic.
# ---------------------------------------------------------------------------


def _tangent_frames(f0, f1, f2):
    """Per-node orthonormal bases of the tangent space, shape (n, 5, 4).

    The right singular vectors of each 1x5 row u_i after the first span its
    orthogonal complement.
    """
    _, _, vh = np.linalg.svd(real5_arrays(f0, f1, f2)[:, None, :])
    return np.swapaxes(vh[:, 1:, :], 1, 2)


def _second_variation_operator(profile: RadialProfile, lam: float) -> sp.csr_matrix:
    """The second variation as a 5n x 5n matrix on real-5 node values.

    Unknowns are ordered component-major: real-5 component a at node i is
    index a * n + i.  Tangency and pinning are left to the caller.
    """
    d = _disc_for(profile.grid)
    n = profile.n
    f0, f1, f2 = profile.f0, profile.f1, profile.f2
    # Real-5 component a carries k^2 = 0, 1, 1, 4, 4 on the pen weight.
    diag = np.kron([0.0, 1.0, 1.0, 4.0, 4.0], d.pen) - np.tile(d.mass * d.grad_sq(f0, f1, f2), 5)
    big = sp.block_diag([d.lap] * 5, format="csr") + sp.diags(diag)
    if lam != 0.0:
        comp = np.arange(5)
        h = lam * d.mass[:, None, None] * hessian_w_homog(real5_arrays(f0, f1, f2))
        node = np.arange(n)[:, None, None]
        rows = np.broadcast_to(comp[:, None] * n + node, h.shape).ravel()
        cols = np.broadcast_to(comp[None, :] * n + node, h.shape).ravel()
        big = big + sp.csr_matrix((h.ravel(), (rows, cols)), shape=(5 * n, 5 * n))
    return big


def second_variation_form(profile: RadialProfile, lam: float, phi) -> float:
    """Value of the second-variation quadratic form at an equivariant field.

    phi = (p0, p1, p2) with p0 real and p1, p2 complex node arrays; it is
    tangentially projected along the profile and forced to vanish at the
    pinned nodes before evaluation.
    """
    f0, f1, f2 = profile.f0, profile.f1, profile.f2
    p0 = np.asarray(phi[0], dtype=float)
    p1 = np.asarray(phi[1], dtype=complex)
    p2 = np.asarray(phi[2], dtype=complex)
    dot = p0 * f0 + (p1 * np.conj(f1)).real + (p2 * np.conj(f2)).real
    x = real5_arrays(p0 - dot * f0, p1 - dot * f1, p2 - dot * f2)
    x[[0, -1]] = 0.0
    x = x.T.ravel()
    return float(x @ (_second_variation_operator(profile, lam) @ x))


def second_variation_spectrum(profile: RadialProfile, lam: float):
    """Smallest eigenvalue of the projected Hessian at a converged minimizer.

    Restricts `_second_variation_operator` to nodewise-tangent equivariant
    fields vanishing at r = 0 and r = 1 and solves the generalized
    eigenproblem against the L2(pi r dr) mass; returns (smallest, the
    SPECTRUM_MODES lowest eigenvalues).  Raises if the EL residual exceeds
    STATIONARY_RESIDUAL.
    """
    res = el_residual_2d(profile, lam)
    if res > STATIONARY_RESIDUAL:
        raise ValueError(
            f"profile is not stationary (EL residual {res:.3g} > {STATIONARY_RESIDUAL})"
        )
    d = _disc_for(profile.grid)
    n = profile.n
    big = _second_variation_operator(profile, lam)
    interior = np.arange(1, n - 1)
    frames = _tangent_frames(profile.f0, profile.f1, profile.f2)[interior]
    comp = np.arange(5)
    rows = np.broadcast_to(comp[:, None] * n + interior[:, None, None], frames.shape).ravel()
    cols = 4 * np.arange(interior.size)[:, None, None] + np.arange(4)
    cols = np.broadcast_to(cols, frames.shape).ravel()
    t = sp.csr_matrix((frames.ravel(), (rows, cols)), shape=(5 * n, 4 * interior.size))
    h_t = (t.T @ big @ t).tocsc()
    m_t = sp.diags(np.repeat(d.mass[interior], 4)).tocsc()
    k = min(SPECTRUM_MODES, h_t.shape[0] - 2)
    # A fixed start vector makes the eigenvalues reproducible to the last bit.
    v0 = np.random.default_rng(0).standard_normal(h_t.shape[0])
    vals = spla.eigsh(h_t, k=k, M=m_t, sigma=-2.0, which="LM", v0=v0,
                      return_eigenvectors=False)
    vals = np.sort(vals)
    return float(vals[0]), vals

"""Shared projected-descent engine for the sphere-constrained energies.

Both solvers (radial disc, meridian section) minimize an energy of the form

    E(f) = 1/2 sum_c <f_c, A_c f_c>  +  lam * sum_i mass_i * W(f_i)

over fields f = (f0, f1, f2) that are unit norm at every node, with some
nodes carrying fixed values (boundary data, class pins).  One iteration is
a semi-implicit increment -- the quadratic part backward-Euler, the
potential explicit with a convexity-stabilizing shift, and the
constraint's nodal Lagrange multiplier carried explicitly so that discrete
stationary points are exact fixed points -- followed by nodewise
renormalization.  The increment is solved once per accepted state at one
fixed step tau0 = step * 2**LADDER_MAX; the candidates are f + alpha delta,
renormalized, with alpha = 2**(ladder - LADDER_MAX) <= 1.  A candidate is
accepted only if the energy decreases; otherwise alpha is halved along the
same increment, so every step of a descent uses one LU factor per
component.  delta solves an SPD system with the negative tangential
gradient on the right, so it is a descent direction and a small enough
alpha decreases the energy (Alouges, SIAM J. Numer. Anal. 34, 1997).

The increment is, on the free nodes,

    (M (1 + tau0 lam C) + tau0 A) delta = tau0 (s f - A f - lam M grad W_tan),

with s = (A f) . conj(f) the mass times the nodal multiplier (zero where
the mass is zero).  The shifted matrices are SPD, so SuperLU factors them
in symmetric mode with a minimum-degree ordering of A^T + A; the real and
imaginary parts of a complex right-hand side go through one 2-column
solve.  The products A f of the accepted state are carried forward: each
candidate costs one stiffness product per component, and those products
give both its energy and, once it is accepted, the next multiplier.  The
tangential potential gradient of the accepted state is likewise computed
once and shared by the increment and the gradient-norm check.

The LU factors belong to the Problem, keyed by (component, tau0), so every
descent on one Problem reuses them: the 3D solver runs the seeds of one
cascade level on one shared Problem and drops it before the next level.
A shifted matrix is assembled from the free-node block A_ff of its
component, extracted once per Problem in CSC with sorted indices: its
values are tau0 A_ff.data with the shifted masses added at the cached
diagonal slots, over A_ff's own index arrays.

A plain explicit stepper, delta = -tau0 grad, backtracks along the same
alpha ladder and is kept for cross-checks.

`SolveOptions` is the one solver configuration: `descend` reads all five
fields (step, max_iters, grad_tol, energy_tol, stepper).  The radial and
meridian front ends (the radial one re-exports it as `radial2d.SolveOptions`)
always run their cascade and lower only max_iters on its coarse levels.  A
stepper other than "semi_implicit" or "explicit" raises ValueError when the
options are made.
"""

from __future__ import annotations

import ctypes
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .tensor_core import grad_w_tan_arrays, potential_w_arrays, renormalize_arrays

#: Convexity-stabilization constant (upper bound scale for D^2 W on S^4).
STAB_C = 4.0

#: Top of the step ladder: the increment is solved at tau0 = step *
#: 2**LADDER_MAX and scaled by alpha = 2**(ladder - LADDER_MAX), so a descent
#: starts (ladder 0) at the effective step `step` and never exceeds tau0.
LADDER_MAX = 1

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


def trim_heap() -> None:
    """Hand the free pages of the C heap back to the system (glibc only).

    glibc keeps the pages of a freed LU factor mapped, and small live blocks
    allocated among them decide, by timing, whether the next factor can
    reuse them.  Trimming after a whole Problem is freed makes the peak
    resident size follow the live factors, not the heap layout.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _free_block(a: sp.spmatrix, mass: np.ndarray, idx: np.ndarray):
    """(A_ff, diag, mass_f): the free-node block of a in CSC with sorted
    indices, the slots of its diagonal in A_ff.data, and the free masses."""
    block = a.tocsr()[idx, :][:, idx].tocsc()
    block.sort_indices()
    cols = np.repeat(np.arange(idx.size), np.diff(block.indptr))
    diag = np.flatnonzero(block.indices == cols)
    if diag.size != idx.size:
        raise ValueError("the stiffness stores no diagonal entry at some free node")
    return block, diag, mass[idx]


@dataclass
class Problem:
    """Discrete constrained-minimization problem fed to the engine.

    stiff: per-component stiffness (full node set); 1/2 f^T A f is the
        quadratic energy part including couplings to fixed nodes.
    mass: nodal weights of the L2(volume) pairing (zero on weightless rows).
    free: per-component index arrays of unknowns.
    project: reimposes fixed values after the nodewise renormalization.
    snap_nodes: component-0 nodes whose constraint set is the two-point
        set {+1, -1} (the symmetry axis).  The smooth flow cannot cross
        between the components there, so the engine interleaves a flip
        sweep: any such node is sign-flipped whenever that strictly
        decreases the energy (computed from the local quadratic form),
        keeping the iteration monotone while letting the axis trace move.
    factors: LU factors of the shifted matrices, keyed by (component, tau0)
        and shared by every descent on this Problem: one per component for
        the descents of one step size.  The operators must not change once
        a factor is cached.
    blocks: per component, the free-node block of A_c (`_free_block`),
        built at the first factorization and reused by every later one.
        Like the operators, `free` must not change once a factor is cached.
    """

    stiff: Sequence[sp.spmatrix]
    mass: np.ndarray
    free: Sequence[np.ndarray]
    project: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    lam: float
    snap_nodes: np.ndarray | None = None
    factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def shifted(self, c: int, tau: float) -> sp.csc_matrix:
        """M (1 + tau lam C) + tau A_c on the free nodes, from the cached block."""
        if c not in self.blocks:
            self.blocks[c] = _free_block(self.stiff[c], self.mass, self.free[c])
        block, diag, mass_f = self.blocks[c]
        data = tau * block.data
        data[diag] += mass_f * (1.0 + tau * self.lam * STAB_C)
        return sp.csc_matrix((data, block.indices, block.indptr), shape=block.shape)

    def factor(self, c: int, tau: float):
        """SuperLU factor of the shifted matrix of component c at step tau."""
        key = (c, tau)
        if key not in self.factors:
            self.factors[key] = spla.splu(
                self.shifted(c, tau),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        return self.factors[key]


@dataclass
class SolveOptions:
    """The one solver configuration: every field drives `descend`.

    The 2D and 3D front ends pass it through; their coarse cascade levels
    run on a copy with a smaller max_iters.
    """

    step: float = 0.1
    max_iters: int = 20000
    grad_tol: float = 1e-5
    energy_tol: float = 1e-13
    stepper: str = "semi_implicit"

    def __post_init__(self):
        for name in ("step", "max_iters", "grad_tol", "energy_tol"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Real) or not math.isfinite(val):
                raise ValueError(f"solver option {name} must be a finite number, not {val!r}")
        self.max_iters = int(self.max_iters)
        if self.step <= 0 or self.max_iters <= 0 or self.grad_tol <= 0 or self.energy_tol <= 0:
            raise ValueError("solver options must be positive")
        if self.stepper not in ("semi_implicit", "explicit"):
            raise ValueError(
                f"unknown stepper {self.stepper!r}: expected 'semi_implicit' or 'explicit'"
            )


def stiffness_products(p: Problem, f0, f1, f2):
    """(A0 f0, A1 f1, A2 f2), shared by the energy, multiplier and gradient."""
    return p.stiff[0] @ f0, p.stiff[1] @ f1, p.stiff[2] @ f2


def energy(p: Problem, f0, f1, f2, af=None) -> float:
    """Discrete energy; af optionally carries the stiffness products of f."""
    a0, a1, a2 = af if af is not None else stiffness_products(p, f0, f1, f2)
    quad = 0.5 * float(f0 @ a0)
    quad += 0.5 * float((np.conj(f1) @ a1).real)
    quad += 0.5 * float((np.conj(f2) @ a2).real)
    if p.lam != 0.0:
        quad += p.lam * float(np.sum(p.mass * potential_w_arrays(f0, f1, f2)))
    return quad


def _grad_w(p: Problem, f0, f1, f2):
    """Tangential gradient of W at every node; zeros when lam = 0."""
    return grad_w_tan_arrays(f0, f1, f2) if p.lam != 0.0 else (0.0, 0.0, 0.0)


def riemannian_gradient(p: Problem, f0, f1, f2, af=None, gw=None):
    """Tangentially projected gradient in the mass metric, zero on fixed dofs.

    af and gw optionally carry the stiffness products and the tangential
    potential gradient of f.
    """
    a0, a1, a2 = af if af is not None else stiffness_products(p, f0, f1, f2)
    mass_safe = np.where(p.mass > 0, p.mass, 1.0)
    gw0, gw1, gw2 = gw if gw is not None else _grad_w(p, f0, f1, f2)
    g0 = a0 / mass_safe + p.lam * gw0
    g1 = a1 / mass_safe + p.lam * gw1
    g2 = a2 / mass_safe + p.lam * gw2
    dot = g0 * f0 + (g1 * np.conj(f1)).real + (g2 * np.conj(f2)).real
    g0, g1, g2 = g0 - dot * f0, g1 - dot * f1, g2 - dot * f2
    for c, g in enumerate((g0, g1, g2)):
        m = np.zeros(g.shape, dtype=bool)
        m[p.free[c]] = True
        g[~m] = 0.0
    return g0, g1, g2


def gradient_norm(p: Problem, f0, f1, f2, af=None, gw=None) -> float:
    g0, g1, g2 = riemannian_gradient(p, f0, f1, f2, af, gw)
    total = sum(float(np.sum(p.mass * np.abs(g) ** 2)) for g in (g0, g1, g2))
    return math.sqrt(total / float(np.sum(p.mass)))


def _force(p: Problem, f0, f1, f2, af, gw):
    """Increment right-hand side per unit step: s f - A f - lam M grad W_tan."""
    s = af[0] * f0 + (af[1] * np.conj(f1)).real + (af[2] * np.conj(f2)).real
    s = np.where(p.mass > 0, s, 0.0)
    out = [s * f - a for f, a in zip((f0, f1, f2), af)]
    if p.lam != 0.0:
        out = [r - p.lam * p.mass * g for r, g in zip(out, gw)]
    return out


def _semi_implicit(p: Problem, fields, force, tau):
    """Increment delta at step tau, zero on fixed nodes; force from `_force`."""
    out = []
    for c, (f, r) in enumerate(zip(fields, force)):
        idx = p.free[c]
        fac = p.factor(c, tau)
        rhs = tau * r[idx]
        delta = np.zeros_like(f)
        if np.any(rhs.imag):
            sol = fac.solve(np.column_stack((rhs.real, rhs.imag)))
            delta[idx] = sol[:, 0] + 1j * sol[:, 1]
        else:
            delta[idx] = fac.solve(rhs.real)
        out.append(delta)
    return out


def _explicit(p: Problem, f0, f1, f2, tau, af, gw):
    """Increment -tau grad, grad the projected gradient (`riemannian_gradient`)."""
    return [-tau * g for g in riemannian_gradient(p, f0, f1, f2, af, gw)]


# Potential values at the two axis states (+E0 and -E0).
_W_PLUS = float(potential_w_arrays(1.0, 0.0, 0.0))
_W_MINUS = float(potential_w_arrays(-1.0, 0.0, 0.0))


def flip_sweep(p: Problem, f0, f1, f2):
    """Greedy energy-decreasing sign flips on the two-point-constraint nodes.

    The energy is quadratic in a single node value with everything else
    frozen, so the exact change for s -> -s at node a is
    -2 s * ((A0 f0)_a - A0[a,a] s) + lam * mass_a * (W(-s) - W(s)).
    Flips one node at a time (the most negative), recomputing couplings,
    so every flip strictly decreases the energy; at most 64 flips.
    """
    if p.snap_nodes is None or p.snap_nodes.size == 0:
        return f0, 0
    a0 = p.stiff[0]
    diag = a0.diagonal()
    nodes = p.snap_nodes
    flips = 0
    for _ in range(64):
        coupling = (a0 @ f0)[nodes] - diag[nodes] * f0[nodes]
        d_e = -2.0 * f0[nodes] * coupling
        if p.lam != 0.0:
            d_e = d_e + p.lam * p.mass[nodes] * (
                np.where(f0[nodes] > 0, _W_MINUS, _W_PLUS)
                - np.where(f0[nodes] > 0, _W_PLUS, _W_MINUS)
            )
        k = int(np.argmin(d_e))
        if d_e[k] >= -1e-14:
            break
        f0 = f0.copy() if flips == 0 else f0
        f0[nodes[k]] = -f0[nodes[k]]
        flips += 1
    return f0, flips


def descend(
    p: Problem,
    fields,
    opts: SolveOptions,
    on_accept: Callable[[int, float], None] | None = None,
):
    """Monotone projected descent; returns (fields, iterations, converged)."""
    f0, f1, f2 = fields
    f0 = np.asarray(f0, dtype=float).copy()
    f1 = np.asarray(f1, dtype=complex).copy()
    f2 = np.asarray(f2, dtype=complex).copy()
    af = stiffness_products(p, f0, f1, f2)
    e = energy(p, f0, f1, f2, af)
    tau0 = opts.step * 2.0**LADDER_MAX
    gw = delta = None
    ladder = 0
    grow = 0
    converged = False
    it = 0
    while it < opts.max_iters:
        it += 1
        if delta is None:
            if gw is None:
                gw = _grad_w(p, f0, f1, f2)
            if opts.stepper == "semi_implicit":
                delta = _semi_implicit(p, (f0, f1, f2), _force(p, f0, f1, f2, af, gw), tau0)
            else:
                delta = _explicit(p, f0, f1, f2, tau0, af, gw)
        alpha = 2.0 ** (ladder - LADDER_MAX)
        v0, v1, v2 = renormalize_arrays(*(f + alpha * d for f, d in zip((f0, f1, f2), delta)))
        v0, v1, v2 = p.project(v0, v1, v2)
        av = stiffness_products(p, v0, v1, v2)
        e_new = energy(p, v0, v1, v2, av)
        # The acceptance slack carries an absolute floor: near stationarity
        # the solve/renormalize round-trip has a small roundoff noise floor
        # amplified by the stiff 1/r^2 rows, independent of the step size.
        if e_new > e + 1e-10 + 1e-12 * abs(e):
            grow = 0
            if ladder < -10:
                # Deep in the backtracking: either we are at a stationary
                # point (rejections are pure roundoff) or genuinely stuck.
                f0c, nflips = flip_sweep(p, f0, f1, f2)
                if nflips:
                    f0 = f0c
                    af = (p.stiff[0] @ f0, af[1], af[2])
                    gw = delta = None
                    e = energy(p, f0, f1, f2, af)
                    ladder = 0
                    continue
                if gradient_norm(p, f0, f1, f2, af, gw) < opts.grad_tol:
                    converged = True
                    break
                if alpha * tau0 < 1e-15:
                    raise RuntimeError("descent stalled: step size underflow")
            ladder -= 1
            continue
        decrement = e - e_new
        f0, f1, f2 = v0, v1, v2
        af = av
        gw = delta = None
        e = e_new
        if on_accept is not None:
            on_accept(it, e)
        grow += 1
        if grow >= 8 and ladder < LADDER_MAX:
            ladder += 1
            grow = 0
        if it % 10 == 0 or decrement < opts.energy_tol * max(1.0, abs(e)):
            f0c, nflips = flip_sweep(p, f0, f1, f2)
            if nflips:
                f0 = f0c
                af = (p.stiff[0] @ f0, af[1], af[2])
                e = energy(p, f0, f1, f2, af)
                if on_accept is not None:
                    on_accept(it, e)
                grow = 0
                continue
            gw = _grad_w(p, f0, f1, f2)
            if gradient_norm(p, f0, f1, f2, af, gw) < opts.grad_tol:
                converged = True
                break
    return (f0, f1, f2), it, converged

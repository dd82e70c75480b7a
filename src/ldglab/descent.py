"""Shared projected-descent engine for the sphere-constrained energies.

Both solvers (radial disc, meridian section) minimize an energy of the form

    E(f) = 1/2 sum_c <f_c, A_c f_c>  +  lam * sum_i mass_i * W(f_i)

over fields f = (f0, f1, f2) that are unit norm at every node, with some
nodes carrying fixed values (boundary data, class pins).  One iteration is
a semi-implicit step -- the quadratic part backward-Euler, the potential
explicit with a convexity-stabilizing shift, and the constraint's nodal
Lagrange multiplier carried explicitly so that discrete stationary points
are exact fixed points -- followed by nodewise renormalization.  A step is
accepted only if the energy decreases; otherwise the step size is halved
(the step ladder is powers of two, so LU factorizations are reused).

A plain explicit stepper with the same projection is kept for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .tensor_core import grad_w_tan_arrays, potential_w_arrays, renormalize_arrays

#: Convexity-stabilization constant (upper bound scale for D^2 W on S^4).
STAB_C = 4.0


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
    """

    stiff: Sequence[sp.spmatrix]
    mass: np.ndarray
    free: Sequence[np.ndarray]
    project: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]
    lam: float
    snap_nodes: np.ndarray | None = None


@dataclass
class DescentOptions:
    step: float = 0.1
    max_iters: int = 20000
    grad_tol: float = 1e-5
    energy_tol: float = 1e-13
    stepper: str = "semi_implicit"


def energy(p: Problem, f0, f1, f2) -> float:
    quad = 0.5 * float(f0 @ (p.stiff[0] @ f0))
    quad += 0.5 * float((np.conj(f1) @ (p.stiff[1] @ f1)).real)
    quad += 0.5 * float((np.conj(f2) @ (p.stiff[2] @ f2)).real)
    if p.lam != 0.0:
        quad += p.lam * float(np.sum(p.mass * potential_w_arrays(f0, f1, f2)))
    return quad


def riemannian_gradient(p: Problem, f0, f1, f2):
    """Tangentially projected gradient in the mass metric, zero on fixed dofs."""
    mass_safe = np.where(p.mass > 0, p.mass, 1.0)
    gw0, gw1, gw2 = grad_w_tan_arrays(f0, f1, f2) if p.lam != 0.0 else (0.0, 0.0, 0.0)
    g0 = (p.stiff[0] @ f0) / mass_safe + p.lam * gw0
    g1 = (p.stiff[1] @ f1) / mass_safe + p.lam * gw1
    g2 = (p.stiff[2] @ f2) / mass_safe + p.lam * gw2
    dot = g0 * f0 + (g1 * np.conj(f1)).real + (g2 * np.conj(f2)).real
    g0, g1, g2 = g0 - dot * f0, g1 - dot * f1, g2 - dot * f2
    for c, g in enumerate((g0, g1, g2)):
        m = np.zeros(g.shape, dtype=bool)
        m[p.free[c]] = True
        g[~m] = 0.0
    return g0, g1, g2


def gradient_norm(p: Problem, f0, f1, f2) -> float:
    g0, g1, g2 = riemannian_gradient(p, f0, f1, f2)
    total = sum(float(np.sum(p.mass * np.abs(g) ** 2)) for g in (g0, g1, g2))
    return math.sqrt(total / float(np.sum(p.mass)))


class _Stepper:
    def __init__(self, p: Problem):
        self.p = p
        self._factors: dict[tuple[int, int], object] = {}
        self._tau0 = None

    def _factor(self, c: int, ladder: int, tau: float):
        key = (c, ladder)
        fac = self._factors.get(key)
        if fac is None:
            p = self.p
            idx = p.free[c]
            mat = sp.diags(p.mass * (1.0 + tau * p.lam * STAB_C)) + tau * p.stiff[c]
            mat = mat.tocsr()[idx, :][:, idx].tocsc()
            fac = spla.splu(mat)
            if len(self._factors) > 12:
                self._factors.clear()
            self._factors[key] = fac
        return fac

    def semi_implicit(self, f0, f1, f2, tau, ladder):
        p = self.p
        if p.lam != 0.0:
            gws = grad_w_tan_arrays(f0, f1, f2)
        else:
            gws = (np.zeros_like(f0), np.zeros_like(f1), np.zeros_like(f2))
        # Nodal Lagrange multiplier of the norm constraint.
        s = (p.stiff[0] @ f0) * f0
        s = s + ((p.stiff[1] @ f1) * np.conj(f1)).real
        s = s + ((p.stiff[2] @ f2) * np.conj(f2)).real
        sigma = np.zeros_like(s)
        np.divide(s, p.mass, out=sigma, where=p.mass > 0)
        out = []
        for c, f in enumerate((f0.astype(complex), f1, f2)):
            idx = p.free[c]
            fac = self._factor(c, ladder, tau)
            gw = np.asarray(gws[c], dtype=complex)
            rhs_full = (
                p.mass * (1.0 + tau * p.lam * STAB_C) * f
                - tau * p.lam * p.mass * gw
                + tau * p.mass * sigma * f
            )
            bvec = f.copy()
            bvec[idx] = 0.0
            rhs = rhs_full[idx] - tau * (p.stiff[c] @ bvec)[idx]
            v = f.copy()
            sol = fac.solve(rhs.real)
            if np.max(np.abs(rhs.imag)) > 0.0:
                sol = sol + 1j * fac.solve(rhs.imag)
            v[idx] = sol
            out.append(v)
        return out[0].real, out[1], out[2]

    def explicit(self, f0, f1, f2, tau):
        g0, g1, g2 = riemannian_gradient(self.p, f0, f1, f2)
        return f0 - tau * g0, f1 - tau * g1, f2 - tau * g2


# Potential values at the two axis states (+E0 and -E0).
_W_PLUS = float(potential_w_arrays(1.0, 0.0, 0.0))
_W_MINUS = float(potential_w_arrays(-1.0, 0.0, 0.0))


def flip_sweep(p: Problem, f0, f1, f2, max_flips: int = 64):
    """Greedy energy-decreasing sign flips on the two-point-constraint nodes.

    The energy is quadratic in a single node value with everything else
    frozen, so the exact change for s -> -s at node a is
    -2 s * ((A0 f0)_a - A0[a,a] s) + lam * mass_a * (W(-s) - W(s)).
    Flips one node at a time (the most negative), recomputing couplings,
    so every flip strictly decreases the energy.
    """
    if p.snap_nodes is None or p.snap_nodes.size == 0:
        return f0, 0
    a0 = p.stiff[0]
    diag = a0.diagonal()
    nodes = p.snap_nodes
    flips = 0
    for _ in range(max_flips):
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
    opts: DescentOptions,
    max_iters: int | None = None,
    on_accept: Callable[[int, float], None] | None = None,
):
    """Monotone projected descent; returns (fields, iterations, converged)."""
    f0, f1, f2 = fields
    f0 = np.asarray(f0, dtype=float).copy()
    f1 = np.asarray(f1, dtype=complex).copy()
    f2 = np.asarray(f2, dtype=complex).copy()
    max_iters = max_iters if max_iters is not None else opts.max_iters
    stepper = _Stepper(p)
    e = energy(p, f0, f1, f2)
    ladder = 0
    ladder_max = 6
    grow = 0
    converged = False
    it = 0
    while it < max_iters:
        it += 1
        tau = opts.step * 2.0**ladder
        if opts.stepper == "semi_implicit":
            v0, v1, v2 = stepper.semi_implicit(f0, f1, f2, tau, ladder)
        else:
            v0, v1, v2 = stepper.explicit(f0, f1, f2, tau)
        v0, v1, v2 = renormalize_arrays(v0, v1, v2)
        v0, v1, v2 = p.project(v0, v1, v2)
        e_new = energy(p, v0, v1, v2)
        # The acceptance slack carries an absolute floor: near stationarity
        # the solve/renormalize round-trip has a small roundoff noise floor
        # amplified by the stiff 1/r^2 rows, independent of the step size.
        if e_new > e + 1e-10 + 1e-12 * abs(e):
            ladder -= 1
            grow = 0
            if tau < opts.step * 2.0**-10:
                # Deep in the backtracking: either we are at a stationary
                # point (rejections are pure roundoff) or genuinely stuck.
                f0c, nflips = flip_sweep(p, f0, f1, f2)
                if nflips:
                    f0 = f0c
                    e = energy(p, f0, f1, f2)
                    ladder = 0
                    continue
                if gradient_norm(p, f0, f1, f2) < opts.grad_tol:
                    converged = True
                    break
                if tau < 1e-15:
                    raise RuntimeError("descent stalled: step size underflow")
            continue
        decrement = e - e_new
        f0, f1, f2 = v0, v1, v2
        e = e_new
        if on_accept is not None:
            on_accept(it, e)
        grow += 1
        if grow >= 8 and ladder < ladder_max:
            ladder += 1
            grow = 0
        if it % 10 == 0 or decrement < opts.energy_tol * max(1.0, abs(e)):
            f0c, nflips = flip_sweep(p, f0, f1, f2)
            if nflips:
                f0 = f0c
                e = energy(p, f0, f1, f2)
                if on_accept is not None:
                    on_accept(it, e)
                grow = 0
                continue
            if gradient_norm(p, f0, f1, f2) < opts.grad_tol:
                converged = True
                break
    return (f0, f1, f2), it, converged

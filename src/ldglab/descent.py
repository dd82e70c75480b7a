"""Shared projected-descent engine for the sphere-constrained energies.

Both solvers (radial disc, meridian section) minimize an energy of the form

    E(f) = 1/2 sum_k <f_k, A_k f_k>  +  lam * sum_i mass_i * W(f_i),
    A_k = S + k^2 diag(P),

over fields f = (f0, f1, f2) that are unit norm at every node, with the
dofs outside the free sets keeping their initial values (boundary data,
class pins, f1 = f2 = 0 on the symmetry axis).  S is the one
Laplacian the three components share and P the nodal weight of the
k^2/r^2 term.  The state is one (3, n) array F whose rows are f0, f1, f2,
so the products A F are one sparse product, with diag(A_0, A_1, A_2)
applied to the raveled F, and every nodewise quantity (the multiplier, the
force, the renormalization, the projected gradient) is one whole-array
operation.

One iteration is a semi-implicit increment -- the quadratic part
backward-Euler, the potential explicit with a convexity-stabilizing shift,
and the constraint's nodal Lagrange multiplier carried explicitly so that
discrete stationary points are exact fixed points -- followed by nodewise
renormalization.  The increment is solved once per accepted state at one
fixed step tau0 = TAU0 = 0.2, so every step of a descent uses one LU
factor.  delta solves an SPD system with the negative tangential gradient
on the right, so it is a descent direction and a small enough step along
it decreases the energy (Alouges, SIAM J. Numer. Anal. 34, 1997).
`descend` takes one of two direction rules:

- "ladder" (the radial front end): the candidates are f + alpha delta,
  renormalized, with alpha = 2**(ladder - LADDER_MAX) <= 1.  A candidate is
  accepted only if the energy decreases; otherwise alpha is halved along the
  same increment, and eight accepts in a row double it.
- "cg" (the meridian front end): preconditioned nonlinear conjugate
  gradients in the fixed tau0 metric (Antoine, Levitt & Tang, J. Comput.
  Phys. 343, 2017).  With r the force (zero on the fixed dofs), z the
  tangent projection of delta and T the nodewise tangent projection at the
  new state, gamma = max(0, <r, z - T z_old> / <r_old, z_old>) (PR+) and the
  direction is d = z + gamma T d_old.  The candidates are f + a d,
  renormalized, accepted on an Armijo decrease; a starts at 1.5 times the
  last accepted a (at most 4, first 0.5), the first rejection tries the
  minimum of a quadratic fit and later ones halve a.  The search restarts
  along z when <r, d> <= 0, after a flip, and when it fails along d.

The radial front end keeps the ladder because its class-N solve at lam = 0
relies on the ladder's slow drift along a nearly flat family (criterion 4):
a faster descent collapses it to a one-cell jump.  Both rules share the
increment, the acceptance slack, the flip sweep and the convergence test;
once the 2D test no longer depends on the descent's speed, the ladder can
go.  They differ in the precision of the LU factor.  The ladder steps along
the increment itself, so its factor is float64.  In CG the factor is only a
preconditioner: any SPD matrix serves, the energies, forces and the
convergence test stay float64, and r = 0 still gives z = 0.  So CG factors
and solves in float32 and promotes the increment to float64 before its
tangent projection; the triangular solves then stream 4-byte values instead
of 8-byte ones, a third fewer bytes with the int32 indices, and they are
bound by memory bandwidth on the 3D meshes.  Under either rule every solve
is SuperLU's transposed one (Li, ACM TOMS 31, 2005).  The matrix is
symmetric and factored with symmetric pivoting, so A^T x = b is A x = b,
and the increment moves only at roundoff (about 1e-7 relative in float32,
below 1e-15 in float64).  The transposed sweeps gather one dot product
down each stored column instead of scattering updates into the solution,
which is faster on these lattice factors of small supernodes
(`Problem.factor`).

The increment is, on the free nodes of each component,

    (M (1 + tau0 lam C) + tau0 A_k) delta_k = tau0 (s f_k - A_k f_k - lam M grad W_tan,k),

with s = sum_k Re((A_k f_k) conj(f_k)) the mass times the nodal multiplier
(zero where the mass is zero).  The three components' systems are solved
as one: the matrix over every free dof of the raveled F is the free block
of M (1 + tau0 lam C) + tau0 diag(A_0, A_1, A_2), with nothing between the
components.  It is SPD, so SuperLU factors it in symmetric mode with a
minimum-degree ordering of A^T + A; the real and imaginary parts of a
complex right-hand side go through one 2-column solve.  Fields whose f1
and f2 enter with no nonzero imaginary part are iterated in a real array:
the operators, the data and grad W_tan are real, so the real subspace is
invariant under the step.  The products A F of the accepted state are
carried forward: each candidate costs one sparse product, which gives both
its energy and, once it is accepted, the next multiplier.  The signed
biaxiality beta is computed once per state, for the candidate's energy and
then for its grad W_tan; a flip drops it, since beta depends on f0.  The
tangential potential gradient of the accepted state is likewise computed
once and shared by the increment and the gradient-norm check.

A direction's array work makes as few passes over the state, and as few
(3, n) temporaries, as its arithmetic allows, and every iterate is bit for
bit what the plain formulas give (the tests keep those as oracles).  The
nodal inner product of real states multiplies and sums row by row in the
order np.add.reduce(a * b, axis=0) sums in, with no (3, n) product; the
tangent projection, the force's potential term and the PR+ update work in
place, row by row, on arrays the step no longer needs; the force zeroes the
weightless nodes by index; the increment is gathered and scattered through
a boolean free-dof mask; and beta and grad W_tan take a real branch (f f for
|f|^2, no conj) on real states, grad W_tan staying three rows rather than a
stacked copy.  Interleaved medians on the cigar's fine mesh (n = 43 747,
real state, one thread of a shared 2-core x86-64 host), plain -> lean: inner
product 331 -> 227 us, force 1.27 -> 0.88 ms, grad W_tan 1.08 -> 0.81 ms,
beta 384 -> 251 us, tangent projection 851 -> 688 us, the increment without
its solve 1.18 -> 0.73 ms, a candidate 3.44 -> 3.12 ms.

The LU factors belong to the Problem, keyed by precision, so every descent
on one Problem reuses them, and a factor lives as long as the sweep point
or cascade level that shares it.  The 3D solver runs the seeds of one
cascade level on one shared Problem and drops it, with the rest of that
level, before the next level.  The 2D front end runs every descent at one
(grid, lam) of a sweep point on one shared Problem, dropped when the point
ends; a 2D solve outside a sweep point holds no Problem once it returns.

`SolveOptions` is the one solver configuration: `descend` reads both of
its fields (max_iters, grad_tol).  The step TAU0 and the decrement
tolerance ENERGY_TOL are constants of the engine.  The radial and meridian
front ends (the radial one re-exports it as `radial2d.SolveOptions`) always
run their cascade and lower only max_iters on its coarse levels.  A
max_iters that is not a whole number raises ValueError when the options are
made.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .tensor_core import (
    beta_arrays,
    grad_w_tan_arrays,
    potential_w_from_beta,
)

#: Convexity-stabilization constant (upper bound scale for D^2 W on S^4).
STAB_C = 4.0

#: Top of the step ladder: the increment is solved at TAU0 and scaled by
#: alpha = 2**(ladder - LADDER_MAX), so a descent starts (ladder 0) at the
#: effective step TAU0 / 2**LADDER_MAX = 0.1 and never exceeds TAU0.
LADDER_MAX = 1

#: The one step tau0 of the increment, under either direction rule.
TAU0 = 0.2

#: Relative energy decrement below which an accept triggers the flip sweep
#: and the convergence test; energies that agree to it tie.
ENERGY_TOL = 1e-13

#: Backtracking along one direction ends once a rejected step (alpha on the
#: ladder, a in the CG line search) is at most this.
MIN_STEP = 2.0**-12

#: k^2 of the components f0, f1, f2 (their phases are 1, e^{i phi}, e^{2i phi}).
K2 = np.array([0.0, 1.0, 4.0])

def stack_fields(f0, f1, f2) -> np.ndarray:
    """The (3, n) state with rows f0, f1, f2 (raveled): real when f1 and f2
    have no nonzero imaginary part, complex otherwise.  Always a new array."""
    f1, f2 = np.ravel(f1), np.ravel(f2)
    real = not (np.any(f1.imag) or np.any(f2.imag))
    out = np.empty((3, f1.size), dtype=float if real else complex)
    out[0] = np.ravel(np.asarray(f0, dtype=float))
    out[1], out[2] = (f.real if real else f for f in (f1, f2))
    return out


def stack_stiffness(lap: sp.spmatrix, pen: np.ndarray) -> sp.csr_matrix:
    """diag(A_0, A_1, A_2), A_k = lap + k^2 diag(pen), in CSR: one product
    with it gives A F for a raveled (3, n) state F.

    Its first block is lap itself (k = 0); `first_block` returns it as a
    view.  On the pancake mesh (n = 31 265, one thread of a 2-core x86-64
    host) the product takes 0.63 ms, against 0.84 ms for three stiffness
    products and 1.4 ms for lap @ F.T + k^2 P F, which copies the
    transposed state and runs a 3-vector kernel.
    """
    blocks = [(lap + k2 * sp.diags(pen)).tocsr() for k2 in K2]
    n = lap.shape[0]
    # Joined from the blocks' own arrays: sp.block_diag goes through COO and
    # raises the peak memory of a 3D solve.
    starts = np.cumsum([0] + [b.nnz for b in blocks])
    data = np.concatenate([b.data for b in blocks])
    indices = np.concatenate([b.indices + c * n for c, b in enumerate(blocks)])
    indptr = np.concatenate([b.indptr[:-1] + s for b, s in zip(blocks, starts)] + [starts[-1:]])
    return sp.csr_matrix((data, indices, indptr), shape=(3 * n, 3 * n))


def first_block(stiff: sp.csr_matrix) -> sp.csr_matrix:
    """A_0 = S, the first diagonal block of `stack_stiffness`'s matrix, as a
    CSR view of its arrays (no copy)."""
    n = stiff.shape[0] // 3
    nnz = int(stiff.indptr[n])
    block = sp.csr_matrix((n, n), dtype=stiff.dtype)
    # Assigned, not passed to the constructor, which copies short slices.
    block.data, block.indices, block.indptr = (
        stiff.data[:nnz], stiff.indices[:nnz], stiff.indptr[: n + 1])
    return block


def components(F: np.ndarray):
    """(f0, f1, f2) views of a stacked state, with f0 real in either dtype."""
    return F[0].real, F[1], F[2]


@dataclass
class Problem:
    """Discrete constrained-minimization problem fed to the engine.

    stiff: diag(A_0, A_1, A_2) (`stack_stiffness`), A_k = S + k^2 diag(P)
        with S the Laplacian the components share (full node set) and P the
        nodal weight of the k^2/r^2 term; 1/2 f_k^T A_k f_k is the quadratic
        energy part of component k including couplings to fixed nodes.
        `lap` is S = A_0, a view of the first block.
    mass: nodal weights of the L2(volume) pairing (zero on weightless rows).
    free: per-component index arrays of unknowns.  Every other dof is
        fixed: a descent keeps the value its initial state has there.
    factors: LU factors of the shifted matrix at TAU0 over every free dof,
        keyed by precision and shared by every descent on this Problem: one
        for the descents of one direction rule.  The operators must not
        change once a factor is cached.

    `free_dofs` and `fixed_dofs` are the dofs inside and outside `free`, as
    sorted flat indices into a raveled (3, n) state, and `free_mask` marks
    the free dofs in a (3, n) boolean array: the increment is gathered and
    scattered through it, which on the cigar's fine mesh takes 0.5 ms
    against 0.9 ms through `free_dofs`.  `unweighted` indexes the nodes of
    zero mass.  `two_point_nodes` are the nodes where f0 alone is free: f1
    and f2 are fixed there (at 0 on the symmetry axis), so the unit norm
    leaves f0 the two points +1 and -1.
    The smooth flow cannot cross between them, so the engine interleaves a
    flip sweep: such a node is sign-flipped whenever that strictly decreases
    the energy (from the local quadratic form), keeping the iteration
    monotone while the axis trace moves.

    The constants of the iteration (S, lam M, the mass mask and sum, the
    free and fixed dofs) are computed once, when the Problem is made; make a
    new Problem (`dataclasses.replace`) rather than assigning to its fields.
    """

    stiff: sp.csr_matrix
    mass: np.ndarray
    free: Sequence[np.ndarray]
    lam: float
    factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.mass.size
        self.lap = first_block(self.stiff)
        self.mass_sum = float(np.sum(self.mass))
        weighted = self.mass > 0
        self.unweighted = np.flatnonzero(~weighted)
        self.mass_safe = np.where(weighted, self.mass, 1.0)
        self.lam_mass = self.lam * self.mass
        fixed = np.ones((3, n), dtype=bool)
        for c in range(3):
            fixed[c, self.free[c]] = False
        self.free_mask = ~fixed
        self.free_dofs = np.flatnonzero(self.free_mask)
        self.fixed_dofs = np.flatnonzero(fixed)
        self.two_point_nodes = np.flatnonzero(~fixed[0] & fixed[1] & fixed[2])
        if self.two_point_nodes.size:
            self.two_point_rows = self.lap[self.two_point_nodes]
            self.two_point_diag = self.lap.diagonal()[self.two_point_nodes]

    def shifted(self, tau: float, dtype=np.float64) -> sp.csc_matrix:
        """M (1 + tau lam C) + tau diag(A_0, A_1, A_2) on the free dofs, in CSC
        with sorted indices and values of `dtype`: its diagonal blocks are the
        components' M (1 + tau lam C) + tau A_k, and its off-diagonal blocks
        store nothing.  It is assembled in float64 and then rounded, so no
        float64 copy outlives the call."""
        dofs = self.free_dofs
        mat = self.stiff.tocsr()[dofs, :][:, dofs].tocsc()
        mat.sort_indices()
        mat.data *= tau
        cols = np.repeat(np.arange(dofs.size), np.diff(mat.indptr))
        diag = np.flatnonzero(mat.indices == cols)
        if diag.size != dofs.size:
            raise ValueError("the stiffness stores no diagonal entry at some free dof")
        mat.data[diag] += self.mass[dofs % self.mass.size] * (1.0 + tau * self.lam * STAB_C)
        mat.data = mat.data.astype(dtype, copy=False)
        return mat

    def factor(self, dtype=np.float64):
        """SuperLU factor of the shifted matrix at step TAU0, in precision
        `dtype` (float64 or float32), keyed by dtype.

        The matrix is SPD, so it is factored in symmetric mode with a
        minimum-degree ordering of A^T + A.  SuperLU's factorization
        workspace grows with its panel size times the matrix order: with
        the default panel size, the peak memory of a 3D solve rises by a
        quarter.  A panel size of 1 keeps it at what the factor needs.
        A float32 factor has the same fill and stores its values in half
        the bytes, so its triangular solves stream a third fewer bytes
        (the int32 row indices stay).

        The matrix is symmetric, so `_solve` asks for the transposed solve
        (trans="T"), whose column-oriented sweeps are the faster ones here.
        Interleaved per-solve medians, plain -> transposed, on one thread
        of a shared 2-core x86-64 host: 8.11 -> 6.93 ms on the cigar's fine
        level (125 634 dofs, float32), 1.16 -> 0.94 ms on its coarse level,
        6.15 -> 5.57 ms on the pancake's fine level, 24.9 -> 22.6 us in 2D
        at n = 513 (float64) and 9.4 us either way at n = 129.
        """
        key = np.dtype(dtype)
        if key not in self.factors:
            self.factors[key] = spla.splu(
                self.shifted(TAU0, dtype),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
                panel_size=1,
            )
        return self.factors[key]


@dataclass
class SolveOptions:
    """The one solver configuration: both fields drive `descend`.

    The 2D and 3D front ends pass it through; their coarse cascade levels
    run on a copy with a smaller max_iters.
    """

    max_iters: int = 20000
    grad_tol: float = 1e-5

    def __post_init__(self):
        for name in ("max_iters", "grad_tol"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, numbers.Real) or not math.isfinite(val):
                raise ValueError(f"solver option {name} must be a finite number, not {val!r}")
        # A config file gives 2e4 as a float: take it, but truncate nothing.
        if self.max_iters != int(self.max_iters):
            raise ValueError(
                f"solver option max_iters must be a whole number, not {self.max_iters!r}")
        self.max_iters = int(self.max_iters)
        if self.max_iters <= 0 or self.grad_tol <= 0:
            raise ValueError("solver options must be positive")


def stiffness_products(p: Problem, F: np.ndarray) -> np.ndarray:
    """A F, row k being A_k f_k: one sparse product."""
    return (p.stiff @ F.ravel()).reshape(F.shape)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k Re(a_k conj(b_k)) at every node.

    Real rows are multiplied and summed row by row, into two node arrays:
    (a_0 b_0 + a_1 b_1) + a_2 b_2, the order np.add.reduce(a * b, axis=0)
    sums in, with no (3, n) product.
    """
    if b.dtype.kind == "c":
        return np.add.reduce((a * b.conj()).real, axis=0)
    out = a[0] * b[0]
    tmp = a[1] * b[1]
    out += tmp
    out += np.multiply(a[2], b[2], out=tmp)
    return out


def _beta(p: Problem, F):
    """Signed biaxiality at every node, or None when lam = 0 (W unused)."""
    return beta_arrays(*components(F)) if p.lam != 0.0 else None


def energy(p: Problem, F: np.ndarray, af=None, beta=None) -> float:
    """Discrete energy of the state F; af and beta optionally carry its
    stiffness products and signed biaxiality (`beta_arrays`)."""
    if af is None:
        af = stiffness_products(p, F)
    e = 0.5 * float(np.vdot(F, af).real)
    if p.lam != 0.0:
        if beta is None:
            beta = beta_arrays(*components(F))
        e += float(p.lam_mass @ potential_w_from_beta(beta))
    return e


def _grad_w(p: Problem, F, beta=None):
    """Tangential gradient of W at every node, as the three rows that
    `grad_w_tan_arrays` gives (not stacked: its readers go row by row); 0
    when lam = 0."""
    return grad_w_tan_arrays(*components(F), beta) if p.lam != 0.0 else 0.0


def riemannian_gradient(p: Problem, F: np.ndarray, af=None, gw=None) -> np.ndarray:
    """Tangentially projected gradient in the mass metric, zero on fixed dofs.

    af and gw optionally carry the stiffness products and the tangential
    potential gradient of F.
    """
    if af is None:
        af = stiffness_products(p, F)
    if gw is None:
        gw = _grad_w(p, F)
    g = af / p.mass_safe
    if p.lam != 0.0:
        for gk, wk in zip(g, gw):
            gk += p.lam * wk
    g = _tangent(F, g)
    g.ravel()[p.fixed_dofs] = 0.0
    return g


def gradient_norm(p: Problem, F: np.ndarray, af=None, gw=None) -> float:
    g = riemannian_gradient(p, F, af, gw)
    return math.sqrt(float(p.mass @ _inner(g, g)) / p.mass_sum)


def _force(p: Problem, F, af, gw):
    """Increment right-hand side per unit step: s f - A f - lam M grad W_tan."""
    s = _inner(af, F)
    s[p.unweighted] = 0.0
    r = s * F
    r -= af
    if p.lam != 0.0:
        t = np.empty_like(r[0])
        for rk, gk in zip(r, gw):
            rk -= np.multiply(p.lam_mass, gk, out=t)
    return r


def _semi_implicit(p: Problem, F, force, dtype=np.float64):
    """Increment delta at step TAU0, zero on fixed dofs; force from `_force`.
    One solve gives all three components, in the precision `dtype` of the
    factor (`Problem.factor`); delta comes back in F's dtype."""
    delta = np.zeros_like(F)
    rhs = force[p.free_mask]
    rhs *= TAU0
    delta[p.free_mask] = _solve(p.factor(dtype), rhs, dtype)
    return delta


def _solve(fac, rhs, dtype):
    """fac^-1 rhs for a factor of precision dtype, which the rhs is rounded
    to; the real and imaginary parts of a complex rhs go through one 2-column
    solve.  The shifted matrix is symmetric, so its transposed solve is the
    same solve, and SuperLU's transposed sweeps are the faster ones
    (`Problem.factor`)."""
    two = rhs.dtype.kind == "c" and np.any(rhs.imag)
    b = np.column_stack((rhs.real, rhs.imag)) if two else rhs.real
    sol = fac.solve(b.astype(dtype, copy=False), trans="T")
    return sol[:, 0] + 1j * sol[:, 1] if two else sol


def _renormalize(F: np.ndarray) -> np.ndarray:
    """Project every node of F to the unit sphere, in place."""
    norm = _inner(F, F)
    np.sqrt(norm, out=norm)
    if not norm.all():
        raise ValueError("cannot renormalize a zero sample")
    F /= norm
    return F


# Potential values at the two axis states +E0 and -E0, where beta = +1 and -1.
_W_PLUS = float(potential_w_from_beta(1.0))
_W_MINUS = float(potential_w_from_beta(-1.0))


def flip_sweep(p: Problem, F: np.ndarray):
    """Greedy energy-decreasing sign flips on the two-point-constraint nodes.

    The energy is quadratic in a single node value with everything else
    frozen, so the exact change for s -> -s at node a is
    -2 s * ((S f0)_a - S[a,a] s) + lam * mass_a * (W(-s) - W(s)).
    Flips one node at a time (the most negative), recomputing couplings,
    so every flip strictly decreases the energy; at most 64 flips.
    Returns (F, flips), F a new array when any node flipped.
    """
    nodes = p.two_point_nodes
    if nodes.size == 0:
        return F, 0
    f0 = components(F)[0]
    flips = 0
    for _ in range(64):
        s = f0[nodes]
        d_e = -2.0 * s * (p.two_point_rows @ f0 - p.two_point_diag * s)
        if p.lam != 0.0:
            d_e = d_e + p.lam_mass[nodes] * np.where(s > 0, _W_MINUS - _W_PLUS, _W_PLUS - _W_MINUS)
        k = int(np.argmin(d_e))
        if d_e[k] >= -1e-14:
            break
        if flips == 0:
            F = F.copy()
            f0 = components(F)[0]
        f0[nodes[k]] = -f0[nodes[k]]
        flips += 1
    return F, flips


def _candidate(p: Problem, F, step, fixed_values):
    """(v, A v, beta(v), E(v)) of the candidate v = F + step, renormalized,
    with the initial values written back on the fixed dofs.  v is written
    over step."""
    v = _renormalize(np.add(F, step, out=step))
    v.ravel()[p.fixed_dofs] = fixed_values
    av = stiffness_products(p, v)
    bv = _beta(p, v)
    return v, av, bv, energy(p, v, av, bv)


def _rejects(e_new: float, e: float, armijo: float = 0.0) -> bool:
    """Whether a candidate of energy e_new is rejected from a state of energy
    e; armijo (<= 0) is the sufficient decrease the CG line search asks for.

    The acceptance slack carries an absolute floor: near stationarity the
    solve/renormalize round-trip has a small roundoff noise floor amplified
    by the stiff 1/r^2 rows, independent of the step size.
    """
    return e_new > e + armijo + 1e-10 + 1e-12 * abs(e)


def _sweep(p: Problem, F, af):
    """`flip_sweep`, with the f0 row of the carried products af refreshed in
    place when a node flipped; returns (F, flips)."""
    F, flips = flip_sweep(p, F)
    if flips:
        af[0] = p.lap @ F[0]
    return F, flips


def _tangent(F, x):
    """x projected, node by node, onto the tangent space of the sphere at F,
    in place; returns x."""
    s = _inner(x, F)
    t = np.empty_like(x[0])
    for xk, fk in zip(x, F):
        xk -= np.multiply(s, fk, out=t)
    return x


def _dot(a, b) -> float:
    """sum over all dofs of Re(a conj(b))."""
    return float(np.vdot(a, b).real)


def descend(
    p: Problem,
    fields,
    opts: SolveOptions,
    on_accept: Callable[[int, float], None] | None = None,
    *,
    direction: str,
):
    """Monotone projected descent; returns ((f0, f1, f2), iterations, converged).

    `direction` is the direction rule: "ladder" (the alpha ladder along the
    increment; the radial front end) or "cg" (preconditioned PR+ conjugate
    gradients with a line search; the meridian front end).  The iterations
    count the candidates on the ladder and the directions, that is the
    increments solved, with "cg".  on_accept(it, e) is called with the
    energy of every accepted state and of every state a flip sweep changes
    after an accept.

    The dtype of the state is chosen once (`stack_fields`): real when f1 and
    f2 have no nonzero imaginary part, complex otherwise.  f1 and f2 come
    back complex.  Every candidate keeps the initial state's values on the
    fixed dofs, written after its renormalization.
    """
    if direction not in ("ladder", "cg"):
        raise ValueError(f"unknown direction rule {direction!r}: expected 'ladder' or 'cg'")
    F = stack_fields(*fields)
    run = _cg if direction == "cg" else _ladder
    F, it, converged = run(p, F, opts, on_accept or (lambda it, e: None))
    f0, f1, f2 = components(F)
    return (np.array(f0), f1.astype(complex), f2.astype(complex)), it, converged


def _ladder(p: Problem, F, opts: SolveOptions, on_accept):
    """The alpha ladder along the increment; see the module docstring."""
    fixed_values = F.ravel()[p.fixed_dofs]
    af = stiffness_products(p, F)
    # beta of the current state, carried from its energy into its grad W_tan;
    # None after a flip, which changes f0.
    beta = _beta(p, F)
    e = energy(p, F, af, beta)
    gw = delta = None
    ladder = 0
    grow = 0
    it = 0
    while it < opts.max_iters:
        it += 1
        if delta is None:
            if gw is None:
                gw = _grad_w(p, F, beta)
            delta = _semi_implicit(p, F, _force(p, F, af, gw))
        alpha = 2.0 ** (ladder - LADDER_MAX)
        v, av, bv, e_new = _candidate(p, F, alpha * delta, fixed_values)
        if _rejects(e_new, e):
            grow = 0
            if alpha <= MIN_STEP:
                # Deep in the backtracking: either we are at a stationary
                # point (rejections are pure roundoff) or genuinely stuck.
                F, nflips = _sweep(p, F, af)
                if nflips:
                    gw = delta = beta = None
                    e = energy(p, F, af)
                    ladder = 0
                    continue
                if gradient_norm(p, F, af, gw) < opts.grad_tol:
                    return F, it, True
                if alpha * TAU0 < 1e-15:
                    raise RuntimeError("descent stalled: step size underflow")
            ladder -= 1
            continue
        decrement = e - e_new
        F, af, beta = v, av, bv
        gw = delta = None
        e = e_new
        on_accept(it, e)
        grow += 1
        if grow >= 8 and ladder < LADDER_MAX:
            ladder += 1
            grow = 0
        if it % 10 == 0 or decrement < ENERGY_TOL * max(1.0, abs(e)):
            F, nflips = _sweep(p, F, af)
            if nflips:
                beta = None
                e = energy(p, F, af)
                on_accept(it, e)
                grow = 0
                continue
            gw = _grad_w(p, F, beta)
            if gradient_norm(p, F, af, gw) < opts.grad_tol:
                return F, it, True
    return F, it, False


def _cg(p: Problem, F, opts: SolveOptions, on_accept):
    """Preconditioned PR+ conjugate gradients; see the module docstring."""
    fixed_values = F.ravel()[p.fixed_dofs]
    af = stiffness_products(p, F)
    beta = _beta(p, F)
    e = energy(p, F, af, beta)
    gw = z = None
    # The last accepted direction's residual r, increment z and direction d,
    # for PR+; None restarts along z.
    last = None
    a_start = 0.5
    it = accepted = 0
    while True:
        if z is None:
            if it >= opts.max_iters:
                return F, it, False
            it += 1
            if gw is None:
                gw = _grad_w(p, F, beta)
            r = _force(p, F, af, gw)
            r.ravel()[p.fixed_dofs] = 0.0
            # The factor is only a preconditioner here: a float32 one solves
            # faster, and r = 0 still gives z = 0.
            z = _tangent(F, _semi_implicit(p, F, r, np.float32))
            d = z
            if last is not None:
                # The last direction's arrays are projected and overwritten in
                # place; d_old is z_old after a restart.
                r_old, z_old, d_old = last
                den = _dot(r_old, z_old)
                tz = _tangent(F, z_old)
                gamma = max(0.0, _dot(r, np.subtract(z, tz, out=r_old)) / den)
                if gamma > 0.0:
                    d = tz if d_old is z_old else _tangent(F, d_old)
                    d *= gamma
                    d += z
                    if _dot(r, d) <= 0.0:
                        d = z
            slope = -_dot(r, d)
            a, fitted = a_start, False
        v, av, bv, e_new = _candidate(p, F, a * d, fixed_values)
        if _rejects(e_new, e, 1e-4 * a * slope):
            if a > MIN_STEP:
                if fitted:
                    a *= 0.5
                else:
                    # Minimum of the quadratic through e, the slope and e_new.
                    fit = -slope * a * a / (2.0 * (e_new - e - slope * a))
                    a, fitted = min(max(fit, 0.1 * a), 0.5 * a), True
                continue
            if d is not z:
                # The search failed along a conjugate direction: restart.
                d, slope = z, -_dot(r, z)
                a, fitted = a_start, False
                continue
            # Failed along z itself: either we are at a stationary point
            # (rejections are pure roundoff) or genuinely stuck.
            F, nflips = _sweep(p, F, af)
            if nflips:
                gw = z = beta = last = None
                e = energy(p, F, af)
                continue
            if gradient_norm(p, F, af, gw) < opts.grad_tol:
                return F, it, True
            if a * TAU0 < 1e-15:
                raise RuntimeError("descent stalled: step size underflow")
            a *= 0.5
            continue
        decrement = e - e_new
        F, af, beta, e = v, av, bv, e_new
        last = (r, z, d)
        gw = z = None
        a_start = min(1.5 * a, 4.0)
        accepted += 1
        on_accept(it, e)
        if accepted % 10 == 0 or decrement < ENERGY_TOL * max(1.0, abs(e)):
            F, nflips = _sweep(p, F, af)
            if nflips:
                beta = last = None
                e = energy(p, F, af)
                on_accept(it, e)
                continue
            gw = _grad_w(p, F, beta)
            if gradient_norm(p, F, af, gw) < opts.grad_tol:
                return F, it, True

"""Axisymmetric 3D solver on smoothed cylinders.

The domain is a vertical cylinder of half-height h and radius ell whose
meridian rectangle has its corners rounded by 4-norm discs of radius rho
(a C^{3,1} boundary).  Equivariant fields reduce to three profiles
f = (f0, f1, f2) on the meridian half-section, with energy

    E_lam = pi * int ( |grad f|^2 + (|f1|^2 + 4 |f2|^2)/r^2 + 2 lam W(f) ) r dr dz.

The solver is the shared projected-descent engine on a masked uniform
(r, z) grid: interior nodes are unknowns, and the data layer carries the
homeotropic (outward normal) data pulled back to the nearest boundary
point.  The data layer is the non-interior ends of the lattice edges
that touch the interior; an edge joins two 4-neighbours inside the grid,
so none wraps from the r = ell column to the axis.  The axis column
keeps f1 = f2 = 0 with f0 free (its unit norm forces the +/-1 trace).
Downstream diagnostics: axis-trace singularity detection, torus/split
classification, the radial / horizontal / vertical energy identities, and
the singularity instability quadratic form.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import descent
from .profiles import write_csv
from .radial2d import SolveOptions, _trapezoid_weights, minimize_2d, uniform_grid
from .tensor_core import (
    beta_arrays,
    hessian_w_homog,
    potential_w_arrays,
    q_to_u,
    real5_arrays,
)

__all__ = [
    "CylinderGeometry",
    "MeridianField",
    "SingularityRecord",
    "MinResult3D",
    "build_geometry",
    "check_shape",
    "homeotropic_data",
    "meridian_energy",
    "minimize_3d",
    "minimize_seeds",
    "axis_trace",
    "detect_singularities",
    "classify",
    "energy_identity_residuals",
    "radial_monotonicity",
    "instability_form",
    "EtaSpec",
    "tangent_map_field",
]


# ---------------------------------------------------------------------------
# Geometry.
# ---------------------------------------------------------------------------


def _four_norm_excess(r, z, ell, h, rho):
    """4-norm distance to the deflated rectangle minus rho; < 0 inside."""
    a = np.maximum(np.abs(r) - (ell - rho), 0.0)
    b = np.maximum(np.abs(z) - (h - rho), 0.0)
    return (a**4 + b**4) ** 0.25 - rho


@dataclass
class CylinderGeometry:
    """Smoothed rho-cylinder sampled on a uniform meridian lattice."""

    h: float
    ell: float
    rho: float
    target_h: float  # the lattice spacing asked of `build_geometry`
    r: np.ndarray
    z: np.ndarray
    interior: np.ndarray  # bool (nz, nr)
    dirichlet: np.ndarray  # bool (nz, nr): data-carrying layer
    edges: np.ndarray  # (2, m) flat index pairs of 4-neighbours, r-edges then z-edges
    normals: np.ndarray  # (nz, nr, 2) outward normal at dirichlet nodes
    foot: np.ndarray  # (nz, nr, 2) nearest boundary point of dirichlet nodes

    @property
    def nr(self) -> int:
        return self.r.size

    @property
    def nz(self) -> int:
        return self.z.size

    @property
    def hr(self) -> float:
        return float(self.r[1] - self.r[0])

    @property
    def hz(self) -> float:
        return float(self.z[1] - self.z[0])

    @property
    def active(self) -> np.ndarray:
        return self.interior | self.dirichlet

    def level(self, r, z):
        return _four_norm_excess(r, z, self.ell, self.h, self.rho)

    @cached_property
    def disc(self) -> "_MeridianDisc":
        """Stiffness, mass and free-index operators of this lattice."""
        return _MeridianDisc(self)

    @cached_property
    def data_nodes(self) -> np.ndarray:
        """Flat (row-major) indices of the data layer."""
        return np.flatnonzero(self.dirichlet)

    @cached_property
    def boundary_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only `homeotropic_data` of this lattice, shared by every seed."""
        arrays = homeotropic_data(self)
        for a in arrays:
            a.setflags(write=False)
        return arrays


def check_shape(h: float, ell: float, rho: float) -> None:
    """Raise ValueError unless h, ell > 0 and 0 < 2 rho < min(h, ell)."""
    if not (h > 0 and ell > 0 and 0 < 2 * rho < min(h, ell)):
        raise ValueError(
            f"need h, ell > 0 and 0 < 2 rho < min(h, ell), not h = {h!r}, ell = {ell!r}, rho = {rho!r}"
        )


def build_geometry(h: float, ell: float, rho: float, target_h: float = 0.025) -> CylinderGeometry:
    """Mask a uniform meridian lattice by 4-disc membership.

    A node is interior iff its 4-norm distance to the deflated rectangle
    is below rho (equivalently, it lies in some admissible 4-disc).  The
    lattice's edges join 4-neighbours: first every r-edge, then every
    z-edge, each in row-major order.  They mark the data layer (the
    module docstring gives the rule), which stores the outward normal and
    nearest boundary point of the smoothed boundary curve.
    """
    check_shape(h, ell, rho)
    if not (math.isfinite(target_h) and target_h > 0):
        raise ValueError(f"target_h must be a finite positive number, not {target_h!r}")
    nr = max(int(round(ell / target_h)), 8) + 1
    nz = 2 * max(int(round(h / target_h)), 8) + 1
    r = np.linspace(0.0, ell, nr)
    z = np.linspace(-h, h, nz)
    rr = r[None, :] * np.ones((nz, 1))
    zz = z[:, None] * np.ones((1, nr))
    phi = _four_norm_excess(rr, zz, ell, h, rho)
    # Roundoff guard for nodes on the boundary: phi carries the rounding of
    # |z| - (h - rho) and |r| - (ell - rho), so the guard scales with the
    # lattice, not with rho.
    interior = phi < -1e-12 * max(h, ell)
    node = np.arange(nz * nr).reshape(nz, nr)
    edges = np.stack([np.concatenate([node[:, :-1].ravel(), node[:-1].ravel()]),
                      np.concatenate([node[:, 1:].ravel(), node[1:].ravel()])])
    # The far end of every edge end that is interior.
    dirichlet = np.zeros(nz * nr, dtype=bool)
    dirichlet[edges[::-1][interior.ravel()[edges]]] = True
    dirichlet = dirichlet.reshape(nz, nr) & ~interior

    # Nearest boundary point: from the clamped center of the touching 4-disc.
    cr = np.clip(rr, -(ell - rho), ell - rho)
    cz = np.clip(zz, -(h - rho), h - rho)
    dr = rr - cr
    dz = zz - cz
    q4 = (dr**4 + dz**4) ** 0.25
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(q4 > 0, rho / np.where(q4 > 0, q4, 1.0), 0.0)
    foot_r = cr + dr * scale
    foot_z = cz + dz * scale
    # Outward normal of the 4-norm sphere at the foot point.
    fr = foot_r - cr
    fz = foot_z - cz
    nr_ = fr**3
    nz_ = fz**3
    nn = np.sqrt(nr_**2 + nz_**2)
    nn = np.where(nn > 0, nn, 1.0)
    normals = np.stack([nr_ / nn, nz_ / nn], axis=-1)
    foot = np.stack([foot_r, foot_z], axis=-1)

    geom = CylinderGeometry(h, ell, rho, target_h, r, z, interior, dirichlet, edges, normals, foot)
    _check_inclusions(geom)
    return geom


def _check_inclusions(geom: CylinderGeometry) -> None:
    """Nodewise inclusions R^h_{ell-rho} u R^{h-rho}_ell c R^h_{ell,rho} c R^h_ell."""
    rr = geom.r[None, :] * np.ones((geom.nz, 1))
    zz = geom.z[:, None] * np.ones((1, geom.nr))
    inner = ((np.abs(rr) < geom.ell - geom.rho) & (np.abs(zz) < geom.h)) | (
        (np.abs(rr) < geom.ell) & (np.abs(zz) < geom.h - geom.rho)
    )
    outer = (np.abs(rr) < geom.ell) & (np.abs(zz) < geom.h)
    if np.any(inner & ~geom.interior) or np.any(geom.interior & ~outer):
        raise AssertionError("smoothed-rectangle inclusions violated by the mask")


# ---------------------------------------------------------------------------
# Fields and boundary data.
# ---------------------------------------------------------------------------


@dataclass
class MeridianField:
    geom: CylinderGeometry
    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        shape = (self.geom.nz, self.geom.nr)
        for name in ("f0", "f1", "f2"):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"{name} has shape {got}, the geometry's (nz, nr) is {shape}")

    def beta(self) -> np.ndarray:
        return beta_arrays(self.f0, self.f1, self.f2)

    def node_norms(self) -> np.ndarray:
        return np.sqrt(self.f0**2 + np.abs(self.f1) ** 2 + np.abs(self.f2) ** 2)

    def validate(self, tol: float = 1e-9) -> None:
        act = self.geom.active
        if np.max(np.abs(self.node_norms()[act] - 1.0)) > tol:
            raise ValueError("active node norms deviate from 1 beyond tolerance")
        axis = act[:, 0]
        if np.max(np.abs(self.f1[axis, 0])) > tol or np.max(np.abs(self.f2[axis, 0])) > tol:
            raise ValueError("f1, f2 must vanish on the axis")

    def copy(self) -> "MeridianField":
        return MeridianField(self.geom, self.f0.copy(), self.f1.copy(), self.f2.copy())

    def to_csv(self, path) -> None:
        """Active nodes in row-major (z, then r) order, one row each."""
        g = self.geom
        act = g.active
        iz, jr = np.nonzero(act)
        f1, f2 = self.f1[act], self.f2[act]
        write_csv(path, ("r", "x3", "f0", "Re f1", "Im f1", "Re f2", "Im f2", "beta"),
                  (g.r[jr], g.z[iz], self.f0[act], f1.real, f1.imag, f2.real, f2.imag,
                   self.beta()[act]))

    def save(self, path) -> None:
        """Write the field as an npz archive that `load` reads back.

        It holds the lattice (r, z), the three components and the cylinder
        (h, ell, rho, target_h) that `load` rebuilds the mask from.  It is
        stored uncompressed: on the cigar field `np.savez_compressed` takes
        63 ms and `np.savez` 4 ms, for 664 700 against 1 760 932 bytes.
        """
        g = self.geom
        # Through a file object, which np.savez does not suffix with ".npz".
        with open(path, "wb") as fh:
            np.savez(fh, r=g.r, z=g.z, f0=self.f0, f1=self.f1, f2=self.f2,
                     h=g.h, ell=g.ell, rho=g.rho, target_h=g.target_h)

    @classmethod
    def load(cls, path) -> "MeridianField":
        """The field that `save` wrote to `path`, on its rebuilt geometry.

        Raises ValueError when the file cannot be read as such an archive,
        when it stores no valid cylinder, or when its arrays do not fit the
        rebuilt mask.
        """
        try:
            with np.load(path) as data:
                shape = [float(data[key]) for key in ("h", "ell", "rho", "target_h")]
                fields = [data[key] for key in ("f0", "f1", "f2")]
        # EOFError: an empty file; TypeError: a plain .npy array, or a
        # cylinder value that is not a scalar.
        except (OSError, KeyError, ValueError, EOFError, TypeError) as exc:
            raise ValueError(f"cannot read a field from {path}: {exc}") from exc
        try:
            geom = build_geometry(*shape)
        except ValueError as exc:
            raise ValueError(f"{path} stores no valid cylinder: {exc}") from exc
        try:
            return cls(geom, *fields)
        except ValueError as exc:
            raise ValueError(f"{path} does not match its rebuilt mask: {exc}") from exc


def homeotropic_tensor(normal3) -> np.ndarray:
    """Unit-norm boundary tensor sqrt(3/2)(n x n - Id/3) of the direction n."""
    n = np.asarray(normal3, dtype=float)
    length = np.linalg.norm(n)
    if length == 0.0:
        raise ValueError("homeotropic tensor undefined for a zero direction")
    n = n / length
    return (np.outer(n, n) - np.eye(3) / 3.0) * np.sqrt(1.5)


def homeotropic_data(geom: CylinderGeometry):
    """(f0, f1, f2) arrays holding the outward-normal data on the layer.

    The normal is rotated into 3D in the meridian plane (phi = 0), the
    tensor sqrt(3/2)(n x n - Id/3) converted to u-coordinates; caps give
    (1, 0, 0) and the straight lateral wall (-1/2, 0, sqrt3/2).  Many data
    nodes share a normal (every cap node, every straight-wall node), so the
    conversion runs once per distinct normal.
    """
    g = geom
    f0 = np.zeros((g.nz, g.nr))
    f1 = np.zeros((g.nz, g.nr), dtype=complex)
    f2 = np.zeros((g.nz, g.nr), dtype=complex)
    idx = np.nonzero(g.dirichlet)
    normals, inverse = np.unique(g.normals[idx], axis=0, return_inverse=True)
    us = [q_to_u(homeotropic_tensor([n[0], 0.0, n[1]])) for n in normals]
    inverse = inverse.ravel()  # numpy 2.0.0 shapes it (nodes, 1)
    f0[idx] = np.array([u.u0 for u in us])[inverse]
    f1[idx] = np.array([u.u1 for u in us])[inverse]
    f2[idx] = np.array([u.u2 for u in us])[inverse]
    return f0, f1, f2


def _impose(geom: CylinderGeometry, f0, f1, f2) -> None:
    """Write the data layer (`geom.boundary_data`) and the axis rules
    f1 = f2 = 0, f0 = +/-1 into (nz, nr) arrays, in place."""
    f1[:, 0] = 0.0
    f2[:, 0] = 0.0
    # Unit norm on the axis forces the trace values +/-1.
    f0[:, 0] = np.where(f0[:, 0] >= 0, 1.0, -1.0)
    k = geom.data_nodes
    for f, b in zip((f0, f1, f2), geom.boundary_data):
        np.put(f, k, np.take(b, k))


# ---------------------------------------------------------------------------
# Discrete energy: masked segment/trapezoid quadrature.
# ---------------------------------------------------------------------------


class _MeridianDisc:
    """Stiffness, mass, and index bookkeeping on the masked lattice."""

    def __init__(self, geom: CylinderGeometry):
        nz, nr = geom.nz, geom.nr
        hr, hz = geom.hr, geom.hz
        inter = geom.interior
        n_all = nz * nr

        # The edges that touch the interior; their other ends are active.
        a, b = geom.edges[:, inter.ravel()[geom.edges].any(axis=0)]
        n_r = np.count_nonzero(b - a == 1)  # the r-edges come first
        rmid = 0.5 * (geom.r[a % nr] + geom.r[b % nr])
        coef = np.concatenate([hz * rmid[:n_r] / hr, hr * rmid[n_r:] / hz])
        # COO entries direction by direction, [a, b, a, b] x [a, b, b, a] x
        # [c, c, -c, -c] in each: this order fixes how the diagonal sums.
        rows, cols, vals = (
            np.concatenate([q[:, :n_r].ravel(), q[:, n_r:].ravel()])
            for q in (np.stack([a, b, a, b]), np.stack([a, b, b, a]),
                      np.stack([coef, coef, -coef, -coef]))
        )
        lap = sp.csr_matrix((vals, (rows, cols)), shape=(n_all, n_all))

        m = np.zeros((nz, nr))
        m[inter] = hr * hz
        m *= geom.r[None, :]
        # Lumped P1 mass on the axis column keeps those unknowns inertial.
        m[:, 0] = np.where(inter[:, 0], hz * hr**2 / 6.0, 0.0)
        inv_r2 = np.zeros(nr)
        inv_r2[1:] = 1.0 / geom.r[1:] ** 2
        pen_flat = (m * inv_r2[None, :]).ravel()

        # Component k's stiffness is lap + k^2 diag(pen) (`descent.Problem`).
        self.pen = 2.0 * np.pi * pen_flat
        self.stiff = descent.stack_stiffness(2.0 * np.pi * lap, self.pen)
        self.lap = descent.first_block(self.stiff)
        self.mass = 2.0 * np.pi * m.ravel()

        # f1 and f2 are fixed at 0 on the axis column (flat index i * nr).
        self.free0 = np.flatnonzero(inter)
        self.free12 = self.free0[self.free0 % nr != 0]


def _problem_for(geom: CylinderGeometry, lam: float) -> descent.Problem:
    d = geom.disc
    return descent.Problem(d.stiff, d.mass, (d.free0, d.free12, d.free12), lam)


def meridian_energy(field: MeridianField, lam: float):
    """(total, dirichlet, potential); total = dirichlet + lam * potential."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    field.validate()
    p = _problem_for(field.geom, 0.0)
    F = descent.stack_fields(field.f0, field.f1, field.f2)
    dirichlet = descent.energy(p, F)
    potential = float(np.sum(p.mass * potential_w_arrays(*descent.components(F))))
    return dirichlet + lam * potential, dirichlet, potential


# ---------------------------------------------------------------------------
# Seeds and minimization.
# ---------------------------------------------------------------------------


@dataclass
class SingularityRecord:
    position: float
    jump: tuple[int, int]


@dataclass
class MinResult3D:
    field: MeridianField
    energy: float
    dirichlet: float
    potential: float
    residual: float
    iterations: int
    converged: bool
    singularities: list[SingularityRecord]
    classification: str
    beta_min: float
    beta_max: float
    seed_name: str = ""


def seed_field(geom: CylinderGeometry, lam: float, kind: str,
               opts: SolveOptions | None = None) -> MeridianField:
    """'split-seed' (vertical extension of the 2D class-S minimizer) or
    'torus-seed' (constant E0 interior), glued to the homeotropic layer."""
    f0 = np.ones((geom.nz, geom.nr))
    f1 = np.zeros((geom.nz, geom.nr), dtype=complex)
    f2 = np.zeros((geom.nz, geom.nr), dtype=complex)
    if kind == "split-seed":
        res = minimize_2d(lam * geom.ell**2, "S", "uS", opts or SolveOptions(),
                          grid=uniform_grid(513))
        row = res.profile.interp_to(np.clip(geom.r / geom.ell, 0.0, 1.0))
        f0[:], f1[:], f2[:] = row.f0, row.f1, row.f2
    elif kind != "torus-seed":
        raise ValueError(f"unknown seed kind {kind!r}")
    _impose(geom, f0, f1, f2)
    return MeridianField(geom, f0, f1, f2)


def el_residual_3d(field: MeridianField, lam: float) -> float:
    """Mass-weighted L2 residual of the meridian EL system at interior nodes."""
    p = _problem_for(field.geom, lam)
    return descent.gradient_norm(p, descent.stack_fields(field.f0, field.f1, field.f2))


def interp_field(src: MeridianField, geom: CylinderGeometry) -> MeridianField:
    """Bilinear transfer of a field onto another grid of the same cylinder."""
    sg = src.geom

    def interp(arr):
        re = _bilinear(sg.z, sg.r, arr.real, geom.z, geom.r)
        if np.iscomplexobj(arr):
            return re + 1j * _bilinear(sg.z, sg.r, arr.imag, geom.z, geom.r)
        return re

    f0 = interp(src.f0)
    f1 = interp(src.f1)
    f2 = interp(src.f2)
    n = np.sqrt(f0**2 + np.abs(f1) ** 2 + np.abs(f2) ** 2)
    n = np.where(n > 1e-9, n, 1.0)
    f0, f1, f2 = f0 / n, f1 / n, f2 / n
    _impose(geom, f0, f1, f2)
    return MeridianField(geom, f0, f1, f2)


def _bilinear(zs, rs, arr, z_new, r_new):
    iz = np.clip(np.searchsorted(zs, z_new) - 1, 0, zs.size - 2)
    jr = np.clip(np.searchsorted(rs, r_new) - 1, 0, rs.size - 2)
    tz = (z_new - zs[iz]) / (zs[iz + 1] - zs[iz])
    tr = (r_new - rs[jr]) / (rs[jr + 1] - rs[jr])
    tz = np.clip(tz, 0.0, 1.0)[:, None]
    tr = np.clip(tr, 0.0, 1.0)[None, :]
    a = arr[np.ix_(iz, jr)]
    b = arr[np.ix_(iz + 1, jr)]
    c = arr[np.ix_(iz, jr + 1)]
    d = arr[np.ix_(iz + 1, jr + 1)]
    return (
        a * (1 - tz) * (1 - tr)
        + b * tz * (1 - tr)
        + c * (1 - tz) * tr
        + d * tz * tr
    )


def minimize_seeds(
    geom: CylinderGeometry,
    lam: float,
    seeds: Sequence[str],
    opts: SolveOptions | None = None,
) -> dict[str, MinResult3D]:
    """Minimize from each named seed; returns the results keyed by seed name.

    The seeds run level by level: every seed's descent on a twice-coarser
    mask first, with a third of the iteration budget (at least 500), then
    every seed's descent on `geom` from the transferred fields.  The seeds
    of one level share one Problem and so its LU factors; each level's
    Problem is dropped before the next level factors anything.  A result's
    iterations count the descents of both levels.
    """
    opts = opts or SolveOptions()
    coarse = build_geometry(geom.h, geom.ell, geom.rho, target_h=2.0 * geom.hr)
    fields = {name: seed_field(coarse, lam, name, opts) for name in seeds}
    pre = _minimize_level(
        coarse, lam, fields, replace(opts, max_iters=max(500, opts.max_iters // 3))
    )
    fields = {name: interp_field(res.field, geom) for name, res in pre.items()}
    results = _minimize_level(geom, lam, fields, opts)
    for name, res in results.items():
        res.seed_name = name
        res.iterations += pre[name].iterations
    return results


def _minimize_level(geom, lam, fields, opts):
    """One minimize_3d call per field, all on one shared Problem."""
    problem = _problem_for(geom, lam)
    return {name: minimize_3d(geom, lam, fld, opts, problem=problem)
            for name, fld in fields.items()}


def minimize_3d(
    geom: CylinderGeometry,
    lam: float,
    init: MeridianField,
    opts: SolveOptions | None = None,
    *,
    problem: descent.Problem | None = None,
) -> MinResult3D:
    """Projected gradient descent for the meridian energy from init; monotone.

    Named seeds enter through `minimize_seeds`, which runs the coarse level
    first.  Returns the field with its energy split, residual, axis trace
    singularity list, and torus/split classification.  The descent starts
    from a copy of init with the data layer and the axis rules written
    exactly (`_impose`), and keeps them.  `problem` lets the seeds of one
    cascade level share their Problem.
    """
    opts = opts or SolveOptions()
    init.validate()
    init = init.copy()
    _impose(geom, init.f0, init.f1, init.f2)
    if problem is None:
        problem = _problem_for(geom, lam)
    fields, iters, converged = descent.descend(
        problem, (init.f0.ravel(), init.f1.ravel(), init.f2.ravel()), opts, direction="cg"
    )
    nz, nr = geom.nz, geom.nr
    out = MeridianField(
        geom,
        fields[0].reshape(nz, nr),
        fields[1].reshape(nz, nr),
        fields[2].reshape(nz, nr),
    )
    total, dirichlet, potential = meridian_energy(out, lam)
    sing = detect_singularities(out)
    cls = "Split" if sing else "Torus"
    beta = out.beta()[geom.active]
    return MinResult3D(
        field=out,
        energy=total,
        dirichlet=dirichlet,
        potential=potential,
        residual=el_residual_3d(out, lam),
        iterations=iters,
        converged=converged,
        singularities=sing,
        classification=cls,
        beta_min=float(np.min(beta)),
        beta_max=float(np.max(beta)),
        seed_name="custom",
    )


# ---------------------------------------------------------------------------
# Axis trace, singularities, classification.
# ---------------------------------------------------------------------------


class UnresolvedAxisError(RuntimeError):
    """The axis trace is ambiguous over a span; refine the grid."""


#: |f0| above which an axis node is tagged with its sign.
AXIS_TAG = 0.9

#: Distance of beta from -1 within which a node is deeply biaxial.
RING_EPS = 1e-2

#: Most consecutive untagged axis nodes accepted without a sign change.
MAX_UNRESOLVED_SPAN = 3


def axis_trace(field: MeridianField):
    """(z values, f0 values, tags) along the axis; tags are +/-1 or 0."""
    g = field.geom
    act = g.active[:, 0]
    zs = g.z[act]
    vals = field.f0[act, 0]
    tags = np.where(np.abs(vals) > AXIS_TAG, np.sign(vals).astype(int), 0)
    return zs, vals, tags


def detect_singularities(field: MeridianField) -> list[SingularityRecord]:
    """Sign changes of the axis trace, positioned by linear interpolation.

    A run of more than MAX_UNRESOLVED_SPAN consecutive untagged nodes
    without a sign change raises UnresolvedAxisError.
    """
    zs, vals, tags = axis_trace(field)
    records: list[SingularityRecord] = []
    tagged = np.nonzero(tags != 0)[0]
    if tagged.size == 0:
        raise UnresolvedAxisError("no resolved axis values at all")
    # Untagged margins at the ends count as unresolved spans.
    if tagged[0] > MAX_UNRESOLVED_SPAN or (zs.size - 1 - tagged[-1]) > MAX_UNRESOLVED_SPAN:
        raise UnresolvedAxisError("unresolved axis region at the axis ends")
    for a, b in zip(tagged[:-1], tagged[1:]):
        gap = b - a - 1
        if tags[a] == tags[b]:
            if gap > MAX_UNRESOLVED_SPAN:
                raise UnresolvedAxisError(
                    f"unresolved axis region of {gap} nodes near z={zs[a]:.3f}"
                )
            continue
        # Genuine sign change: locate the zero crossing of f0 inside.
        seg_z = zs[a : b + 1]
        seg_v = vals[a : b + 1]
        pos = None
        for i in range(seg_v.size - 1):
            if seg_v[i] == 0.0:
                pos = float(seg_z[i])
                break
            if seg_v[i] * seg_v[i + 1] < 0:
                t = seg_v[i] / (seg_v[i] - seg_v[i + 1])
                pos = float(seg_z[i] + t * (seg_z[i + 1] - seg_z[i]))
                break
        if pos is None:
            pos = float(0.5 * (seg_z[0] + seg_z[-1]))
        records.append(SingularityRecord(pos, (int(tags[a]), int(tags[b]))))
    return records


def classify(field: MeridianField):
    """'Split' iff the axis trace has singularities, else 'Torus'.

    Torus results also report the deep-biaxiality ring: the connected
    off-axis region where beta <= -1 + RING_EPS, the largest such region
    when there are several (None when absent).
    """
    sing = detect_singularities(field)
    if sing:
        return "Split", sing, None
    g = field.geom
    beta = field.beta()
    deep = (beta <= -1.0 + RING_EPS) & g.interior
    deep[:, 0] = False
    if not np.any(deep):
        return "Torus", [], None
    # Imported here: only a torus with a deep region needs it, and at module
    # level it would add to every import of the package.
    from scipy.sparse.csgraph import connected_components

    # Components of the lattice edges whose two ends are deep, read on the
    # deep cells in raster order.  The largest wins; on a tie, the one that
    # starts first.
    a, b = g.edges[:, deep.ravel()[g.edges].all(axis=0)]
    n = g.nz * g.nr
    graph = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    labels = labels[deep.ravel()]
    ids, first, sizes = np.unique(labels, return_index=True, return_counts=True)
    k = np.lexsort((first, -sizes))[0]
    zi, ri = (ix[labels == ids[k]] for ix in np.nonzero(deep))
    ring = {
        "r_range": (float(g.r[ri.min()]), float(g.r[ri.max()])),
        "z_range": (float(g.z[zi.min()]), float(g.z[zi.max()])),
        "cells": int(sizes[k]),
    }
    return "Torus", [], ring


# ---------------------------------------------------------------------------
# Energy identities (Pohozaev-type diagnostics).
# ---------------------------------------------------------------------------


def _meridian_gradients(field: MeridianField):
    """(d/dr, d/dz) lists of (f0, f1, f2) by np.gradient, f0 taken complex.

    Second order inside and one-sided second order at the edges, so the
    last column of d/dr is the wall's (3 f_J - 4 f_{J-1} + f_{J-2}) / 2 h_r.
    """
    g = field.geom
    fs = (field.f0.astype(complex), field.f1, field.f2)
    return (
        [np.gradient(f, g.r, axis=1, edge_order=2) for f in fs],
        [np.gradient(f, g.z, axis=0, edge_order=2) for f in fs],
    )


def _wall_integrand(dr, ell: float) -> np.ndarray:
    """|grad_tan Q_b|^2 / 2 - |d_n Q|^2 / 2 per row on the lateral wall.

    |grad_tan Q_b|^2 = 3/ell^2 on the wall, and W(Q_b) = 0 there.
    """
    return 1.5 / ell**2 - 0.5 * sum(np.abs(d[:, -1]) ** 2 for d in dr)


def _slice_energy_2d(field: MeridianField, i: int, lam: float) -> float:
    """2D energy of the horizontal slice at row i over the disc D_ell."""
    g = field.geom
    r = g.r
    dr, _ = _meridian_gradients(field)
    dens = sum(np.abs(d[i]) ** 2 for d in dr)
    dens[1:] += (np.abs(field.f1[i, 1:]) ** 2 + 4.0 * np.abs(field.f2[i, 1:]) ** 2) / r[1:] ** 2
    dens += 2.0 * lam * potential_w_arrays(field.f0[i], field.f1[i], field.f2[i])
    return np.pi * float(np.sum(_trapezoid_weights(r) * r * dens))


def vertical_identity_residual(field: MeridianField, lam: float, t1: float, t2: float) -> float:
    """Relative mismatch of the vertical energy identity between two slices."""
    g = field.geom
    _, dz = _meridian_gradients(field)
    wr = _trapezoid_weights(g.r) * g.r

    def side(t):
        i = int(round((t + g.h) / g.hz))
        if not (0 < i < g.nz - 1 and np.all(g.active[i])):
            raise ValueError(f"slice at x3={t} is not an interior full row")
        e2d = _slice_energy_2d(field, i, lam)
        dz_term = 2.0 * np.pi * float(np.sum(wr * sum(np.abs(d[i]) ** 2 for d in dz)))
        return e2d, e2d - 0.5 * dz_term

    (e1, lhs), (e2, rhs) = side(t1), side(t2)
    return abs(lhs - rhs) / max(abs(e1), abs(e2), 1e-12)


def horizontal_identity_residual(field: MeridianField, lam: float, s: float) -> float:
    """Relative mismatch of the horizontal energy identity at height s."""
    g = field.geom
    if not (0 < s <= g.h - g.rho):
        raise ValueError("need 0 < s <= h - rho")
    i_lo = int(round((-s + g.h) / g.hz))
    i_hi = int(round((s + g.h) / g.hz))
    dr, dz = _meridian_gradients(field)
    rows = slice(i_lo, i_hi + 1)
    wz = np.full(i_hi + 1 - i_lo, g.hz)
    wz[0] = wz[-1] = g.hz / 2
    wall_term = 2.0 * np.pi * g.ell**2 * float(np.sum(wz * _wall_integrand(dr, g.ell)[rows]))

    # Volume term over the interior cylinder rows.
    wr = _trapezoid_weights(g.r) * g.r
    dens = sum(np.abs(d[rows]) ** 2 for d in dz)
    dens = dens + 2.0 * lam * potential_w_arrays(field.f0[rows], field.f1[rows], field.f2[rows])
    vol = 2.0 * np.pi * float(wz @ (dens @ wr))

    # Cap term: (x'.grad_x' Q) : dQ/dn over the two horizontal caps.
    cap = 0.0
    for i, sign in ((i_hi, +1.0), (i_lo, -1.0)):
        acc = sum((a[i] * np.conj(b[i])).real for a, b in zip(dr, dz))
        cap += sign * 2.0 * np.pi * float(np.sum(wr * g.r * acc))
    lhs = wall_term
    rhs = vol + cap
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)


def _energy_density(field: MeridianField, lam: float) -> np.ndarray:
    """Each node's share of `meridian_energy`, shape (nz, nr).

    Half of every edge term of the stiffness goes to each end of the edge;
    the k^2/r^2 term and lam * mass * W stay at the node.  With the edge
    weights diag(S) - S of the shared Laplacian, the components' share at
    node i is 1/2 sum_k Re(conj f_k,i (A_k f_k)_i) + 1/4 (q_i (S 1)_i - (S q)_i),
    q = sum_k |f_k|^2, so the shares are nonnegative (up to round-off) and
    sum to the energy.
    """
    g = field.geom
    d = g.disc
    F = descent.stack_fields(field.f0, field.f1, field.f2)
    af = descent.stiffness_products(_problem_for(field.geom, lam), F)
    q = np.sum(np.abs(F) ** 2, axis=0)
    dens = lam * d.mass * potential_w_arrays(*descent.components(F))
    dens += 0.5 * np.sum((F.conj() * af).real, axis=0)
    dens += 0.25 * (q * (d.lap @ np.ones(q.size)) - d.lap @ q)
    return dens.reshape(g.nz, g.nr)


def _in_ball(g: CylinderGeometry, radius: float) -> np.ndarray:
    return g.r[None, :] ** 2 + g.z[:, None] ** 2 < radius**2


def energy_in_cylinder(field: MeridianField, lam: float, r_max: float, z_max: float) -> float:
    """The share of `meridian_energy` held by the nodes with r < r_max and
    |z| < z_max."""
    g = field.geom
    mask = (g.r[None, :] < r_max) & (np.abs(g.z[:, None]) < z_max)
    return float(np.sum(_energy_density(field, lam)[mask]))


def radial_monotonicity(field: MeridianField, lam: float, radii) -> np.ndarray:
    """(1/r) E_lam(Q, Omega cap B_r) sampled at the given radii."""
    dens = _energy_density(field, lam)
    return np.array([float(np.sum(dens[_in_ball(field.geom, r)])) / r for r in radii])


def radial_identity_residual(field: MeridianField, lam: float, r1: float, r2: float) -> float:
    """Relative mismatch of the radial energy identity between r1 < r2.

    Valid for ell <= r1 < r2 <= h - rho on a cigar-type geometry.  The
    integrals over the radius use the trapezoid rule on 48 nodes.
    """
    g = field.geom
    if not (g.ell <= r1 < r2 <= g.h - g.rho):
        raise ValueError("need ell <= r1 < r2 <= h - rho")
    dens = _energy_density(field, lam)
    mass = g.disc.mass.reshape(g.nz, g.nr)
    rr = np.sqrt(g.r[None, :] ** 2 + g.z[:, None] ** 2)

    # Radial-derivative volume term.
    dr_, dz_ = _meridian_gradients(field)
    er = g.r[None, :] / np.where(rr > 0, rr, 1.0)
    ez = g.z[:, None] / np.where(rr > 0, rr, 1.0)
    rad2 = sum(np.abs(er * a + ez * b) ** 2 for a, b in zip(dr_, dz_))
    shell = (rr >= r1) & (rr < r2)
    mid_term = float(np.sum((rad2 / np.where(rr > 0, rr, 1.0) * mass)[shell]))

    # Potential double integral.
    wdens = 2.0 * lam * mass * potential_w_arrays(field.f0, field.f1, field.f2)
    radii = np.linspace(r1, r2, 48)
    wq = np.full(48, (r2 - r1) / 47)
    wq[0] = wq[-1] = wq[0] / 2
    pot_term = 0.0
    wall_term = 0.0
    wall = _wall_integrand(dr_, g.ell)
    for rad, wgt in zip(radii, wq):
        pot_term += wgt / rad**2 * float(np.sum(wdens[_in_ball(g, rad)]))
        # Lateral wall portion inside B_rad: |z| < sqrt(rad^2 - ell^2).
        zmax = math.sqrt(max(rad**2 - g.ell**2, 0.0))
        rows = np.abs(g.z) < zmax
        wall_term += wgt / rad**2 * 2.0 * np.pi * g.ell**2 * float(np.sum(wall[rows]) * g.hz)
    lhs = float(np.sum(dens[_in_ball(g, r1)])) / r1 + mid_term + pot_term
    rhs = float(np.sum(dens[_in_ball(g, r2)])) / r2 + wall_term
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)


def energy_identity_residuals(field: MeridianField, lam: float):
    """(radial, horizontal, vertical) relative residuals.

    With a = h - rho: the radial identity between r1 = 1.05 ell and
    r2 = 0.95 a (NaN unless a > ell), the horizontal one at s = 0.8 a, and
    the vertical one between the slices t1 = 0 and t2 = 0.98 a (NaN when
    either lies within 4 h_z of an axis singularity).  The vertical slab
    spans nearly all of the straight wall, where the field varies in x3; a
    shorter one can lie where a tall cigar's field is still x3-independent
    and read 0 trivially.  The identity fails in the rounded corners.
    """
    g = field.geom
    sing_z = [rec.position for rec in detect_singularities(field)]

    def clear_of_sing(t):
        return all(abs(t - zs) > 4 * g.hz for zs in sing_z)

    a = g.h - g.rho
    out = {}
    if a > g.ell:
        out["radial"] = radial_identity_residual(field, lam, g.ell * 1.05, a * 0.95)
    else:
        out["radial"] = math.nan
    out["horizontal"] = horizontal_identity_residual(field, lam, a * 0.8)
    t1, t2 = 0.0, a * 0.98
    if clear_of_sing(t1) and clear_of_sing(t2):
        out["vertical"] = vertical_identity_residual(field, lam, t1, t2)
    else:
        out["vertical"] = math.nan
    return out


# ---------------------------------------------------------------------------
# Synthetic tangent-map field and the instability quadratic form.
# ---------------------------------------------------------------------------


def tangent_map_field(geom: CylinderGeometry, z0: float) -> MeridianField:
    """Degree-zero tangent map centered at (0, 0, z0) in f-coordinates.

    f = ((z - z0)/s, r/s, 0) with s = |x - p|; the boundary layer keeps
    the same values (this is a diagnostic field, not an admissible one).
    """
    g = geom
    rr = g.r[None, :] * np.ones((g.nz, 1))
    zz = g.z[:, None] * np.ones((1, g.nr)) - z0
    s = np.sqrt(rr**2 + zz**2)
    if np.min(s) < 1e-9 * min(g.hr, g.hz):
        raise ValueError("center coincides with a grid node; shift z0")
    f0 = zz / s
    f1 = (rr / s).astype(complex)
    f2 = np.zeros_like(f1)
    f1[:, 0] = 0.0
    f0[:, 0] = np.sign(f0[:, 0])
    return MeridianField(g, f0, f1, f2)


@dataclass
class EtaSpec:
    """Radial test profile: s^-a (1-s)^b on [s_min, 1), linear below s_min.

    The linear continuation to 0 keeps the profile W^{1,2} and contributes
    negatively to the Hardy deficit, so small s_min is harmless.
    """

    a: float = 0.49
    b: float = 2.0
    s_min: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.a < 1.5 and self.b >= 1.0 and 0.0 < self.s_min < 0.5):
            raise ValueError("need 0 <= a < 1.5, b >= 1, 0 < s_min < 1/2")

    def _core(self, s):
        return s ** (-self.a) * (1.0 - s) ** self.b

    def value(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        mid = (s >= self.s_min) & (s < 1.0)
        scl = np.where(mid, s, 0.5)
        out = np.where(mid, self._core(scl), out)
        low = (s > 0.0) & (s < self.s_min)
        out = np.where(low, self._core(self.s_min) * s / self.s_min, out)
        return out

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        mid = (s >= self.s_min) & (s < 1.0)
        scl = np.where(mid, s, 0.5)
        dcore = self._core(scl) * (-self.a / scl - self.b / (1.0 - scl))
        out = np.where(mid, dcore, out)
        low = (s > 0.0) & (s < self.s_min)
        out = np.where(low, self._core(self.s_min) / self.s_min, out)
        return out

    def hardy_deficit(self) -> float:
        """4 pi int (eta'^2 - 2 eta^2 / s^2) s^2 ds; must be negative.

        Trapezoid rule on 20000 nodes of [1e-9, 1 - 1e-9].
        """
        s = np.linspace(1e-9, 1.0 - 1e-9, 20000)
        e = self.value(s)
        de = self.derivative(s)
        integrand = (de**2 - 2.0 * e**2 / s**2) * s**2
        return 4.0 * np.pi * float(np.trapezoid(integrand, s))


def instability_form(
    field: MeridianField,
    lam: float,
    p_z: float,
    r_ball: float,
    eta: EtaSpec | None = None,
    vbar: complex = 1.0 + 0.0j,
) -> float:
    """Second variation along Phi(x) = r^-1/2 eta(|x-p|/r) vbar, vbar in L2.

    Evaluates int |grad Phi_T|^2 - |grad Q|^2 |Phi_T|^2
    + lam D^2W(Q) Phi_T : Phi_T over the ball by meridian quadrature with
    an exact phi reduction (the integrand is a trigonometric polynomial,
    summed over 32 equispaced angles).
    Raises if eta fails the Hardy-deficit admissibility check or the ball
    pokes out of the domain.
    """
    eta = eta or EtaSpec()
    deficit = eta.hardy_deficit()
    if not deficit < 0.0:
        raise ValueError(f"test function not admissible: Hardy deficit {deficit:.4g} >= 0")
    g = field.geom
    vb = vbar / abs(vbar)
    rr = g.r[None, :] * np.ones((g.nz, 1))
    zz = g.z[:, None] * np.ones((1, g.nr))
    s_dist = np.sqrt(rr**2 + (zz - p_z) ** 2) / r_ball
    ball = s_dist < 1.0
    if np.any(ball & ~g.interior):
        raise ValueError("ball B_r(p) exceeds the domain; reduce r")
    supp = ball & (rr > 0)  # axis nodes carry zero volume weight
    if not np.any(supp):
        raise ValueError("support contains no interior nodes; increase r or refine")

    gval = r_ball ** (-0.5) * eta.value(s_dist)
    gprm = r_ball ** (-1.5) * eta.derivative(s_dist)
    with np.errstate(invalid="ignore", divide="ignore"):
        es_r = rr / (s_dist * r_ball)
        es_z = (zz - p_z) / (s_dist * r_ball)
    # grad g = eta' * unit radial direction about p (no phi component).
    ggrad_r = gprm * es_r
    ggrad_z = gprm * es_z

    # Meridian derivatives of f2 and |grad Q|^2.
    dfr, dfz = _meridian_gradients(field)
    gradsq = np.zeros((g.nz, g.nr))
    for k in range(3):
        gradsq += np.abs(dfr[k]) ** 2 + np.abs(dfz[k]) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        pen = (np.abs(field.f1) ** 2 + 4.0 * np.abs(field.f2) ** 2) / rr**2
    pen[:, 0] = 0.0
    gradsq += pen

    idx = np.nonzero(supp)
    f0v = field.f0[idx]
    f1v = field.f1[idx]
    f2v = field.f2[idx]
    d2r = dfr[2][idx]
    d2z = dfz[2][idx]
    rv = rr[idx]
    vol = 2.0 * np.pi / 32 * g.hr * g.hz * rv
    phis = np.arange(32) * 2.0 * np.pi / 32

    total = 0.0
    for phi in phis:
        ph1 = np.exp(1j * phi)
        ph2 = np.exp(2j * phi)
        w = (f2v * ph2 * np.conj(vb)).real
        dw_r = (d2r * ph2 * np.conj(vb)).real
        dw_z = (d2z * ph2 * np.conj(vb)).real
        dw_phi = (2j * f2v * ph2 * np.conj(vb)).real / rv
        gv = gval[idx]
        ggr = ggrad_r[idx]
        ggz = ggrad_z[idx]
        grad_g_sq = ggr**2 + ggz**2
        gg_dot_gw = ggr * dw_r + ggz * dw_z
        grad_w_sq = dw_r**2 + dw_z**2 + dw_phi**2
        phi_t_sq = gv**2 * (1.0 - w**2)
        term = (
            (1.0 - w**2) * grad_g_sq
            - 2.0 * gv * w * gg_dot_gw
            + gv**2 * grad_w_sq
            + gv**2 * w**2 * gradsq[idx]
        )
        term = term - gradsq[idx] * phi_t_sq
        if lam != 0.0:
            # Hessian of the 0-homogeneous potential along Phi_T.
            u5 = real5_arrays(f0v, f1v * ph1, f2v * ph2)
            v5 = np.zeros_like(u5)
            v5[:, 3] = vb.real
            v5[:, 4] = vb.imag
            pt5 = gv[:, None] * (v5 - w[:, None] * u5)
            term = term + lam * np.einsum("ia,iab,ib->i", pt5, hessian_w_homog(u5), pt5)
        total += float(np.sum(term * vol))
    return total

"""Radial profiles: equivariant disc configurations sampled on a 1D grid.

An equivariant map on the unit disc reduces to three radial profiles
(f0 real, f1, f2 complex) carrying phases (1, e^{i phi}, e^{2 i phi}).
Continuity forces f1(0) = f2(0) = 0 and f0(0) = +/-1; the sign at the
origin is the class tag (N for +1, S for -1).  The boundary node always
carries the lateral anchoring value (-1/2, 0, sqrt3/2).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .tensor_core import SQRT3, beta_arrays

#: Boundary value (f0, f1, f2) at r = 1 shared by every admissible profile;
#: real, so it can be written into real and complex fields alike.
BOUNDARY_F = (-0.5, 0.0, SQRT3 / 2.0)

NODE_NORM_TOL = 1e-9


@dataclass
class RadialProfile:
    """Samples (f0, f1, f2) on a strictly increasing grid over [0, 1]."""

    grid: np.ndarray
    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.f0 = np.asarray(self.f0, dtype=float)
        self.f1 = np.asarray(self.f1, dtype=complex)
        self.f2 = np.asarray(self.f2, dtype=complex)

    @property
    def n(self) -> int:
        return self.grid.size

    @property
    def class_tag(self) -> str:
        return "N" if self.f0[0] > 0 else "S"

    def node_norms(self) -> np.ndarray:
        return np.sqrt(self.f0**2 + np.abs(self.f1) ** 2 + np.abs(self.f2) ** 2)

    def beta(self) -> np.ndarray:
        return beta_arrays(self.f0, self.f1, self.f2)

    def boundary_mismatch(self) -> float:
        b0, b1, b2 = BOUNDARY_F
        return max(
            abs(self.f0[-1] - b0), abs(self.f1[-1] - b1), abs(self.f2[-1] - b2)
        )

    def validate(self, tol: float = NODE_NORM_TOL, boundary: bool = True) -> None:
        """Check the admissibility invariants; raise ValueError on failure."""
        r = self.grid
        if r[0] != 0.0 or abs(r[-1] - 1.0) > 1e-14 or np.any(np.diff(r) <= 0):
            raise ValueError("grid must increase strictly from 0 to 1")
        if np.max(np.abs(self.node_norms() - 1.0)) > tol:
            raise ValueError("node norms deviate from 1 beyond tolerance")
        if abs(self.f1[0]) > tol or abs(self.f2[0]) > tol:
            raise ValueError("f1(0) and f2(0) must vanish")
        if abs(abs(self.f0[0]) - 1.0) > tol:
            raise ValueError("f0(0) must be +1 or -1")
        if boundary and self.boundary_mismatch() > tol:
            raise ValueError("boundary node must carry the anchoring datum")

    def copy(self) -> "RadialProfile":
        return RadialProfile(
            self.grid.copy(), self.f0.copy(), self.f1.copy(), self.f2.copy()
        )

    def interp_to(self, grid: np.ndarray) -> "RadialProfile":
        """Linear interpolation onto a new grid, renormalized nodewise."""
        grid = np.asarray(grid, dtype=float)
        f0 = np.interp(grid, self.grid, self.f0)
        f1 = np.interp(grid, self.grid, self.f1.real) + 1j * np.interp(
            grid, self.grid, self.f1.imag
        )
        f2 = np.interp(grid, self.grid, self.f2.real) + 1j * np.interp(
            grid, self.grid, self.f2.imag
        )
        norms = np.sqrt(f0**2 + np.abs(f1) ** 2 + np.abs(f2) ** 2)
        out = RadialProfile(grid, f0 / norms, f1 / norms, f2 / norms)
        out.f0[-1], out.f1[-1], out.f2[-1] = BOUNDARY_F
        out.f1[0] = 0.0
        out.f2[0] = 0.0
        out.f0[0] = np.sign(out.f0[0]) if out.f0[0] != 0 else 1.0
        return out

    def max_norm_distance(self, other: "RadialProfile") -> float:
        """Max over nodes of the 5-vector distance (grids must agree)."""
        if self.n != other.n or np.max(np.abs(self.grid - other.grid)) > 1e-14:
            other = other.interp_to(self.grid)
        d = np.sqrt(
            (self.f0 - other.f0) ** 2
            + np.abs(self.f1 - other.f1) ** 2
            + np.abs(self.f2 - other.f2) ** 2
        )
        return float(np.max(d))

    def to_csv(self, path) -> None:
        cols = (self.grid, self.f0, self.f1.real, self.f1.imag, self.f2.real, self.f2.imag)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r", "f0", "Re f1", "Im f1", "Re f2", "Im f2"])
            w.writerows(zip(*(map(repr, c.tolist()) for c in cols)))

    @staticmethod
    def from_csv(path) -> "RadialProfile":
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        return RadialProfile(
            data[:, 0],
            data[:, 1],
            data[:, 2] + 1j * data[:, 3],
            data[:, 4] + 1j * data[:, 5],
        )


def uniform_grid(n: int) -> np.ndarray:
    if n < 5:
        raise ValueError("need at least 5 nodes")
    return np.linspace(0.0, 1.0, n)


def log_graded_grid(n: int, r_min: float = 1e-9) -> np.ndarray:
    """Grid clustered geometrically near r = 0, for fields with tiny cores."""
    if n < 5:
        raise ValueError("need at least 5 nodes")
    g = np.geomspace(r_min, 1.0, n - 1)
    return np.concatenate(([0.0], g))


def profile_from_map(u_of_z, grid: np.ndarray) -> RadialProfile:
    """Sample an equivariant map z -> (u0, u1, u2) along the real axis."""
    grid = np.asarray(grid, dtype=float)
    u0, u1, u2 = u_of_z(grid.astype(complex))
    return RadialProfile(
        grid,
        np.asarray(u0, dtype=float).copy(),
        np.asarray(u1, dtype=complex).copy(),
        np.asarray(u2, dtype=complex).copy(),
    )

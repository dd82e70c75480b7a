"""Numerical laboratory for the unit-norm equivariant Landau-de Gennes model.

Modules:
  tensor_core  -- admissible-tensor algebra in R + C + C coordinates
  closed_forms -- explicit harmonic maps, tangent maps, verifiers
  profiles     -- radial profile container, grids and the CSV dialect
  radial2d     -- constrained 2D minimizer, energy curves, escape threshold
  meridian3d   -- axisymmetric 3D solver, classification, diagnostics
  experiments  -- canned experiment drivers and result envelopes
  cli          -- `ldglab` command-line entry point
"""

from .profiles import RadialProfile, profile_from_map, uniform_grid
from .tensor_core import UVector, beta_tilde, det_q, grad_w_tangential, potential_w, q_to_u, u_to_q

__all__ = [
    "RadialProfile",
    "UVector",
    "beta_tilde",
    "det_q",
    "grad_w_tangential",
    "potential_w",
    "profile_from_map",
    "q_to_u",
    "u_to_q",
    "uniform_grid",
]

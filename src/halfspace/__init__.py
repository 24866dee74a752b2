"""Spectral laboratory for half-space elliptic boundary value problems.

The package discretizes a first-order Dirac-type boundary operator on a
periodic lattice, builds its holomorphic functional calculus through
eigendecompositions factored one connected block at a time (one small block
per Fourier mode for constant coefficients), and solves Neumann,
regularity, auxiliary Neumann, Dirichlet, and transmission problems through
boundary-reflection operator equations.  Independent closed-form oracles (constant-coefficient Fourier
symbols, explicit half-plane kernels, self-adjoint quadrature values) verify
every route, and batch campaigns measure Rellich identities, spectral
localization, quadratic estimates, and perturbation stability.
"""

from . import (algebra, assembly, bvp, calculus, diagnostics, grid, oracles,
               verify)
from .bvp import (BoundaryFrame, SolutionField, SolveReport,
                  WellPosednessError, solve_dirichlet, solve_neumann,
                  solve_neu_perp, solve_regularity, solve_transmission)
from .grid import (CoefficientField, Field, Torus, identity_coefficients,
                   vector_block_coefficients)

__all__ = [
    "algebra", "assembly", "bvp", "calculus", "diagnostics", "grid",
    "oracles", "verify",
    "BoundaryFrame", "SolutionField", "SolveReport", "WellPosednessError",
    "solve_dirichlet", "solve_neumann", "solve_neu_perp", "solve_regularity",
    "solve_transmission",
    "CoefficientField", "Field", "Torus", "identity_coefficients",
    "vector_block_coefficients",
]

__version__ = "1.0.0"

"""Spectral-element dual bases and fine-scale Green's functions.

Build algebraic dual bases on Gauss-Legendre-Lobatto grids, use them as
the functionals encoding L2 and H10 projections, assemble the fine-scale
Green's operator for the 1D diffusion kernel, reconstruct unresolved
scales for diffusion and advection-diffusion problems (directly and
iteratively), and extend the derivative-pairing construction to the unit
square through a truncated eigenfunction kernel.
"""

__version__ = "0.1.0"

from .basis1d import BasisFamily, Field, Mesh1D, SpaceKind, basis_family, field_eval
from .cases import advdiff_const_case, sin2pix_case, sin2pixy_case
from .dualspace import DualSet, assemble_mass
from .finescale import (
    FineScaleOperator,
    SourceTerm,
    build_fine_scale_operator,
    fine_scale_eval,
    reconstruct_fine_scales,
)
from .kernels import GreensKernel1D, advdiff_green, poisson2d_green, poisson_green
from .poisson2d import (
    DualFunctionals2D,
    Mesh2D,
    build_dual_functionals_2d,
    build_series_operator_2d,
    project_2d,
    reconstruct_fine_scales_2d,
)
from .projection import (
    DualFunctionals,
    ProjectionFlavor,
    build_dual_functionals,
    h10_project_from_source,
    project,
)
from .quadrature import QuadratureRule, gauss_legendre_rule, gll_rule
from .vms_advdiff import AdvDiffProblem, IterationState, galerkin_solve, iterate

__all__ = [
    "AdvDiffProblem",
    "BasisFamily",
    "DualFunctionals",
    "DualFunctionals2D",
    "DualSet",
    "Field",
    "FineScaleOperator",
    "GreensKernel1D",
    "IterationState",
    "Mesh1D",
    "Mesh2D",
    "ProjectionFlavor",
    "QuadratureRule",
    "SourceTerm",
    "SpaceKind",
    "advdiff_const_case",
    "advdiff_green",
    "assemble_mass",
    "basis_family",
    "build_dual_functionals",
    "build_dual_functionals_2d",
    "build_fine_scale_operator",
    "build_series_operator_2d",
    "field_eval",
    "fine_scale_eval",
    "galerkin_solve",
    "gauss_legendre_rule",
    "gll_rule",
    "h10_project_from_source",
    "iterate",
    "poisson2d_green",
    "poisson_green",
    "project",
    "project_2d",
    "reconstruct_fine_scales",
    "reconstruct_fine_scales_2d",
    "sin2pix_case",
    "sin2pixy_case",
]

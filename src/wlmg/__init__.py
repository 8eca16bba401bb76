"""Multigrid solvers for finite-difference weighted Laplacians.

The library splits the variable-coefficient operator into a structured
part (tau / circulant / DCT-III algebra, chosen by the boundary condition)
plus a sparse correction, and runs two-grid or V-cycle iterations whose
projectors and smoothers are tuned to that splitting.
"""

from .symbols import CosineSymbol, TensorSymbol, fold, fold_pairsum
from .structured import AlgebraKind, StructuredOperator
from .discretize import (AssembledProblem, BoundaryCondition, DiffusionCoefficient,
                         GridSpec, assemble, build_rhs, make_coefficient, split)
from .transfer import Projector, galerkin_sparse, galerkin_structured
from .smoothers import cg_steps, richardson
from .mgm import (LevelHierarchy, SolveReport, SolverConfig, build_hierarchy,
                  solve, vcycle)
from .verify import (TheoryReport, approximation_constant, smoothing_constant,
                     spectral_equivalence, tgm_contraction, theory_report)

__all__ = [
    "CosineSymbol", "TensorSymbol", "fold", "fold_pairsum",
    "AlgebraKind", "StructuredOperator",
    "AssembledProblem", "BoundaryCondition", "DiffusionCoefficient",
    "GridSpec", "assemble", "build_rhs", "make_coefficient", "split",
    "Projector", "galerkin_sparse", "galerkin_structured",
    "cg_steps", "richardson",
    "LevelHierarchy", "SolveReport", "SolverConfig",
    "build_hierarchy", "solve", "vcycle",
    "TheoryReport", "approximation_constant", "smoothing_constant",
    "spectral_equivalence", "tgm_contraction", "theory_report",
]

__version__ = "0.1.0"

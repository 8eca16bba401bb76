"""The structured layer: cosine symbols and trigonometric matrix algebras.

The banded matrices that arise from the constant-coefficient Laplacian are
diagonalized by fixed trigonometric bases; everything about them is encoded
in a short cosine series ("symbol").  Coarsening never forms matrices: the
coarse symbol comes from folding the fine one.
"""

import numpy as np

from wlmg import AlgebraKind, CosineSymbol, StructuredOperator, TensorSymbol, fold
from wlmg.structured import algebra_grid, dia_from_bands

laplace = CosineSymbol([2.0, -1.0])       # 2 - 2 cos(t)
smooth = CosineSymbol([2.0, 1.0])         # 2 + 2 cos(t), the projector factor

print("f(0) =", laplace.eval(0.0), "   f(pi) =", laplace.eval(np.pi))

# The same symbol generates three different matrices, one per boundary rule.
for kind in AlgebraKind:
    op = StructuredOperator(kind, (6,), TensorSymbol.from_1d(laplace))
    M = dia_from_bands(op.bands(), op.n_total).toarray()
    lam = np.sort(np.linalg.eigvalsh(M))
    grid_vals = np.sort(laplace.eval(algebra_grid(kind, 6)))
    print(f"\n{kind.value}: eigenvalues match symbol samples to "
          f"{np.abs(lam - grid_vals).max():.1e}")
    print(M.round(12))

# Galerkin coarsening in symbol space: fold(p^2 f) with the Dirichlet
# normalization reproduces the Laplacian symbol exactly, at every level.
coarse = fold(smooth * (smooth * laplace)).scaled(0.5)
print("\ncoarse symbol coefficients:", coarse.coeffs, "(self-similar)")

# Circulant operators built from this symbol are singular (f(0) = 0); the
# rank-one shift by the first nonzero frequency restores definiteness.
ring = StructuredOperator(AlgebraKind.CIRCULANT, (8,),
                          TensorSymbol.from_1d(laplace)).strang_correct()
print("\nStrang shift gamma =", ring.rank_one)
dense_ring = dia_from_bands(ring.bands(), ring.n_total).toarray() + ring.rank_one / ring.n_total
print("smallest eigenvalue after correction:", np.linalg.eigvalsh(dense_ring).min())

"""L2 projections onto the nodal spaces: the oracle for the OSGS unknowns.

xi is the projection of grad p onto the vector space and eta that of
div u onto the scalar one; neither space carries boundary conditions.
"""
import numpy as np
import scipy.sparse.linalg as spla

from maxwell2d.fem import scalar_kernels


def l2_project(dofmap, target, coeffs):
    """target "grad": scalar coefficients (n,) to xi (2n,); target "div":
    vector coefficients (2n,) to eta (n,)."""
    kernels = scalar_kernels(dofmap)
    solve = spla.factorized(kernels["mass"].tocsc())
    gx, gy = kernels["gx"], kernels["gy"]
    if target == "grad":
        return np.concatenate([solve(gx @ coeffs), solve(gy @ coeffs)])
    n = dofmap.n_scalar
    return solve(gx @ coeffs[:n] + gy @ coeffs[n:])

"""The discrete source operator T_h = A^-1 M, the paper's route to
convergence.

The discrete spectrum is correct exactly when T_h converges to the source
operator T uniformly (Babuska and Osborn (1991), "Eigenvalue problems";
Boffi (2010), "Finite element approximation of eigenvalue problems", Acta
Numerica 19).  These tests solve the reduced source problem A x = T'M F for
nodal data F on the square, with criterion 1's ell 0.1, c_u 0.01 and c_p
0.6, and take the L2 error of u_h with the scalar mass against two data
sets:

- u11 = (-cos x sin y, sin x cos y), divergence-free, an eigenfunction of
  eigenvalue 2, so T f = f / 2;
- grad phi with phi = sin x sin y, solved by p = phi and u = 0.

OSGS converges on both.  AG's tau_p (grad p, grad q) term is not consistent
where p is nonzero, and tau_p does not shrink with h, so its error on the
gradient data stalls at tau_p ||grad phi|| = 0.006 pi / sqrt 2.  That is the
operator-level source of AG's pressure band near 1 / (c_p ell^2).
Powell-Sabin rates are still pre-asymptotic at these N (1.6 to 1.8), so no
Powell-Sabin pencil is checked.
"""
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from maxwell2d import StudyConfig, build_ag, build_constraints, build_mesh, \
    build_osgs
from maxwell2d.study import stabilization_length

N_LIST = (5, 10, 20)


def source_error(formulation, mesh, degree, N, data):
    """||u_h - T f|| in L2 for the nodal data f of one data set."""
    config = StudyConfig(mesh=mesh, formulation=formulation, degree=degree,
                         N_list=(N,))
    grid = build_mesh(config, N)
    build = build_ag if formulation == "ag" else build_osgs
    system = build(grid, degree, config.stabilization,
                   stabilization_length(config, grid))
    T = build_constraints(system.dofmap).reduction_matrix()
    dofmap = system.dofmap
    x, y = dofmap.coords.T
    sign = -1.0 if data == "div-free" else 1.0
    f = np.concatenate([sign * np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])
    exact = f / 2 if data == "div-free" else np.zeros_like(f)
    F = np.zeros(system.n)
    F[:f.size] = f           # u1 and u2 lead the dof numbering
    u = T @ spla.spsolve((T.T @ system.A @ T).tocsc(), T.T @ (system.M @ F))
    e = u[:f.size] - exact
    return math.sqrt(e @ (system.M[:f.size, :f.size] @ e))


def rates(errors):
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


# (formulation, mesh, degree, data) -> bounds on the rates between N = 5,
# 10 and 20.  Measured: 1.98-2.14 on P1, 3.56 and 3.44 on P2's
# divergence-free data, past P2's interpolation order 3, and 2.01 and 2.14
# on its gradient data
CONVERGING = {
    ("osgs", "cc", 1, "div-free"): (1.8, 2.2),
    ("osgs", "cc", 1, "gradient"): (1.8, 2.2),
    ("osgs", "uniform", 2, "div-free"): (3.0, 3.8),
    ("osgs", "uniform", 2, "gradient"): (1.8, 2.3),
    ("ag", "cc", 1, "div-free"): (1.8, 2.2),
}


@pytest.mark.parametrize("case", CONVERGING,
                         ids=["-".join(map(str, c)) for c in CONVERGING])
def test_source_operator_converges(case):
    low, high = CONVERGING[case]
    errors = [source_error(*case[:3], N, case[3]) for N in N_LIST]
    assert all(low <= r <= high for r in rates(errors)), errors


def test_ag_source_operator_stalls_on_gradients():
    # measured 0.01321, 0.01330 and 0.01332 against 0.013329
    plateau = StudyConfig().stabilization.tau_p * math.pi / math.sqrt(2)
    errors = [source_error("ag", "cc", 1, N, "gradient") for N in N_LIST]
    assert_allclose(errors, plateau, rtol=0.02)
    assert max(map(abs, rates(errors))) < 0.05

"""Generalized eigensolvers for the reduced systems.

Shift-invert Lanczos is the workhorse, one path for SG, AG and OSGS.  The
assembly builds every pencil symmetric: A is symmetric (indefinite for the
AG and OSGS saddle-point operators) and M symmetric positive semidefinite,
and congruence reduction T' A T, T' M T keeps both so.

A - sigma M is factored once per shift by SuperLU in symmetric mode
(diagonal pivots, one ordering for rows and columns).  The ordering is
computed once per solve, on nodes rather than dofs: every field uses the
same continuous Lagrangian interpolation, so all dofs of a nodal point
couple to the same neighbours and the dof graph is the node graph with each
vertex replaced by a small clique.  Two nodes couple when they share an
element, so the graph is read from the mesh, not from A or M.  Minimum
degree on it, expanded with each node's retained dofs kept consecutive,
orders that structure on P1 Powell-Sabin and P2 meshes alike (crack
OSGS/PS N=32: 5.3M stored entries against 19.6M under COLAMD on the dofs),
and every shift retry reuses it.  ARPACK's symmetric Lanczos computes
theta = 1/(lambda - sigma), requesting the largest algebraic values so the
search walks the spectrum upward from the shift.  That ordering skips the
large machine-zero cluster of the standard Galerkin operator
(theta = -1/sigma < 0), so only genuinely nonzero eigenvalues come back
from SG solves.

ARPACK tests convergence in the M-norm, blind to the p, xi and eta rows
where M vanishes.  Where M has such rows, one block solve with the factor
purifies the Ritz vectors, x <- (lambda - sigma) (A - sigma M)^-1 M x,
keeping lambda (Nour-Omid, Parlett, Ericsson and Jensen (1987), "How to
implement the spectral transformation"); unpurified, the pressure band
above 1/(c_p ell^2) fails the certificate on square OSGS/P2 CC N=4.  SG's
M has none: there the step only amplifies kernel components.

This is the one solver path at every size.  Lanczos needs a finite spectrum
larger than its window of max(4 nev, nev + 20) vectors; the finite spectrum
has at most rank M members, the reduced dofs with a nonzero M row, and
fewer where A is singular on the M-null rows (OSGS P2).  Where rank M is no
larger than the window, a dense QZ solve stands in, keeping only the values
at or above the shift, so neither path reports a value below it.  Dense QZ
is otherwise the oracle (method "dense"), returning every finite real pair,
zero modes included.  QZ is read in homogeneous form, dividing out only the
finite values.  It may split a double value into a near-real pair a +- ib
with vectors x +- iy; x and y span its eigenspace, so each half keeps one
and no multiplicity is lost.

The factor is the largest object of a solve: only the reduced A and M, the
node ordering and the factor live through Lanczos and purification.  The
permuted P (A - sigma M) P' dies inside each factorization call, and the
factor before the certificate.

Grimes, Lewis and Simon (1994), "A shifted block Lanczos algorithm for
solving sparse symmetric generalized eigenproblems".
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .system import EvpSystem

RESIDUAL_TOL = 1e-8
MAX_RESTARTS = 300     # ARPACK restarts before a solve fails
ARPACK_TOL = 1e-10     # ARPACK's convergence tolerance
DENSE_LIMIT = 3000     # largest pencil handed to dense QZ
GUARD_PAIRS = 8        # Lanczos converges nev + 8 pairs, reports them all
ZERO_TOL = 1e-6        # filter_zeros drops |lambda| below this
DIAG_PIVOT_THRESH = 0.0
METHODS = ("shift-invert", "dense")
# dense path only: a QZ value alpha/beta is infinite where |alpha| >=
# FINITE_CUTOFF |beta|, and real where |Im| <= IMAG_TOL (1 + |Re|)
IMAG_TOL = 1e-8
FINITE_CUTOFF = 1e12


class EigenSolveError(Exception):
    pass


def is_integer(value) -> bool:
    """A Python or NumPy integer, and no bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one generalized eigensolve."""

    nev: int = 10
    shift: float = 0.5
    method: str = "shift-invert"  # or "dense", the oracle
    seed: int = 1234              # ARPACK's start vector

    def __post_init__(self):
        if not is_integer(self.nev) or self.nev < 1:
            raise ValueError("nev must be at least 1 and an integer")
        if self.method not in METHODS:
            raise ValueError(f"unknown solver method {self.method!r}; "
                             f"choose from {', '.join(METHODS)}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be nonnegative and an integer")
        if not np.isfinite(self.shift):
            raise ValueError("shift must be finite")


@dataclass(frozen=True)
class Spectrum:
    """Ascending real eigenvalues with reduced-coordinate eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    n_zero_filtered: int = 0
    n_complex_rejected: int = 0
    lu_nnz: int = 0                # fill of the shift-invert factor
    n_op_applications: int = 0     # solves with that factor
    shift: float = 0.0             # the shift the factor used
    shift_retries: int = 0         # shifts abandoned before that one


def _certified(system: EvpSystem, values, vectors, **record) -> Spectrum:
    """Both paths' finish: the pairs ascending, certified against A."""
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    R = system.A @ vectors - (system.M @ vectors) * values
    res = np.linalg.norm(R, axis=0) / np.linalg.norm(vectors, axis=0)
    failed = np.flatnonzero(res > RESIDUAL_TOL * (1.0 + np.abs(values)))
    if failed.size:
        k = int(failed[0])
        raise EigenSolveError(
            f"eigenpair {k} (lambda={values[k]:.6g}) fails the residual "
            f"certificate: {res[k]:.3e}")
    return Spectrum(values=values, vectors=vectors, residuals=res, **record)


def _solve_dense(system: EvpSystem, config: SolverConfig) -> Spectrum:
    if system.n > DENSE_LIMIT:
        raise EigenSolveError(
            f"dense solve capped at {DENSE_LIMIT} dofs, got {system.n}")
    (alpha, beta), v = la.eig(system.A.toarray(), system.M.toarray(),
                              homogeneous_eigvals=True)
    finite = np.abs(alpha) < FINITE_CUTOFF * np.abs(beta)
    w, v = alpha[finite] / beta[finite], v[:, finite]
    real = np.abs(w.imag) <= IMAG_TOL * (1.0 + np.abs(w.real))
    # a near-real pair a +- ib keeps x for a + ib and -y for a - ib
    vectors = np.where(w.imag < 0, v.imag, v.real)[:, real]
    return _certified(system, w[real].real,
                      vectors / np.linalg.norm(vectors, axis=0),
                      n_complex_rejected=int(np.count_nonzero(~real)),
                      shift=config.shift)


def node_ordering(system: EvpSystem) -> np.ndarray:
    """Fill-reducing order of the reduced dofs, blocked by nodal point.

    Reduced dof i sits on node retained[i] % n_scalar.  The node graph is
    the pattern of B B' + I: B is the node-element incidence of
    element_nodes, with the rows of nodes that keep no dof left empty, and
    no entry of A or M is read.  SuperLU's minimum degree on A'+A orders
    that SPD surrogate; perm_c[i] is node i's new position.  The dofs are
    then listed node by node: perm[k] is the reduced dof placed at
    position k."""
    dofs = system.constraints.retained_dofs() \
        if system.constraints is not None else np.arange(system.n)
    n_nodes = system.dofmap.n_scalar
    node = dofs % n_nodes
    elements = system.dofmap.element_nodes
    live = np.isin(elements, node)   # the incidences of nodes with a dof
    B = sp.csr_matrix((np.ones(np.count_nonzero(live)),
                       (elements[live], np.nonzero(live)[0])),
                      shape=(n_nodes, len(elements)))
    surrogate = (B @ B.T + sp.identity(n_nodes)).tocsc()
    position = spla.splu(surrogate, permc_spec="MMD_AT_PLUS_A").perm_c
    return np.argsort(position[node], kind="stable")


def lanczos_window(nev: int) -> int:
    """Lanczos basis size (ARPACK's ncv) for nev reported values."""
    return max(4 * nev, nev + 20)


def mass_rank(system: EvpSystem) -> int:
    """Reduced dofs with a nonzero M row: an upper bound on the size of the
    finite spectrum, reached unless A is singular on the M-null rows."""
    return int(np.count_nonzero(abs(system.M).sum(axis=1)))


def _lanczos(system: EvpSystem, perm: np.ndarray, sigma: float, k: int,
             ncv: int, v0: np.ndarray, purify: bool):
    """Factor P (A - sigma M) P', run ARPACK on it and purify if asked.
    The permuted matrix dies inside splu's call and the factor on return."""
    n = system.n
    lu = spla.splu((system.A - sigma * system.M)[perm][:, perm].tocsc(),
                   permc_spec="NATURAL", diag_pivot_thresh=DIAG_PIVOT_THRESH,
                   options=dict(SymmetricMode=True))
    n_ops = 0

    def solve(b):
        nonlocal n_ops
        n_ops += b.size // n   # one per column
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm])
        return x

    w, v = spla.eigsh(system.A, k=k, M=system.M, sigma=sigma, which="LA",
                      v0=v0, ncv=ncv, maxiter=MAX_RESTARTS, tol=ARPACK_TOL,
                      OPinv=spla.LinearOperator((n, n), matvec=solve,
                                                dtype=float))
    if np.min(np.abs(w - sigma)) < 1e-12:
        raise RuntimeError("shift collides with a converged eigenvalue")
    if purify:
        v = (w - sigma) * solve(system.M @ v)
    return w, v, int(lu.nnz), n_ops


def _solve_shift_invert(system: EvpSystem, config: SolverConfig,
                        purify: bool) -> Spectrum:
    # rank M > the window, so the window fits in n and k fits in the window
    k = config.nev + GUARD_PAIRS
    ncv = lanczos_window(config.nev)
    v0 = np.random.default_rng(config.seed).standard_normal(system.n)
    perm = node_ordering(system)
    sigma = config.shift
    last = None
    for retries in range(3):
        try:
            w, v, lu_nnz, n_ops = _lanczos(system, perm, sigma, k, ncv, v0,
                                          purify)
            break
        except spla.ArpackError as exc:
            # a RuntimeError too, but no shift collision: non-convergence
            # within MAX_RESTARTS or any other ARPACK failure is final
            raise EigenSolveError(f"ARPACK failed: {exc}") from exc
        except RuntimeError as exc:  # splu's, or _lanczos's collision
            last = str(exc)  # not the exception: its traceback holds frames
            # perturb downward: the LA ordering only reports values above
            # sigma, so the colliding eigenvalue must stay in range
            sigma -= max(1e-3 * abs(sigma), 1e-6)
    else:
        raise EigenSolveError(
            f"factorization failed near sigma={config.shift}: {last}")
    return _certified(system, w, v, lu_nnz=lu_nnz, n_op_applications=n_ops,
                      shift=sigma, shift_retries=retries)


def solve_generalized(system: EvpSystem, config: SolverConfig) -> Spectrum:
    """Solve the reduced pencil for the eigenvalues above the shift.

    The default method is shift-invert Lanczos at every size; it returns
    nev plus a guard of GUARD_PAIRS values, ascending from the shift.  A
    pencil whose finite spectrum (rank M) fits in the Lanczos window is
    solved by dense QZ instead, keeping the values at or above the shift.
    method="dense" is the oracle: every finite real pair, below the shift
    too, for at most DENSE_LIMIT dofs.  Every returned pair is certified
    against ||A x - lambda M x|| <= 1e-8 (1 + |lambda|) ||x||.
    """
    if config.method == "dense":
        return _solve_dense(system, config)
    if (rank := mass_rank(system)) <= lanczos_window(config.nev):
        # too few finite eigenvalues to fill the Lanczos window
        spectrum = _solve_dense(system, config)
        return _keep(spectrum, spectrum.values >= config.shift)
    return _solve_shift_invert(system, config, purify=rank < system.n)


def _keep(spectrum: Spectrum, mask: np.ndarray, **changes) -> Spectrum:
    """The spectrum restricted to the pairs where ``mask`` holds."""
    return replace(spectrum, values=spectrum.values[mask],
                   vectors=spectrum.vectors[:, mask],
                   residuals=spectrum.residuals[mask], **changes)


def filter_zeros(spectrum: Spectrum) -> Spectrum:
    """Drop the near-zero modes (|lambda| < ZERO_TOL), counting them."""
    keep = np.abs(spectrum.values) >= ZERO_TOL
    dropped = int(np.count_nonzero(~keep))
    return _keep(spectrum, keep,
                 n_zero_filtered=spectrum.n_zero_filtered + dropped)

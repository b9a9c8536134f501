"""Generalized eigensolvers for the reduced systems.

Shift-invert Lanczos is the workhorse, one path for SG, AG and OSGS.  The
assembly builds every pencil symmetric: A is symmetric (indefinite for the
AG and OSGS saddle-point operators) and M symmetric positive semidefinite,
and congruence reduction T' A T, T' M T keeps both so.

A - sigma M is factored once per shift by SuperLU in symmetric mode
(diagonal pivots, one ordering for rows and columns).  The ordering is
computed once per solve, on nodes rather than dofs: every field uses the
same continuous Lagrangian interpolation, so all dofs of a nodal point
couple to the same neighbours and the dof graph is the node graph with
each vertex replaced by a small clique.  Minimum degree on the node graph,
expanded with each node's retained dofs kept consecutive, orders that
structure on P1 Powell-Sabin and P2 meshes alike (crack OSGS/PS N=32: 5.3M
stored entries against 19.6M under COLAMD on the dofs), and every shift
retry reuses it.  ARPACK's
symmetric Lanczos computes theta = 1/(lambda - sigma), requesting the
largest algebraic values so the search walks the spectrum upward from the
shift.  That ordering skips the large machine-zero cluster of the
standard Galerkin operator (theta = -1/sigma < 0), so only genuinely
nonzero eigenvalues come back from SG solves.  Every pair is certified
against A.

This is the one solver path at every size.  Lanczos needs a finite
spectrum larger than its window of max(4 nev, nev + 20) vectors; the
finite spectrum has at most rank M members, the reduced dofs with a
nonzero M row (M vanishes on the p, xi and eta rows).  It has fewer where
A is singular on the M-null rows, as on OSGS P2 (square uniform N=2: 29
finite values, rank M 30).  Where rank M is no larger than the window,
the pencil is small and a dense QZ solve stands in, keeping
only the values at or above the shift, so neither path reports a value
below it.  Dense QZ is otherwise the explicit oracle (method "dense"), which
returns every finite real pair, zero modes included.

The factor is the largest object of a solve, so it is built next to one
copy of the pencil only: the reduced A and M, the node ordering and the
factor stay alive through the Lanczos iteration, nothing else.  The
permuted P (A - sigma M) P' is formed for each shift and dies inside the
factorization call.  The factor is released before the residual
certificate allocates its n x k blocks.

Grimes, Lewis and Simon (1994), "A shifted block Lanczos algorithm for
solving sparse symmetric generalized eigenproblems".
"""
from __future__ import annotations

import warnings
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
# dense path only: QZ values this large are infinite, and a pair is real
# when its imaginary part is within IMAG_TOL (1 + |lambda|)
IMAG_TOL = 1e-8
FINITE_CUTOFF = 1e12


class EigenSolveError(Exception):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one generalized eigensolve."""

    nev: int = 10
    shift: float = 0.5
    method: str = "shift-invert"  # or "dense", the oracle
    seed: int = 1234              # ARPACK's start vector

    def __post_init__(self):
        if self.nev < 1:
            raise ValueError("nev must be at least 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown solver method {self.method!r}; "
                             f"choose from {', '.join(METHODS)}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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


def _realign(vec: np.ndarray) -> np.ndarray:
    """Rotate a (near-)real complex vector onto the real axis (dense path
    only)."""
    j = int(np.argmax(np.abs(vec)))
    phase = vec[j] / abs(vec[j])
    out = np.real(vec / phase)
    nrm = np.linalg.norm(out)
    return out / nrm if nrm > 0 else out


def _certify(system: EvpSystem, values, vectors) -> np.ndarray:
    R = system.A @ vectors - (system.M @ vectors) * values
    res = np.linalg.norm(R, axis=0) / np.linalg.norm(vectors, axis=0)
    failed = np.flatnonzero(res > RESIDUAL_TOL * (1.0 + np.abs(values)))
    if failed.size:
        k = int(failed[0])
        raise EigenSolveError(
            f"eigenpair {k} (lambda={values[k]:.6g}) fails the residual "
            f"certificate: {res[k]:.3e}")
    return res


def _select_real(w, v):
    """The finite real pairs of a QZ solve, ascending, and the number of
    finite complex ones rejected (dense path only)."""
    finite = np.isfinite(w) & (np.abs(w) < FINITE_CUTOFF)
    real = np.abs(w.imag) <= IMAG_TOL * (1.0 + np.abs(w.real))
    keep = finite & real
    n_rejected = int(np.count_nonzero(finite & ~real))
    w_keep = w[keep].real
    order = np.argsort(w_keep)
    vectors = np.column_stack([_realign(v[:, i]) for i in np.where(keep)[0]]) \
        if np.any(keep) else np.zeros((v.shape[0], 0))
    return w_keep[order], vectors[:, order], n_rejected


def _solve_dense(system: EvpSystem, config: SolverConfig) -> Spectrum:
    if system.n > DENSE_LIMIT:
        raise EigenSolveError(
            f"dense solve capped at {DENSE_LIMIT} dofs, got {system.n}")
    with warnings.catch_warnings(), np.errstate(divide="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", la.LinAlgWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        w, v = la.eig(system.A.toarray(), system.M.toarray())
    values, vectors, n_rejected = _select_real(w, v)
    residuals = _certify(system, values, vectors)
    return Spectrum(values=values, vectors=vectors, residuals=residuals,
                    n_complex_rejected=n_rejected, shift=config.shift)


def node_ordering(system: EvpSystem) -> np.ndarray:
    """Fill-reducing order of the reduced dofs, blocked by nodal point.

    Reduced dof i sits on node retained[i] % n_scalar.  The nonzero pattern
    of A and M (structurally symmetric) folded onto the nodes, as integer
    keys node_i * n_nodes + node_j, is ordered by SuperLU's minimum degree
    on A'+A, run on the node graph Laplacian plus I (diagonally dominant,
    so the surrogate factor itself needs no pivoting); perm_c[i] is node
    i's new position.  The dofs are then listed node by node: perm[k] is
    the reduced dof placed at position k."""
    dofs = system.constraints.retained_dofs() \
        if system.constraints is not None else np.arange(system.n)
    n_nodes = system.dofmap.n_scalar
    node = dofs % n_nodes
    keys = [np.arange(n_nodes) * (n_nodes + 1)]   # diagonals: Laplacian + I
    for X in (system.A, system.M):
        nonzero = X.data != 0
        rows = np.repeat(node, np.diff(X.indptr))[nonzero]
        keys.append(rows * n_nodes + node[X.indices[nonzero]])
    # sort and drop repeats: np.unique takes several times longer here
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    # symmetric pattern: the row-major keys are also the CSC layout
    indptr = np.searchsorted(keys, np.arange(n_nodes + 1) * n_nodes)
    col, row = np.divmod(keys, n_nodes)
    data = np.where(row == col, np.diff(indptr)[col], -1.0)
    surrogate = sp.csc_matrix((data, row, indptr), shape=(n_nodes, n_nodes))
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
             ncv: int, v0: np.ndarray):
    """Factor P (A - sigma M) P' and run ARPACK on it.  The permuted
    matrix dies inside splu's call and the factor when this returns."""
    n = system.n
    lu = spla.splu((system.A - sigma * system.M)[perm][:, perm].tocsc(),
                   permc_spec="NATURAL", diag_pivot_thresh=DIAG_PIVOT_THRESH,
                   options=dict(SymmetricMode=True))
    n_ops = 0

    def solve(b):
        nonlocal n_ops
        n_ops += 1
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm])
        return x

    w, v = spla.eigsh(system.A, k=k, M=system.M, sigma=sigma, which="LA",
                      v0=v0, ncv=ncv, maxiter=MAX_RESTARTS, tol=ARPACK_TOL,
                      OPinv=spla.LinearOperator((n, n), matvec=solve,
                                                dtype=float))
    return w, v, int(lu.nnz), n_ops


def _solve_shift_invert(system: EvpSystem, config: SolverConfig) -> Spectrum:
    # rank M > the window, so the window fits in n and k fits in the window
    k = config.nev + GUARD_PAIRS
    ncv = lanczos_window(config.nev)
    rng = np.random.default_rng(config.seed)
    v0 = rng.standard_normal(system.n)
    perm = node_ordering(system)
    sigma = config.shift
    last = None
    for retries in range(3):
        try:
            w, v, lu_nnz, n_ops = _lanczos(system, perm, sigma, k, ncv, v0)
            if np.min(np.abs(w - sigma)) < 1e-12:
                raise RuntimeError("shift collides with a converged eigenvalue")
            break
        except spla.ArpackError as exc:
            # a RuntimeError too, but no shift collision: non-convergence
            # within MAX_RESTARTS or any other ARPACK failure is final
            raise EigenSolveError(f"ARPACK failed: {exc}") from exc
        except RuntimeError as exc:  # splu's, or the collision above
            last = str(exc)  # not the exception: its traceback holds frames
            # perturb downward: the LA ordering only reports values above
            # sigma, so the colliding eigenvalue must stay in range
            sigma -= max(1e-3 * abs(sigma), 1e-6)
    else:
        raise EigenSolveError(
            f"factorization failed near sigma={config.shift}: {last}")
    order = np.argsort(w)
    values, vectors = w[order], v[:, order]
    residuals = _certify(system, values, vectors)
    return Spectrum(values=values, vectors=vectors, residuals=residuals,
                    lu_nnz=lu_nnz, n_op_applications=n_ops,
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
    if mass_rank(system) <= lanczos_window(config.nev):
        # too few finite eigenvalues to fill the Lanczos window
        spectrum = _solve_dense(system, config)
        return _keep(spectrum, spectrum.values >= config.shift)
    return _solve_shift_invert(system, config)


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

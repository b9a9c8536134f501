"""The generalized eigensolver for the reduced systems.

Shift-invert Lanczos is the one eigensolver, for SG, AG and OSGS; dense QZ
is only the tests' oracle.  The assembly builds every pencil symmetric: A is
symmetric (indefinite for the AG and OSGS saddle-point operators) and M
symmetric positive semidefinite, and congruence reduction keeps both so.

A - sigma M is factored once per shift by SuperLU in symmetric mode
(diagonal pivots, one ordering for rows and columns).  The ordering is
computed once per case on nodes, not dofs: every field uses the same
continuous Lagrangian interpolation, so the dof graph is the node graph
with each vertex replaced by a small clique, and two nodes couple when they
share an element: the graph is read from the mesh, not from A or M.
Minimum degree on it, each node's retained dofs kept consecutive, orders P1
Powell-Sabin and P2 meshes alike (crack OSGS/PS N=32: 5.2M stored entries
against 18.7M under COLAMD on the dofs).  ARPACK's symmetric Lanczos
computes theta = 1/(lambda - sigma), requesting the largest algebraic
values so the search walks the spectrum upward from the shift and skips the
machine-zero cluster of the standard Galerkin operator (theta = -1/sigma).

The finite spectrum lives on the support of M, the reduced dofs with a
nonzero M row: the u rows, where the p, xi and eta rows of AG and OSGS
carry none.  ARPACK runs on that support only, with the factor's solve read
there as its operator and M's support block, definite, as its M, so it
converges in a true norm on u.  Where M has null rows, one solve with the
factor per vector lifts the Ritz vectors to every dof, x = (lambda - sigma)
(A - sigma M)^-1 M x, keeping lambda (Ericsson and Ruhe (1980), "The
spectral transformation Lanczos method"; Nour-Omid, Parlett, Ericsson and
Jensen (1987), "How to implement the spectral transformation").  SG's
support is every dof, so nothing is lifted.  Run on every dof, with M
semidefinite, a window near rank M breaks down with ARPACK error -9999.

The finite spectrum has at most rank M members, fewer where A is singular
on the M-null rows (OSGS P2), so the Lanczos window of max(4 nev, nev + 20)
vectors stops at rank M, and ARPACK converges at most one pair fewer than
its window.  Such a window also takes pairs below the shift; they are
dropped before the certificate, so no value below the shift is reported.

A mirror-symmetric cavity is solved by sectors.  The mesh mirror, read as
a signed permutation S of the reduced dofs (``system.mirror_permutation``),
commutes with A and M, so the pencil splits exactly into a symmetric and an
antisymmetric block and its spectrum is the union of theirs (Bossavit
(1986), "Symmetry, groups, and boundary value problems", CMAME 56).
``mirror_sectors``, the one builder of a ShiftedPencil, spans each sector
by (e_i +- s e_j) / sqrt 2 over the mirror pairs plus the fixed dofs and
orders them on one folded node graph; with no mirror, the cracked
square's, it reads the identity and its one sector is the whole pencil.  A
sector's factor holds under half the whole pencil's entries (L-shape
OSGS/P2 CC N=10: 1,049,694 and 1,037,876 against 2,237,174), and run_case
solves each for its share of the pairs, ceil(nev / 2) plus the full guard
(square SG/PS N=25, nev 17: 136 factor solves against 186 when each
converges nev + 8).  Each list is complete from the shift to its top
value, so ``merge_sectors`` keeps the pairs up to the lower top, lifted by
Q; where they fall short of nev + GUARD_PAIRS and a full-nev solve can add
some, run_case solves every sector again for all of nev.

The factor is the largest object of a solve.  Beside it live only the
sectors' M and K = P (A - sigma M) P' in node order, the CSC matrix splu
reads without a copy: run_case hands those shifted pencils over and drops
the reduced A before the first factorization.  A shift retry adds a
multiple of P M P' to K, and the certificate reads A x - lambda M x as
K x - (lambda - sigma) M x, permuted.  M's support block shares M's
arrays, the lift solves one column at a time into one n x k array, and
the factor dies before the certificate.

Each factorization starts on a trimmed heap.  glibc's dynamic mmap
threshold puts the temporaries of assembly, reduction and the shifted
pencil on the heap, and it keeps their pages resident once freed;
malloc_trim(0), called just before splu, hands them back to the OS (a no-op
where the C library has no malloc_trim).  At crack OSGS/PS N=32 (x86-64
Linux, glibc 2.36) the resident set on entry to splu falls from 104.4 to
75.6 MiB.  The next case faults the pages back in, a few percent of the
wall time where the factor does not set the peak.

SuperLU factors with single-column panels: its panel workspace is about
n x panel doubles plus 2n x panel ints, and the update order it changes
moves no value by more than round-off (lu_nnz is the same).  At crack
OSGS/PS N=32 the high-water mark after splu falls from 141.6-141.7 to
130.8-130.9 MiB.  The process peak then sits in eigsh, whose Lanczos basis
and dseupd's output take 8.5-10 MiB above the factor, so it falls only
from 143.4-143.5 to 139.4-140.8 MiB.

Grimes, Lewis and Simon (1994), "A shifted block Lanczos algorithm for
solving sparse symmetric generalized eigenproblems".
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

if TYPE_CHECKING:  # system imports is_real from here
    from .system import EvpSystem

RESIDUAL_TOL = 1e-8
MAX_RESTARTS = 300     # ARPACK restarts before a solve fails
ARPACK_TOL = 1e-10     # ARPACK's convergence tolerance
GUARD_PAIRS = 8        # a solve converges nev + 8 pairs, reports them all;
                       # a mirror sector's nev is its share, the guard whole
ZERO_TOL = 1e-6        # zero: filter_zeros' cut and SG's least shift
DIAG_PIVOT_THRESH = 0.0


try:  # glibc's malloc_trim; macOS, musl and Windows have none
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
    _MALLOC_TRIM.restype = ctypes.c_int
except (OSError, AttributeError, TypeError):
    _MALLOC_TRIM = None


def _release_freed_heap() -> None:
    """Hand the heap pages that glibc keeps after free back to the OS."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class EigenSolveError(Exception):
    pass


def is_integer(value) -> bool:
    """A Python or NumPy integer, and no bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A Python or NumPy real, no bool, and finite."""
    return is_integer(value) or (isinstance(value, (float, np.floating))
                                 and math.isfinite(value))


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one generalized eigensolve."""

    method: ClassVar[str] = "shift-invert"  # the one method, no setting
    nev: int = 10
    shift: float = 0.5
    seed: int = 1234              # ARPACK's start vector

    def __post_init__(self):
        if not is_integer(self.nev) or self.nev < 1:
            raise ValueError("nev must be at least 1 and an integer")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError("seed must be nonnegative and an integer")
        if not is_real(self.shift):
            raise ValueError("shift must be finite and a real")


@dataclass(frozen=True)
class Spectrum:
    """Ascending real eigenvalues with reduced-coordinate eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    n_zero_filtered: int = 0
    # 0 by construction, eigsh's pairs being real; perfbench reads it, and
    # the tests' dense QZ oracle counts the complex pairs it drops here
    n_complex_rejected: int = 0
    # merged over a case's sectors, one without a mirror, by merge_sectors:
    # the largest sector's fill, as the factors never coexist; solves and
    # retries summed; the lowest shift.  Where run_case re-solves a short
    # share merge for all of nev, they also count the discarded share solves
    lu_nnz: int = 0                # fill of the shift-invert factor
    n_op_applications: int = 0     # factor solves, one per column, lift too
    shift: float = 0.0             # the shift the factor used
    shift_retries: int = 0         # shifts abandoned before that one


def _certified(K, M, sigma, values, vectors, perm=slice(None),
               **record) -> Spectrum:
    """The solve's finish, and the tests' dense oracle's: the pairs
    ascending, certified against A - sigma M.  K is P (A - sigma M) P',
    perm[i] the dof at K's position i, so A x - lambda M x reads
    K x[perm] - (lambda - sigma) (M x)[perm]; the oracle passes A, M, 0."""
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    R = K @ vectors[perm] - (M @ vectors)[perm] * (values - sigma)
    res = np.linalg.norm(R, axis=0) / np.linalg.norm(vectors, axis=0)
    failed = np.flatnonzero(res > RESIDUAL_TOL * (1.0 + np.abs(values)))
    if failed.size:
        k = int(failed[0])
        raise EigenSolveError(
            f"eigenpair {k} (lambda={values[k]:.6g}) fails the residual "
            f"certificate: {res[k]:.3e}")
    return Spectrum(values=values, vectors=vectors, residuals=res, **record)


def node_ordering(elements: np.ndarray, *columns: np.ndarray) -> list:
    """Fill-reducing orders of pencil columns, blocked by nodal point, one
    per pencil; every pencil shares one node order.

    columns[s][i] is the node of column i of pencil s, and elements the
    nodes of each element (on a mirror sector, both folded onto orbit
    representatives).  The node graph is the pattern of B B' + I: B is the
    node-element incidence of elements, with the rows of nodes that carry
    no column left empty, and no entry of A or M is read.  SuperLU's
    minimum degree on A'+A orders that SPD surrogate; perm_c[a] is node
    a's new position.  Each pencil's columns are then listed node by node:
    perm[k] is the column placed at position k."""
    n_nodes = int(elements.max()) + 1
    live = np.isin(elements, np.concatenate(columns))
    B = sp.csr_matrix((np.ones(np.count_nonzero(live)),
                       (elements[live], np.nonzero(live)[0])),
                      shape=(n_nodes, len(elements)))
    surrogate = (B @ B.T + sp.identity(n_nodes)).tocsc()
    position = spla.splu(surrogate, permc_spec="MMD_AT_PLUS_A").perm_c
    return [np.argsort(position[node], kind="stable") for node in columns]


def lanczos_window(nev: int) -> int:
    """Lanczos basis size (ARPACK's ncv) for nev reported values, before
    the cap at rank M."""
    return max(4 * nev, nev + 20)


def lanczos_size(nev: int, rank: int) -> tuple:
    """ARPACK's window ncv and pair count k for nev reported values on a
    pencil of rank M: the window stops at rank M, and k one short of it."""
    ncv = min(lanczos_window(nev), rank)
    return ncv, min(nev + GUARD_PAIRS, ncv - 1)


def mass_support(M: sp.spmatrix) -> np.ndarray:
    """The nonzero rows of M, ascending.  Their count, rank M, bounds the
    size of the finite spectrum, reached unless A is singular on the M-null
    rows."""
    return np.flatnonzero(abs(M).sum(axis=1))


def _mass_block(M: sp.csr_matrix, support: np.ndarray) -> sp.csr_matrix:
    """M on its support.  The u rows lead the reduced numbering, so there
    the block is M's leading rows and shares M's arrays; any other support,
    of a pencil assembled elsewhere, takes a copy."""
    r = support.size
    end = M.indptr[r]
    if support[-1] == r - 1 and np.all(M.indices[:end] < r):
        return sp.csr_matrix((M.data[:end], M.indices[:end],
                              M.indptr[:r + 1]), shape=(r, r))
    return M[support][:, support]


@dataclass
class ShiftedPencil:
    """All a shift-invert solve holds of a reduced system: K = P (A - sigma
    M) P' in CSC, perm[i] being the dof at K's position i, and M with its
    support.  A shift retry moves sigma down and K with it."""

    K: sp.csc_matrix
    M: sp.csr_matrix
    perm: np.ndarray
    support: np.ndarray
    sigma: float


def mirror_sectors(system: EvpSystem, sigma: float, mirror) -> list:
    """The pencil at shift sigma split by a mirror, one ``(Q, pencil)`` per
    nonempty sector: the orthonormal basis Q of the sector and the
    ShiftedPencil of Q' A Q and Q' M Q.

    mirror is ``system.mirror_permutation``'s ``(image, sign)``; None is
    the identity, every dof fixed of sign +1, whose one sector is the whole
    pencil.  Over each pair of dofs i < j = image[i] the symmetric sector
    takes (e_i + sign[i] e_j) / sqrt 2 and the antisymmetric one (e_i -
    sign[i] e_j) / sqrt 2; a fixed dof e_i goes to the sector of its sign.
    A sector's columns follow their leading dof i, so its u columns lead as
    M's u rows do.  One node order, on the node graph folded onto orbit
    representatives, orders every sector."""
    image, sign = mirror if mirror is not None else (
        np.arange(system.n), np.ones(system.n))
    dofs = system.constraints.retained_dofs() \
        if system.constraints is not None else np.arange(system.n)
    node = dofs % system.dofmap.n_scalar   # of each reduced dof
    fold = np.arange(system.dofmap.n_scalar)   # node -> orbit representative
    fold[node] = np.minimum(node, node[image])
    lead = np.flatnonzero(image >= np.arange(system.n))
    partner, paired = image[lead], image[lead] != lead
    bases, heads = [], []
    for parity in (1.0, -1.0):
        cols = paired | (sign[lead] == parity)
        if not cols.any():
            continue
        head, pairs = lead[cols], np.flatnonzero(paired[cols])
        rows = np.concatenate([head, partner[cols][pairs]])
        vals = np.concatenate([np.where(paired[cols], np.sqrt(0.5), 1.0),
                               parity * sign[head[pairs]] * np.sqrt(0.5)])
        bases.append(sp.csc_matrix(
            (vals, (rows, np.concatenate([np.arange(head.size), pairs]))),
            shape=(system.n, head.size)))
        heads.append(fold[node[head]])
    perms = node_ordering(fold[system.dofmap.element_nodes], *heads)
    sectors = []
    for Q, perm in zip(bases, perms):
        Qp = Q[:, perm]
        M = (Q.T @ system.M @ Q).tocsr()
        K = Qp.T @ system.A @ Qp - sigma * M[perm][:, perm]
        sectors.append((Q, ShiftedPencil(K.tocsc(), M, perm,
                                         mass_support(M), sigma)))
    return sectors


def _lanczos(pencil: ShiftedPencil, k: int, ncv: int, v0: np.ndarray):
    """Factor K, run ARPACK on the support of M and lift.

    ARPACK's operator is (A - sigma M)^-1 read on the support and its M
    that of the support, definite there.  Where M has null rows, a solve
    x = (lambda - sigma) (A - sigma M)^-1 M x lifts each Ritz vector to
    every dof, column by column.  The factor dies on return."""
    n, r, sigma = pencil.K.shape[0], pencil.support.size, pencil.sigma
    _release_freed_heap()   # the factor starts on a heap with none kept
    lu = spla.splu(pencil.K, permc_spec="NATURAL",
                   diag_pivot_thresh=DIAG_PIVOT_THRESH, panel_size=1,
                   options=dict(SymmetricMode=True))
    position = np.empty(n, dtype=np.intp)  # of each dof in the factor
    position[pencil.perm] = np.arange(n)
    slots = position[pencil.support]
    n_ops = 0

    def solve(b):
        """(A - sigma M)^-1 b for b on the support, in the factor's order."""
        nonlocal n_ops
        n_ops += b.size // r   # one per column
        y = np.zeros((n,) + b.shape[1:])
        y[slots] = b
        return lu.solve(y)

    op = spla.LinearOperator((r, r), matvec=lambda b: solve(b)[slots],
                             dtype=float)
    M = _mass_block(pencil.M, pencil.support)
    # in mode 3 eigsh reads its A only for the shape and dtype
    w, v = spla.eigsh(op, k=k, M=M, sigma=sigma, which="LA",
                      v0=v0[pencil.support], ncv=ncv, maxiter=MAX_RESTARTS,
                      tol=ARPACK_TOL, OPinv=op)
    if np.min(np.abs(w - sigma)) < 1e-12:
        raise RuntimeError("shift collides with a converged eigenvalue")
    if r < n:
        x = np.empty((n, w.size))
        for j in range(w.size):
            x[:, j] = solve(M @ v[:, j])[position] * (w[j] - sigma)
        v = x
    return w, v, int(lu.nnz), n_ops


def solve_generalized(pencil: ShiftedPencil | EvpSystem,
                      config: SolverConfig) -> Spectrum:
    """Shift-invert Lanczos for the eigenvalues above the shift.

    It returns nev plus a guard of GUARD_PAIRS values, ascending from the
    shift.  Its window stops at rank M, the size bound of the finite
    spectrum, so a small pencil gives at most rank M - 1 values, and rank M
    below 2 is an EigenSolveError.  Every returned pair is certified against
    ||A x - lambda M x|| <= 1e-8 (1 + |lambda|) ||x||, read from A - sigma M.
    An EvpSystem is first made its one sector at config.shift.
    """
    if not isinstance(pencil, ShiftedPencil):
        (_, pencil), = mirror_sectors(pencil, config.shift, None)
    sigma = pencil.sigma   # a retry moves the pencil's
    rank = pencil.support.size
    if rank < 2:
        raise EigenSolveError(
            f"rank M is {rank}: too few finite eigenvalues for Lanczos")
    ncv, k = lanczos_size(config.nev, rank)
    v0 = np.random.default_rng(config.seed).standard_normal(pencil.K.shape[0])
    last = None
    for retries in range(3):
        try:
            w, v, lu_nnz, n_ops = _lanczos(pencil, k, ncv, v0)
            break
        except spla.ArpackError as exc:
            # a RuntimeError too, but no shift collision: non-convergence
            # within MAX_RESTARTS or any other ARPACK failure is final
            raise EigenSolveError(f"ARPACK failed: {exc}") from exc
        except RuntimeError as exc:  # splu's, or _lanczos's collision
            last = str(exc)  # not the exception: its traceback holds frames
        # perturb downward, the failed factor gone: LA reports only values
        # above sigma, so the colliding eigenvalue must stay in range
        step = max(1e-3 * abs(pencil.sigma), 1e-6)
        pencil.K = pencil.K + step * pencil.M[pencil.perm][:, pencil.perm]
        pencil.sigma -= step
    else:
        raise EigenSolveError(
            f"factorization failed near sigma={sigma}: {last}")
    below = w < pencil.sigma
    if below.any():
        # a window that reaches the bottom of a small spectrum also takes
        # pairs below the shift, from its far end: they go uncertified
        w, v = w[~below], v[:, ~below]
    return _certified(pencil.K, pencil.M, pencil.sigma, w, v, perm=pencil.perm,
                      lu_nnz=lu_nnz, n_op_applications=n_ops,
                      shift=pencil.sigma, shift_retries=retries)


def merge_sectors(parts: list, count: int) -> Spectrum:
    """One spectrum from the ``(Q, spectrum)`` of each mirror sector.

    Each sector's list is complete from its shift to its top value, so the
    merged one is complete up to the lowest top; the first count pairs up
    to there are kept, ascending, and their vectors lifted by Q.  The
    record reads the largest factor (they never coexist), the solves and
    the shift retries summed over the sectors, and the lowest shift."""
    top = min(s.values[-1] if s.values.size else -np.inf for _, s in parts)
    kept = [(Q, s, s.values <= top) for Q, s in parts]
    values = np.concatenate([s.values[k] for _, s, k in kept])
    order = np.argsort(values, kind="stable")[:count]
    vectors = np.hstack([Q @ s.vectors[:, k] for Q, s, k in kept])
    spectra = [s for _, s in parts]
    return Spectrum(
        values=values[order], vectors=vectors[:, order],
        residuals=np.concatenate([s.residuals[k] for _, s, k in kept])[order],
        lu_nnz=max(s.lu_nnz for s in spectra),
        n_op_applications=sum(s.n_op_applications for s in spectra),
        shift=min(s.shift for s in spectra),
        shift_retries=sum(s.shift_retries for s in spectra))


def filter_zeros(spectrum: Spectrum) -> Spectrum:
    """Drop the near-zero modes (|lambda| < ZERO_TOL), counting them."""
    keep = np.abs(spectrum.values) >= ZERO_TOL
    dropped = int(np.count_nonzero(~keep))
    return replace(spectrum, values=spectrum.values[keep],
                   vectors=spectrum.vectors[:, keep],
                   residuals=spectrum.residuals[keep],
                   n_zero_filtered=spectrum.n_zero_filtered + dropped)

"""Dense QZ, the oracle the tests hold the shift-invert solver against.

It returns every finite real pair, zero modes and values below any shift
included.  QZ is read in homogeneous form, dividing out only the finite
values.  It may split a double value into a near-real pair a +- ib with
vectors x +- iy; x and y span its eigenspace, so each half keeps one and no
multiplicity is lost.  A pencil whose A and M share a null vector is
singular: A x = lambda M x for every lambda there, so QZ returns arbitrary
pairs that pass the certificate.  Such a pair has both alpha and beta at
round-off size against the norms of A and M, and the oracle refuses it.
"""
import numpy as np
import scipy.linalg as la

from maxwell2d import EigenSolveError, Spectrum, eig

DENSE_LIMIT = 3000     # largest pencil handed to dense QZ
# a QZ value alpha/beta is infinite where |alpha| >= FINITE_CUTOFF |beta|,
# and real where |Im| <= IMAG_TOL (1 + |Re|); the pencil is singular where
# |alpha| < SINGULAR_TOL ||A||_1 and |beta| < SINGULAR_TOL ||M||_1 for some
# pair
IMAG_TOL = 1e-8
FINITE_CUTOFF = 1e12
SINGULAR_TOL = 1e-10


def solve_dense(system) -> Spectrum:
    """Every finite real pair of the pencil, certified by the solver's own
    finish; an EigenSolveError above DENSE_LIMIT dofs or on a singular
    pencil.  n_complex_rejected counts the pairs dropped as complex."""
    if system.n > DENSE_LIMIT:
        raise EigenSolveError(
            f"dense solve capped at {DENSE_LIMIT} dofs, got {system.n}")
    A, M = system.A.toarray(), system.M.toarray()
    (alpha, beta), v = la.eig(A, M, homogeneous_eigvals=True)
    if np.any((np.abs(alpha) < SINGULAR_TOL * la.norm(A, 1))
              & (np.abs(beta) < SINGULAR_TOL * la.norm(M, 1))):
        raise EigenSolveError("singular pencil: A and M share a null vector")
    finite = np.abs(alpha) < FINITE_CUTOFF * np.abs(beta)
    w, v = alpha[finite] / beta[finite], v[:, finite]
    real = np.abs(w.imag) <= IMAG_TOL * (1.0 + np.abs(w.real))
    # a near-real pair a +- ib keeps x for a + ib and -y for a - ib
    vectors = np.where(w.imag < 0, v.imag, v.real)[:, real]
    return eig._certified(system.A, system.M, 0.0, w[real].real,
                          vectors / np.linalg.norm(vectors, axis=0),
                          n_complex_rejected=int(np.count_nonzero(~real)))

"""Positive-definiteness kernel.

Deterministic linear algebra the sampler and the model checks use:
Cholesky-based PD tests, the effective correlation matrix A o R, and the
row-wise multivariate normal log-density in precision form. The
closed-form edge kernel (the interval of values one correlation entry can
take while the matrix stays positive definite, and the determinant ratio
of moving it, both from the matrix's inverse by the matrix determinant
lemma) is evaluated inline in ``sampler.update_edge``; its reference
form is ``entry_kernel``/``det_ratio`` in ``tests/oracles.py``.

All functions are pure and safe to call concurrently.
"""

import numpy as np

from .errors import InputError

# A matrix counts as PD iff every Cholesky pivot exceeds this. Strictly
# positive so that near-singular proposals are treated as invalid.
PD_PIVOT_TOL = 1e-10
# Largest |m_ij - m_ji| of a matrix that counts as symmetric.
SYMMETRY_TOL = 1e-12


def _check_square_symmetric(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    if not np.allclose(m, m.T, rtol=0.0, atol=SYMMETRY_TOL):
        raise InputError(f"{name} is not symmetric")
    return m


def is_positive_definite(m):
    """True iff ``m`` is symmetric positive definite.

    Implemented as an attempted Cholesky factorization with a strict
    positivity tolerance on the pivots, so matrices that are singular to
    working precision are rejected.
    """
    m = _check_square_symmetric(m)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    piv = np.diagonal(chol)
    return bool(np.all(piv * piv > PD_PIVOT_TOL))


def hadamard_correlation(a, r):
    """Effective correlation matrix A o R with the diagonal pinned to 1."""
    c = np.asarray(a, dtype=float) * np.asarray(r, dtype=float)
    np.fill_diagonal(c, 1.0)
    return c


def mvn_logpdf_rows(y, mu, omega, log_det):
    """Multivariate normal log-density in precision form, one value per
    row of an (n, p) matrix of observations:

        -(p/2) log(2 pi) + (1/2) log_det - (1/2) (y - mu)' omega (y - mu).

    ``log_det`` is the log-determinant of ``omega`` (passed in because
    callers cache it).
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    mu = np.asarray(mu, dtype=float)
    p = omega.shape[0]
    if y.shape[1] != p or mu.shape != (p,):
        raise InputError("dimension mismatch in mvn_logpdf_rows")
    resid = y - mu
    quad = np.einsum("ni,ij,nj->n", resid, omega, resid)
    return -0.5 * p * np.log(2.0 * np.pi) + 0.5 * log_det - 0.5 * quad

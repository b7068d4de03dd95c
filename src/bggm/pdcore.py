"""Positive-definiteness kernel.

Deterministic linear algebra the sampler and the model checks use:
Cholesky-based PD tests, the closed-form edge kernel (from the inverse of
a correlation matrix, the interval of values one entry can take while the
matrix stays positive definite and the determinant ratio of moving it,
both by the matrix determinant lemma), the effective correlation matrix
A o R, and the row-wise multivariate normal log-density in precision
form.

All functions are pure and safe to call concurrently.
"""

import math

import numpy as np

from .errors import InputError

# A matrix counts as PD iff every Cholesky pivot exceeds this. Strictly
# positive so that near-singular proposals are treated as invalid.
PD_PIVOT_TOL = 1e-10


def _check_square_symmetric(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
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


def entry_kernel(w, i, j, x0):
    """Closed-form effect of changing one entry pair of a PD correlation
    matrix C, given its inverse ``w`` = C^-1.

    Moving c[i, j] (and c[j, i]) from its current value ``x0`` by delta
    multiplies det C by (matrix determinant lemma)

        f(delta) = (1 + delta w_ij)^2 - delta^2 w_ii w_jj
                 = (1 - delta up_gap) (1 + delta down_gap),

    with up_gap = sqrt(w_ii w_jj) - w_ij and down_gap = sqrt(w_ii w_jj)
    + w_ij, a downward quadratic with f(0) = 1. Its roots x0 + 1 / up_gap
    and x0 - 1 / down_gap bound the values that keep C positive definite.

    Reads the three entries of ``w`` once and returns ``(lower, upper,
    up_gap, down_gap)``: that interval clipped to [-1, 1], and the two
    factors ``det_ratio`` takes.
    """
    w_ij = w.item(i, j)
    root = math.sqrt(w.item(i, i) * w.item(j, j))
    up_gap = root - w_ij
    down_gap = root + w_ij
    lower = max(x0 - 1.0 / down_gap, -1.0)
    upper = min(x0 + 1.0 / up_gap, 1.0)
    return lower, upper, up_gap, down_gap


def det_ratio(up_gap, down_gap, delta):
    """f(delta) of ``entry_kernel``: the factor by which moving the entry
    by ``delta`` multiplies det C. Not positive outside the interval."""
    return (1.0 - delta * up_gap) * (1.0 + delta * down_gap)


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

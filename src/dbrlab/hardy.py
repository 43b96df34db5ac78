"""Complex polynomial arithmetic in the Hardy space H^2.

Polynomials are plain 1-D numpy arrays of complex Taylor coefficients,
index k holding the coefficient of z^k. The empty array is the zero
polynomial; `normalize` keeps the last coefficient nonzero.
"""

import numpy as np

# Trailing coefficients at or below this magnitude are stripped by
# normalize(). Only exact zeros are expected; the tiny threshold avoids
# reclassifying small genuine leading terms.
ZERO_THRESHOLD = 1e-300


def as_poly(f):
    """Coerce to a 1-D complex coefficient array."""
    f = np.atleast_1d(np.asarray(f, dtype=complex))
    if f.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    return f


def normalize(f):
    """Strip trailing zero coefficients; the zero polynomial becomes empty."""
    f = as_poly(f)
    nz = np.nonzero(np.abs(f) > ZERO_THRESHOLD)[0]
    if len(nz) == 0:
        return f[:0]
    return f[: nz[-1] + 1]


def monomial(n):
    """The polynomial z^n."""
    f = np.zeros(n + 1, dtype=complex)
    f[n] = 1.0
    return f


def h2_inner(f, g):
    """Hardy-space inner product sum_k f_k conj(g_k)."""
    f = as_poly(f)
    g = as_poly(g)
    n = min(len(f), len(g))
    if n == 0:
        return 0j
    # vdot conjugates its first argument
    return complex(np.vdot(g[:n], f[:n]))


def difference_quotient(f, zeta):
    """Exact synthetic division of f by (z - zeta).

    Returns q with f(z) = f(zeta) + (z - zeta) q(z); deg q = deg f - 1.
    Valid for zeta anywhere in the closed disk, boundary included.
    """
    f = normalize(f)
    d = len(f) - 1
    if d < 1:
        return f[:0]
    q = np.empty(d, dtype=complex)
    q[d - 1] = f[d]
    for k in range(d - 2, -1, -1):
        q[k] = f[k + 1] + zeta * q[k + 1]
    return q


def moebius_taylor(c, gamma, beta, n):
    """First n Taylor coefficients of (c + gamma*z)/(1 - beta*z).

    coeff_0 = c and coeff_k = beta^(k-1) (c*beta + gamma) for k >= 1.
    Requires |beta| < 1 so the coefficients are square summable.
    """
    if abs(beta) >= 1:
        raise ValueError(f"|beta| = {abs(beta)} must be < 1")
    n = int(n)
    if n < 1:
        raise ValueError("need at least one coefficient")
    coeffs = np.empty(n, dtype=complex)
    coeffs[0] = c
    if n > 1:
        coeffs[1:] = (c * beta + gamma) * np.asarray(beta, dtype=complex) ** np.arange(n - 1)
    return coeffs

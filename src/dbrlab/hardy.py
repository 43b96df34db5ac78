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


def powers(z, n):
    """The powers 1, z, ..., z^(n-1) along the last axis, by running product.

    z is a scalar, giving shape (n,), or a 1-D array of k points, giving
    shape (k, n). Each step z^(l+1) = fl(z^l * z) adds the rounding of one
    complex multiplication, a relative error of at most sqrt(2) eps
    (Higham 2002, sec. 3.6), so the error of z^l is a sum of l local
    roundings: at most about sqrt(2) l eps, and in practice of order
    sqrt(l) eps, as their signs vary. numpy's power operator on an array
    of exponents rounds each power on its own, with errors of hundreds of
    eps near l = 500 for |z| = 1 that are uncorrelated from one power to
    the next. The running product's error instead drifts slowly in l.
    Every power row in the package comes from here: the Gram generators,
    the moment matrix and recovery's Vandermonde.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape + (int(n),), dtype=complex)
    if out.shape[-1] > 0:
        out[..., 0] = 1
        out[..., 1:] = z[..., np.newaxis]
        np.cumprod(out[..., 1:], axis=-1, out=out[..., 1:])
    return out


def h2_inner(f, g):
    """Hardy-space inner product sum_k f_k conj(g_k)."""
    f = as_poly(f)
    g = as_poly(g)
    n = min(len(f), len(g))
    if n == 0:
        return 0j
    # vdot conjugates its first argument
    return complex(np.vdot(g[:n], f[:n]))


def geometric_scan(w, p):
    """In place, w_m <- sum_(j <= m) p^j w_(m-j): the first-order recurrence
    v_m = w_m + p v_(m-1), run as a Hillis-Steele doubling (Blelloch 1990).

    The step w[s:] += p w[:-s], then p <- p^2 and s <- 2s, leaves each w_m
    summing its terms up to 2s - 1 places back, so L = ceil(log2 n) steps
    finish a row of n. The term p^j w_(m-j) is multiplied by the power
    p^(2^k) of each set bit k of j, and goes through at most L additions.
    The loop stops early once the power is 0 (p = 0, or p^(2^k)
    underflowed), when the steps left would add nothing. Returns w.
    """
    n, s = len(w), 1
    while s < n and p:
        w[s:] += p * w[:-s]
        p *= p
        s *= 2
    return w


def difference_quotient(f, zeta):
    """Exact synthetic division of f by (z - zeta).

    Returns q with f(z) = f(zeta) + (z - zeta) q(z); deg q = deg f - 1.
    Valid for zeta anywhere in the closed disk, boundary included. The
    recurrence q_k = f_(k+1) + zeta q_(k+1), q_(n-1) = f_n, is a
    `geometric_scan` of the reversed f[1:] with ratio zeta, in
    L = ceil(log2 n) array steps for the n = deg f coefficients of q.

    Forward error, to first order in eps, counted as for `debranges.fplus`
    (complex product sqrt(2) eps, complex sum eps / 2, Higham 2002
    sec. 3.6): zeta is exact, and p = zeta^(2^k) comes by k squarings, each
    doubling the relative error and adding sqrt(2) eps, so p carries at
    most (2^k - 1) sqrt(2) eps; summed over the bits of j <= n - 1 that is
    sqrt(2) (n - 1) eps on the term zeta^j f_(k+1+j) of q_k, plus sqrt(2) eps
    for each of at most L products and eps / 2 for each of at most L
    additions. So with S_k = sum_j |zeta|^j |f_(k+1+j)|,

        |q_k - fl(q_k)| <= (sqrt(2) (n - 1) + (sqrt(2) + 1/2) L) eps S_k.

    Products that underflow add an absolute error on top, at most
    2 n (2 + L max_k S_k) 2^-1074: 2 2^-1074 for each of the 2^L - 1 < 2 n
    scan products that reach q_k, and for each step the (2^(k+1) - 2) 2^-1074
    of p = zeta^(2^k) times a partial sum of at most max S, along the
    2^(L-1-k) paths that carry it to q_k.
    """
    f = normalize(f)
    if len(f) < 2:
        return f[:0]
    return geometric_scan(f[:0:-1].copy(), complex(zeta))[::-1]

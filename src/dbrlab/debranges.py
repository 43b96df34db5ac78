"""H(b) inner products and Grams of a Moebius symbol with its Pythagorean mate.

The symbol b(z) = (c + gamma z)/(1 - beta z) and its mate
a(z) = (rho - sigma z)/(1 - beta z) live in `symbols`, which has no numpy
and whose names this module re-exports. For nonextreme b the H(b) inner
product of polynomials decomposes as

    <f, g>_b = <f, g>_{H^2} + <f+, g+>_{H^2}

where f+ is the unique polynomial with T_conj(a) f+ = T_conj(b) f. Both
Toeplitz operators are polynomials in the backward shift J, so their common
factor (1 - conj(beta) J)^-1 cancels and f+ is one first-order recurrence in
J, run as a doubling scan of ceil(log2 n) array steps (`fplus`). That scan,
`hardy.geometric_scan`, also runs synthetic division (`hardy.difference_quotient`)
and the rank-1 pencil (`operators._pencil_top`), whose tridiagonal matrix is a
Toeplitz bidiagonal square plus a rank-1 corner that Sherman-Morrison adds back.
"""

import numpy as np

from . import hardy
from .dirichlet import GramMatrix
from .symbols import (  # noqa: F401  (the symbol names are re-exported here)
    CIRCLE_SAMPLES,
    MoebiusSymbol,
    PythagoreanPair,
    SymbolError,
    SymbolFlags,
    pythagorean_mate,
    validate_symbol,
)


def fplus(f, pair):
    """Exact polynomial solution of T_conj(a) f+ = T_conj(b) f.

    With (J f)_i = f_(i+1), T_conj(b) = (conj(c) + conj(gamma) J)(1 - conj(beta) J)^-1
    and T_conj(a) = (rho - conj(sigma) J)(1 - conj(beta) J)^-1 are polynomials
    in the nilpotent J, so they commute and their (1 - conj(beta) J)^-1
    factors cancel: f+ = (conj(c) + conj(gamma) J) y for
    y = (rho - conj(sigma) J)^-1 f, the first-order recurrence
    y_i = f_i / rho + r y_(i+1), r = conj(sigma) / rho, |r| <= 1.

    On f reversed over rho that recurrence is `hardy.geometric_scan` with
    ratio r, a Hillis-Steele doubling of L = ceil(log2 n) array steps that
    gives y reversed. r is one correctly rounded Python division per
    part, so for the synthesized pair at lambda = +-1 or +-i, where
    sigma = conj(lambda) rho, r = lambda is exact and so is each power
    p = r^(2^k) that the scan squares; numpy divides f by rho as a product
    with 1 / rho.

    Forward error, to first order in eps (complex product sqrt(2) eps,
    complex sum and product with a real eps / 2 each, Higham 2002 sec. 3.6):
    the term r^j f_(i+j) / rho of y_i is multiplied by the p of each set
    bit of j, and p = r^(2^k) by k squarings of the rounded r, which
    doubles the relative error each time, so p carries at most
    2^k (1 + sqrt(2)) eps; summed over the bits of j <= n - 1 that is
    (1 + sqrt(2)) (n - 1) eps, plus sqrt(2) eps for each of at most L
    products, eps / 2 for each of at most L additions it goes through, and
    eps for f_(i+j) / rho. So with S_i = sum_j |r|^j |f_(i+j)| / rho,

        |y_i - fl(y_i)| <= ((1 + sqrt(2)) (n - 1) + (sqrt(2) + 1/2) L + 1) eps S_i,

    and x_i = conj(c) y_i + conj(gamma) y_(i+1) adds two products and a
    sum, (sqrt(2) + 1/2) eps (|c| S_i + |gamma| S_(i+1)). Products that
    underflow add an absolute error on top, at most
    ((|c| + |gamma|) 3 n (2 + L max_i S_i) + 4) 2^-1074.
    """
    f = hardy.normalize(f)
    if len(f) == 0:
        return f
    y = hardy.geometric_scan(f[::-1] / pair.rho, pair.sigma.conjugate() / pair.rho)[::-1]
    x = pair.b.c.conjugate() * y
    x[:-1] += pair.b.gamma.conjugate() * y[1:]
    return hardy.normalize(x)


def hb_inner(f, g, pair):
    """H(b) inner product <f,g> + <f+,g+> of two polynomials; one f+ solve
    when g is f."""
    fp = fplus(f, pair)
    gp = fp if g is f else fplus(g, pair)
    return hardy.h2_inner(f, g) + hardy.h2_inner(fp, gp)


def hb_gram(pair, n):
    """Monomial Gram matrix G[i][j] = <z^i, z^j> in H(b), size n, as a
    `GramMatrix` of one generator row, the reversed (z^(n-1))+.

    f -> f+ commutes with the backward shift, so (z^k)+ is (z^(n-1))+ minus its
    first n-1-k coefficients: one f+ solve, O(n), gives the whole Toeplitz
    f+ matrix T and G = I + T T^H. Its entries cost O(n^2) on each read.
    """
    n = int(n)
    if n < 1:
        raise ValueError("Gram size must be >= 1")
    q = fplus(hardy.monomial(n - 1), pair)
    return GramMatrix(np.pad(q[::-1], (n - len(q), 0)))


def hb_cauchy_norm(pair, w):
    """Closed-form squared H(b) norm of the Cauchy kernel k_w.

    ||k_w||_b^2 = (1 + |b(w)/a(w)|^2) / (1 - |w|^2).
    """
    w = complex(w)
    if abs(w) >= 1:
        raise ValueError(f"|w| = {abs(w)} must be < 1")
    return (1 + abs(pair.smirnov_quotient(w)) ** 2) / (1 - abs(w) ** 2)


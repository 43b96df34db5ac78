"""H(b) inner products and Grams of a Moebius symbol with its Pythagorean mate.

The symbol b(z) = (c + gamma z)/(1 - beta z) and its mate
a(z) = (rho - sigma z)/(1 - beta z) live in `symbols`, which has no numpy
and whose names this module re-exports. For nonextreme b the H(b) inner
product of polynomials decomposes as

    <f, g>_b = <f, g>_{H^2} + <f+, g+>_{H^2}

where f+ is the unique polynomial with T_conj(a) f+ = T_conj(b) f.
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

    Both Toeplitz operators are upper triangular on coefficients with
    geometric symbol tails, so the right-hand side and the
    back-substitution from the top degree down take linear time. The
    diagonal of the system is a(0) = rho > 0. The recurrence runs on Python
    complex scalars, which cost a fraction of numpy scalars per operation,
    and divides by rho as a product with 1 / rho, as numpy's complex by
    real division does.
    """
    f = hardy.normalize(f)
    if len(f) == 0:
        return f
    b = pair.b
    bc = b.c.conjugate()
    btop = (b.c * b.beta + b.gamma).conjugate()
    atop = (pair.rho * b.beta - pair.sigma).conjugate()
    bb = b.beta.conjugate()
    inv = 1.0 / pair.rho
    x = []
    t = 0j  # running tail sum_{j>i} conj(beta)^(j-i-1) f_j
    s = 0j  # same tail for the solution coefficients
    for f_i in reversed(f.tolist()):
        x_i = (bc * f_i + btop * t - atop * s) * inv
        x.append(x_i)
        t = f_i + bb * t
        s = x_i + bb * s
    return hardy.normalize(np.array(x[::-1], dtype=complex))


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


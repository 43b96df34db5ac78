"""Moebius symbols, Pythagorean mates, and H(b) inner products.

The symbol class is b(z) = (c + gamma z)/(1 - beta z) with |beta| < 1 and
||b||_inf <= 1. For nonextreme b the mate a(z) = (rho - sigma z)/(1 - beta z)
satisfies |a|^2 + |b|^2 = 1 on the circle with a(0) = rho > 0, and the H(b)
inner product of polynomials decomposes as

    <f, g>_b = <f, g>_{H^2} + <f+, g+>_{H^2}

where f+ is the unique polynomial with T_conj(a) f+ = T_conj(b) f.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hardy
from .dirichlet import GramMatrix, json_complex

# tolerance for the exact coefficient feasibility / innerness classification
CLASS_TOL = 1e-12
CIRCLE_SAMPLES = 64


class SymbolError(ValueError):
    """Invalid or extreme symbol where a nonextreme one is required."""


@dataclass(frozen=True)
class SymbolFlags:
    valid: bool
    nonextreme: bool
    inner: bool


def _s_and_p(c, gamma, beta):
    # on the circle, |1 - beta z|^2 - |c + gamma z|^2 = s - 2 Re((beta + conj(c) gamma) z)
    s = 1 + abs(beta) ** 2 - abs(c) ** 2 - abs(gamma) ** 2
    root = beta + np.conj(c) * gamma
    return s, abs(root) ** 2, root


def validate_symbol(c, gamma, beta):
    """Classify (c, gamma, beta): contractive on the disk, inner, nonextreme.

    Uses the exact coefficient criteria: ||b||_inf <= 1 iff s >= 2 sqrt(p)
    where s = 1 + |beta|^2 - |c|^2 - |gamma|^2 and p = |beta + conj(c) gamma|^2;
    b is inner iff s = 0 and p = 0. A rational contractive symbol is
    nonextreme exactly when it is not inner.
    """
    c, gamma, beta = complex(c), complex(gamma), complex(beta)
    if abs(beta) >= 1:
        return SymbolFlags(valid=False, nonextreme=False, inner=False)
    s, p, _ = _s_and_p(c, gamma, beta)
    valid = s >= 2 * math.sqrt(p) - CLASS_TOL
    inner = valid and abs(s) <= CLASS_TOL and math.sqrt(p) <= CLASS_TOL
    return SymbolFlags(valid=valid, nonextreme=valid and not inner, inner=inner)


@dataclass(frozen=True)
class MoebiusSymbol:
    """b(z) = (c + gamma z)/(1 - beta z); construction enforces validity."""

    c: complex
    gamma: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "beta", complex(self.beta))
        if abs(self.beta) >= 1:
            raise SymbolError(f"|beta| = {abs(self.beta)} must be < 1")
        if not validate_symbol(self.c, self.gamma, self.beta).valid:
            raise SymbolError(
                "symbol exceeds the unit ball: need "
                "1 + |beta|^2 - |c|^2 - |gamma|^2 >= 2|beta + conj(c) gamma|"
            )

    def __call__(self, z):
        return (self.c + self.gamma * z) / (1 - self.beta * z)

    def flags(self):
        return validate_symbol(self.c, self.gamma, self.beta)

    def to_json_dict(self):
        return {
            "c": {"re": self.c.real, "im": self.c.imag},
            "gamma": {"re": self.gamma.real, "im": self.gamma.imag},
            "beta": {"re": self.beta.real, "im": self.beta.imag},
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            c=json_complex(d["c"]),
            gamma=json_complex(d["gamma"]),
            beta=json_complex(d["beta"]),
        )


@dataclass(frozen=True)
class PythagoreanPair:
    """A nonextreme symbol b with its mate a(z) = (rho - sigma z)/(1 - beta z)."""

    b: MoebiusSymbol
    rho: float
    sigma: complex

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "sigma", complex(self.sigma))

    def mate_eval(self, z):
        return (self.rho - self.sigma * z) / (1 - self.b.beta * z)

    def smirnov_quotient(self, z):
        """phi(z) = b(z)/a(z); determines the pair up to normalization."""
        return self.b(z) / self.mate_eval(z)

    def unit_circle_deviation(self):
        """max | |a|^2 + |b|^2 - 1 | over the CIRCLE_SAMPLES-th roots of unity."""
        om = np.exp(2j * np.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES)
        vals = np.abs(self.mate_eval(om)) ** 2 + np.abs(self.b(om)) ** 2
        return float(np.abs(vals - 1).max())

    def to_json_dict(self):
        return {
            "rho": self.rho,
            "sigma": {"re": self.sigma.real, "im": self.sigma.imag},
        }


def pythagorean_mate(b):
    """Mate coefficients for a nonextreme Moebius symbol.

    rho^2 is the larger root of t^2 - s t + p = 0 (this is what makes
    rho >= |sigma|) and the phase of sigma is fixed by
    sigma = (beta + conj(c) gamma)/rho with rho real positive.

    For a 2-isometric shift the discriminant s^2 - 4p is exactly 0, and its
    computed value is roundoff whose square root would put an O(sqrt(eps))
    error into rho. s sums terms of total size 1 + |beta|^2 + |c|^2 + |gamma|^2,
    so a discriminant within 8 eps s times that size is taken as 0.
    """
    flags = b.flags()
    if not flags.valid:
        raise SymbolError("symbol exceeds the unit ball")
    if flags.inner:
        raise SymbolError("inner symbol (extreme): no Pythagorean mate exists")
    s, p, root = _s_and_p(b.c, b.gamma, b.beta)
    size = 1 + abs(b.beta) ** 2 + abs(b.c) ** 2 + abs(b.gamma) ** 2
    disc = s * s - 4 * p
    if disc <= 8 * np.finfo(float).eps * s * size:
        disc = 0.0
    rho2 = (s + math.sqrt(disc)) / 2
    rho = math.sqrt(rho2)
    sigma = root / rho
    return PythagoreanPair(b=b, rho=rho, sigma=sigma)


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


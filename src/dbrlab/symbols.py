"""Moebius symbols, their Pythagorean mates and the one-atom synthesis, on
the standard library alone.

The symbol class is b(z) = (c + gamma z)/(1 - beta z) with |beta| < 1 and
||b||_inf <= 1. For nonextreme b the mate a(z) = (rho - sigma z)/(1 - beta z)
satisfies |a|^2 + |b|^2 = 1 on the circle with a(0) = rho > 0.

For mu = |alpha|^2 delta_lam on the closed disk there is a unique (up to a
unimodular gauge) symbol b(z) = A z / (1 - B z) with D(mu) = H(b) and equal
norms:

    A^2 = (|alpha|^2 / (2|lam|^2)) (S - sqrt(S^2 - 4|lam|^2)),
            S = 1 + |alpha|^2 + |lam|^2       (lam != 0)
    A^2 = |alpha|^2 / (1 + |alpha|^2)         (lam == 0)
    B   = A^2 conj(lam) / |alpha|^2.

The lam = 0 branch is the continuous limit of the general formula and is
forced by the norm equality (the D(mu) Gram diagonal is 1 + |alpha|^2 from
degree one on, so A^2/(1 - A^2) = |alpha|^2). The minus branch is forced:
the plus branch gives |B| > 1. A is gauge-fixed real nonnegative.

The `synthesize` and `mate` commands run only this module, so it imports
the standard library alone; the numeric modules import their symbol,
certificate and tolerance names from here.
"""

import cmath
import math
import sys
from dataclasses import dataclass, field

# slack on |location| <= 1 to absorb roundoff in points like e^{i theta}
DISK_TOL = 1e-12
# the default tolerance of each certificate kind, by its `--tol` key
TOLERANCES = {
    "mate": 1e-12,  # unit-circle-sum, absolute
    "equality": 1e-9,  # norm-equality, relative to max|G_dmu|
    "nsd": 1e-10,  # top eigenvalue of a form, absolute
    "moment": 1e-12,  # moment-identity, absolute
    "rank": 1e-8,  # numerical rank, relative to the largest singular value
    "kernel": 1e-8,  # Cauchy-kernel norms, relative
}
# tolerance for the exact coefficient feasibility / innerness classification
CLASS_TOL = 1e-12
CIRCLE_SAMPLES = 64


def _json_number(x):
    """x, a number read from JSON; a bool (a subclass of int) or a string
    raises TypeError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {x!r}")
    return x


def json_complex(d):
    """complex(d["re"], d["im"]) for an object read from JSON (`_json_number`)."""
    return complex(_json_number(d["re"]), _json_number(d["im"]))


@dataclass(frozen=True)
class Certificate:
    """Outcome of one numerical check: extremal witness against a tolerance."""

    kind: str
    passed: bool
    witness: float
    tolerance: float
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "witness", float(self.witness))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "pass": self.passed,
            "witness": self.witness,
            "tolerance": self.tolerance,
            "context": self.context,
        }


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
    root = beta + c.conjugate() * gamma
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
        worst = 0.0
        for k in range(CIRCLE_SAMPLES):
            z = cmath.exp(2j * math.pi * k / CIRCLE_SAMPLES)
            worst = max(worst, abs(abs(self.mate_eval(z)) ** 2 + abs(self.b(z)) ** 2 - 1))
        return worst

    def circle_certificate(self, tol=TOLERANCES["mate"]):
        """The `unit-circle-sum` certificate: `unit_circle_deviation` <= tol."""
        dev = self.unit_circle_deviation()
        return Certificate("unit-circle-sum", dev <= tol, dev, tol, {"samples": CIRCLE_SAMPLES})

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
    if disc <= 8 * sys.float_info.epsilon * s * size:
        disc = 0.0
    rho2 = (s + math.sqrt(disc)) / 2
    rho = math.sqrt(rho2)
    # a product with 1 / rho, as numpy divides a complex array by a real
    sigma = root * (1 / rho)
    return PythagoreanPair(b=b, rho=rho, sigma=sigma)


@dataclass(frozen=True)
class SynthesisOutput:
    A: float  # gauge-fixed real >= 0
    B: complex

    def symbol(self):
        """A z / (1 - B z). On the circle h = 1 + O(|alpha|) rounds to 1 for
        |alpha| below about eps / 2, and |B| = 1 / h < 1 with it: then
        double precision cannot hold the symbol, SymbolError."""
        if abs(self.B) >= 1:
            raise SymbolError(
                "double precision cannot hold the symbol A z / (1 - B z): "
                f"|B| < 1 rounds to {abs(self.B)} (|alpha| below about eps / 2 on the circle)"
            )
        return MoebiusSymbol(c=0, gamma=self.A, beta=self.B)


def synthesize_symbol(alpha, lam):
    """Synthesize the symbol constants for mu = |alpha|^2 delta_lam.

    With h = (S + sqrt(S^2 - 4|lam|^2)) / 2, A^2 = |alpha|^2 / h and
    B = conj(lam) / h, which covers lam = 0 too (h = 1 + |alpha|^2). The root
    is sqrt(|alpha|^2 + (1 - |lam|)^2) sqrt(|alpha|^2 + (1 + |lam|)^2), as
    S -/+ 2|lam| = |alpha|^2 + (1 -/+ |lam|)^2, so no difference cancels on
    the circle or near it. h is summed from halves and A taken as
    sqrt(|alpha| / h) sqrt(|alpha|), so nothing overflows or underflows while
    |alpha|^2 is a float; beyond that, ValueError. alpha = 0 yields the zero
    symbol (H(b) = H^2).
    """
    alpha = complex(alpha)
    lam = complex(lam)
    if abs(lam) > 1 + DISK_TOL:
        raise ValueError(f"|lambda| = {abs(lam)} must be <= 1")
    a, r = math.hypot(alpha.real, alpha.imag), abs(lam)
    if a == 0:
        return SynthesisOutput(A=0.0, B=0j)
    if not math.isfinite(a * a):
        raise ValueError(f"|alpha|^2 of alpha = {alpha} exceeds the float range")
    h = (1 + a * a + r * r) / 2 + math.hypot(a, 1 - r) * (math.hypot(a, 1 + r) / 2)
    # 0.0 - lam.imag: a real lam gives B a +0.0 imaginary part, not -0.0
    B = complex(lam.real, 0.0 - lam.imag) / h
    return SynthesisOutput(A=math.sqrt(a / h) * math.sqrt(a), B=B)

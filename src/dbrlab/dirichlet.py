"""Local Dirichlet integrals and D(mu) inner products for atomic measures.

A measure is a finite list of point masses on the closed unit disk. The
D(mu) norm of a polynomial f is

    ||f||^2 = ||f||_{H^2}^2 + sum_i c_i || (f - f(z_i)) / (z - z_i) ||_{H^2}^2.

Boundary atoms are fully supported: inputs are polynomials, so the
difference quotient always exists.
"""

from dataclasses import dataclass

import numpy as np

from . import hardy
from .symbols import DISK_TOL, _json_number, json_complex


@dataclass(frozen=True)
class PointMassMeasure:
    """mu = sum_i weight_i * delta_{location_i} on the closed unit disk."""

    atoms: tuple  # of (location: complex, weight: float)

    def __post_init__(self):
        atoms = tuple((complex(z), float(w)) for z, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        for z, w in atoms:
            if not (np.isfinite(w) and w > 0):
                raise ValueError(f"atom weight {w} must be positive")
            if not abs(z) <= 1 + DISK_TOL:  # False for a NaN location too
                raise ValueError(f"atom location {z} is not a point of the closed disk")
        locs = [z for z, _ in atoms]
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                if locs[i] == locs[j]:
                    raise ValueError(f"duplicate atom location {locs[i]}")

    def __len__(self):
        return len(self.atoms)

    @classmethod
    def empty(cls):
        return cls(atoms=())

    @classmethod
    def single(cls, location, weight):
        return cls(atoms=((location, weight),))

    def to_json_dict(self):
        return {
            "atoms": [
                {"re": z.real, "im": z.imag, "weight": w} for z, w in self.atoms
            ]
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            atoms=tuple(
                (json_complex(a), _json_number(a["weight"])) for a in d["atoms"]
            )
        )


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian monomial Gram G = I + sum_r T_r T_r^H, held as its generators.

    T_r is the lower-triangular Toeplitz matrix of first column
    generators[r], a k x N array (read-only; entries below eps times its
    largest are flushed to zero, so the Gram and its defect stay out of
    subnormals). The defect G[1:, 1:] - G[:-1, :-1] is exactly
    U1^T conj(U1), U1 = generators[:, 1:]. The N x N `entries` are an
    output format, built by `_toeplitz_gram` on each read; np.asarray(G)
    returns them. No certificate reads them.
    """

    generators: np.ndarray

    def __post_init__(self):
        U = np.array(self.generators, dtype=complex, ndmin=2)
        if U.ndim != 2 or U.shape[1] < 1:
            raise ValueError("generators must be a k x N array with N >= 1")
        # below eps * max|U| is roundoff; subnormal tails slow LAPACK down several-fold
        U[np.abs(U) < np.finfo(float).eps * np.abs(U).max(initial=0)] = 0
        U.setflags(write=False)
        object.__setattr__(self, "generators", U)

    @property
    def entries(self):
        return _toeplitz_gram(self.generators)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True)
class FactoredForm:
    """The Hermitian form F = Y diag(c) Y^H, held as its exact factor.

    Y (`factor`, m x p) and c (`weights`, p real numbers) are read-only
    copies, and a NaN or infinite entry raises ValueError. Every form and
    the defect of a GramMatrix with k generator rows come as one
    (`operators.hyperexpansive_form`, `operators.defect_matrix`), p at most
    k n at order n, and so does the moment matrix (`moment_matrix`), so no
    m x m array is built. `certify_nsd`, `numerical_rank` and
    `recover_atoms` decide on it from the small core R diag(c) R^H of its
    thin QR Y = Q R (`operators._core`), and on a plain array by one dense
    eigensolve or SVD. F1 - F2 is exact, the form of factor [Y1 | Y2] and
    weights (c1, -c2). np.asarray(F) gives the m x m entries.
    """

    factor: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        Y = np.array(self.factor, dtype=complex)
        c = np.array(self.weights, dtype=float)
        if Y.ndim != 2 or c.shape != (Y.shape[1],):
            raise ValueError("factor must be m x p, with p real weights")
        if not (np.isfinite(Y).all() and np.isfinite(c).all()):
            raise ValueError("factor has a NaN or infinite entry")
        Y.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "factor", Y)
        object.__setattr__(self, "weights", c)

    @property
    def shape(self):
        return (len(self.factor),) * 2

    def __array__(self, dtype=None, copy=None):
        Y = self.factor
        return np.asarray((Y * self.weights) @ Y.conj().T, dtype=dtype)

    def __sub__(self, other):
        # any other operand gets numpy's dense difference, via __array__
        if not isinstance(other, FactoredForm):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"forms of sizes {self.shape[0]} and {other.shape[0]} do not subtract")
        return FactoredForm(np.hstack([self.factor, other.factor]), np.r_[self.weights, -other.weights])


def dmu_inner(f, g, mu):
    """D(mu) inner product of two polynomials: the H^2 part plus
    `dirichlet_integral`."""
    return hardy.h2_inner(f, g) + dirichlet_integral(f, g, mu)


def dirichlet_integral(f, g, mu):
    """The atom part of the D(mu) inner product,
    sum_i c_i <(f - f(z_i)) / (z - z_i), (g - g(z_i)) / (z - z_i)>_{H^2}; one
    difference quotient per atom when g is f. A caller that needs this part
    alone takes it here: dmu_inner less h2_inner would lose about eps / c_i
    of it to cancellation when the weights c_i are small."""
    val = 0j
    for z, w in mu.atoms:
        qf = hardy.difference_quotient(f, z)
        qg = qf if g is f else hardy.difference_quotient(g, z)
        val += w * hardy.h2_inner(qf, qg)
    return val


def _toeplitz_gram(U):
    """I + sum_r T_r T_r^H, T_r lower-triangular Toeplitz of first column U[r].

    O(n^2 k) by C[i][j] = C[i-1][j-1] + sum_r U[r][i] conj(U[r][j]).
    """
    C = U.T @ U.conj()
    np.fill_diagonal(C, (U.real**2 + U.imag**2).sum(axis=0))  # exactly real
    for i in range(1, len(C)):
        C[i, 1:] += C[i - 1, :-1]
    C[np.diag_indices_from(C)] += 1
    return C


def _locations_weights(mu):
    return (
        np.array([z for z, _ in mu.atoms], dtype=complex),
        np.array([w for _, w in mu.atoms], dtype=float),
    )


def dmu_gram(mu, n):
    """Monomial Gram matrix G[i][j] = <z^i, z^j> in D(mu), size n, as a
    `GramMatrix` of one generator row per atom; its entries cost O(n^2 * atoms)
    on each read.

    Each atom adds T T^H, T Toeplitz of first column sqrt(w) (0, 1, zeta, zeta^2, ...).
    The powers are `hardy.powers`, the running product that `moment_matrix`
    and recovery's Vandermonde also use.
    """
    n = int(n)
    if n < 1:
        raise ValueError("Gram size must be >= 1")
    z, w = _locations_weights(mu)
    U = np.zeros((len(mu), n), dtype=complex)
    U[:, 1:] = np.sqrt(w)[:, np.newaxis] * hardy.powers(z, n - 1)
    return GramMatrix(U)


def moment_matrix(mu, n):
    """M[i][j] = sum_k w_k z_k^i conj(z_k)^j, size n; Hermitian PSD, rank = #atoms.

    Returned as the FactoredForm V diag(w) V^H, V[i][k] = z_k^i the n x k
    Vandermonde, whose entries np.asarray(M) builds. Its columns are
    `hardy.powers` running products, the same rows `dmu_gram` builds from,
    so the moment identity D = M compares two routes whose power errors
    match and cancel, and defect_matrix(G) - M is one exact FactoredForm.
    """
    n = int(n)
    if n < 1:
        raise ValueError("moment matrix size must be >= 1")
    z, w = _locations_weights(mu)
    return FactoredForm(hardy.powers(z, n).T, w)


def dmu_cauchy_norm(alpha, lam, w):
    """Closed-form Dirichlet part of the Cauchy kernel norm in D(|alpha|^2 delta_lam).

    Returns |alpha|^2 |w|^2 / (|1 - conj(lam) w|^2 (1 - |w|^2)), the value of
    integral of the local Dirichlet integral of k_w against the measure.
    """
    alpha = complex(alpha)
    lam = complex(lam)
    w = complex(w)
    if abs(w) >= 1:
        raise ValueError(f"|w| = {abs(w)} must be < 1")
    if abs(lam) > 1 + DISK_TOL:
        raise ValueError(f"|lambda| = {abs(lam)} must be <= 1")
    return (
        abs(alpha) ** 2
        * abs(w) ** 2
        / (abs(1 - np.conj(lam) * w) ** 2 * (1 - abs(w) ** 2))
    )


def truncated_cauchy_kernel(w, degree):
    """Taylor coefficients conj(w)^k of k_w(z) = 1/(1 - conj(w) z), k <= degree."""
    return hardy.powers(np.conj(complex(w)), degree + 1)

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

# slack on |location| <= 1 to absorb roundoff in points like e^{i theta}
DISK_TOL = 1e-12


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
            if abs(z) > 1 + DISK_TOL:
                raise ValueError(f"atom location {z} outside the closed disk")
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
                (complex(a["re"], a["im"]), a["weight"]) for a in d["atoms"]
            )
        )


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of monomial inner products."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))


def dmu_inner(f, g, mu):
    """D(mu) inner product of two polynomials; one difference quotient per
    atom when g is f."""
    val = hardy.h2_inner(f, g)
    for z, w in mu.atoms:
        qf = hardy.difference_quotient(f, z)
        qg = qf if g is f else hardy.difference_quotient(g, z)
        val += w * hardy.h2_inner(qf, qg)
    return val


def _toeplitz_gram(U):
    """I + sum_r T_r T_r^H, T_r lower-triangular Toeplitz of first column U[r].

    O(n^2 k) by C[i][j] = C[i-1][j-1] + sum_r U[r][i] conj(U[r][j]), with U's
    tiny entries dropped (in place) so the Gram and its defect stay out of subnormals.
    """
    # below eps * max|U| is roundoff; subnormal tails slow LAPACK down several-fold
    U[np.abs(U) < np.finfo(float).eps * np.abs(U).max(initial=0)] = 0
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
    """Monomial Gram matrix G[i][j] = <z^i, z^j> in D(mu), size n, in O(n^2 * atoms).

    Each atom adds T T^H, T Toeplitz of first column sqrt(w) (0, 1, zeta, zeta^2, ...).
    The powers are `hardy.powers`, a running product, whose rounding error
    drifts slowly along the row: each diagonal of G sums the products
    zeta^l conj(zeta^(l+d)) along it, and their error changes by O(eps)
    from one step to the next rather than jittering by O(l eps), as
    independently rounded powers make it do. The order-n form, the n-th
    Pascal difference of G, amplifies that error by up to 2^n; from
    running products it stays close enough to the form's exact low rank
    for the NSD factor to decide it.
    """
    n = int(n)
    if n < 1:
        raise ValueError("Gram size must be >= 1")
    z, w = _locations_weights(mu)
    U = np.zeros((len(mu), n), dtype=complex)
    U[:, 1:] = np.sqrt(w)[:, np.newaxis] * hardy.powers(z, n - 1)
    return GramMatrix(entries=_toeplitz_gram(U))


def moment_matrix(mu, n):
    """M[i][j] = sum_k w_k z_k^i conj(z_k)^j, size n; Hermitian PSD, rank = #atoms.

    The Vandermonde columns are `hardy.powers` running products, the same
    rows `dmu_gram` builds from, so the moment identity D = M compares two
    routes whose power errors match and cancel.
    """
    n = int(n)
    if n < 1:
        raise ValueError("moment matrix size must be >= 1")
    z, w = _locations_weights(mu)
    # V[i][k] = z_k^i, the n x k Vandermonde: M = V diag(w) V^H, one product
    V = hardy.powers(z, n).T
    return (V * w) @ V.conj().T


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

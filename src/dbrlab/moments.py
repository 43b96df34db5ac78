"""Recovery of an atomic measure from its moment / defect matrix.

The moment matrix M[n][m] = sum_i w_i z_i^n conj(z_i)^m has Vandermonde
column space, so the atoms are recovered from the shift-invariance of that
column space (ESPRIT-style) and the weights by least squares against the
rank-one Vandermonde outer products, then checked positive.
"""

from dataclasses import dataclass

import numpy as np

from . import hardy
from .dirichlet import PointMassMeasure, dmu_gram
from .operators import (
    RANK_TOL,
    Certificate,
    _residual_squares,
    _sketch_rank,
    defect_matrix,
)

# atoms may stick out of the disk by at most this much before recovery fails;
# smaller excursions are clamped radially to the circle
DISK_EXCURSION = 1e-8
WEIGHT_FLOOR = 1e-12


class RecoveryError(ValueError):
    """Moment data inconsistent with the requested atomic model."""


@dataclass(frozen=True)
class RecoveryResult:
    measure: PointMassMeasure
    residual: float  # Frobenius mismatch of the reconstructed moment matrix
    condition: float  # conditioning of the recovered Vandermonde factor

    def to_json_dict(self):
        d = self.measure.to_json_dict()
        d["residual"] = self.residual
        d["condition"] = self.condition
        return d


def recover_atoms(M, k=None, rank_tol=RANK_TOL):
    """Invert the moment map: locations via shift invariance, weights via least squares.

    k is the expected atom count; when omitted it is set to the numerical
    rank of M, that of its Hermitian part H at rank_tol: the number of
    |eigenvalues| of H above rank_tol times the largest, decided once by
    `_sketch_rank`: by its certified pivoted Cholesky factor H ~ L L^H,
    without an N x N eigensolve, when the rank is small, and by the SVD of
    H only when the factor leaves it undecided. k < 0 raises RecoveryError.
    Requires at least k+1 rows of moments.

    The column space used for the locations is that of the k largest-|eigenvalue|
    directions of H. When the factor has at least k columns they come
    without an N x N eigensolve, as its deterministic Ritz basis: Q times
    the eigenvectors of the small S = R R^H with the k largest |eigenvalues|,
    where L = Q R (Rayleigh-Ritz on L L^H). With fewer factor columns than
    k the basis is that of a dense eigh of H.
    For the moment matrix of a positive measure these are its k positive
    eigenvalues. For a signed input the negative directions count by their
    size too, unlike a basis of the top k algebraic eigenvectors: the fit
    then finds the negative weight and raises RecoveryError instead of
    fitting a positive measure to the wrong space.

    The weights are the unconstrained least-squares fit, rejected unless every
    one exceeds WEIGHT_FLOOR. That is the nonnegative least-squares answer:
    when the unconstrained optimum is positive it is the constrained one, and
    otherwise the constrained optimum has a zero weight, which is rejected too.
    With the Vandermonde factor V = QR, ||M - V W V^H||_F^2 and
    ||Q^H M Q - R W R^H||_F^2 differ by a constant, so the fit is solved on
    the k^2 entries of the second.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise RecoveryError("moment matrix must be square")
    N = M.shape[0]
    # the Hermitian part in one N x N array, C-ordered like M
    H = np.conj(M.T, order="C")
    H += M
    H *= 0.5
    rank, Q, S = _sketch_rank(H, rank_tol)
    k = rank if k is None else int(k)
    if k < 0:
        raise RecoveryError(f"atom count {k} must be >= 0")
    if k == 0:
        return RecoveryResult(
            measure=PointMassMeasure.empty(),
            residual=float(np.linalg.norm(M)),
            condition=1.0,
        )
    if k > rank:
        raise RecoveryError(f"requested {k} atoms but numerical rank is {rank}")
    if N < k + 1:
        raise RecoveryError(f"need at least {k + 1} moment rows for {k} atoms")

    ritz = k <= Q.shape[1]
    lam, W = np.linalg.eigh(S if ritz else H)
    del H
    U = W[:, np.argsort(-np.abs(lam))[:k]]
    if ritz:
        U = Q @ U

    # column space is Vandermonde: U shifted down one row = U times Phi
    Phi, *_ = np.linalg.lstsq(U[:-1, :], U[1:, :], rcond=None)
    locs = np.linalg.eigvals(Phi)

    clamped = []
    for z in locs:
        r = abs(z)
        if r > 1 + DISK_EXCURSION:
            raise RecoveryError(f"recovered location {z} outside the closed disk")
        if r > 1:
            z = z / r
            while abs(z) > 1:  # the division can round to modulus 1 + eps
                z *= 1 - 2**-52
        clamped.append(z)
    locs = np.asarray(clamped)

    V = hardy.powers(locs, N).T
    Q, R = np.linalg.qr(V)
    # column i of the basis is R[:, i] R[:, i]^H, the image of atom i's outer product
    basis = (R[:, np.newaxis, :] * R.conj()[np.newaxis, :, :]).reshape(k * k, k)
    target = (Q.conj().T @ M @ Q).ravel()
    A = np.vstack([basis.real, basis.imag])
    rhs = np.concatenate([target.real, target.imag])
    weights, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    if np.any(weights <= WEIGHT_FLOOR):
        raise RecoveryError("recovered a nonpositive atom weight")

    # ||M - V W V^H||_F, summed in row blocks, so no N x N temporary
    residual = float(np.sqrt(_residual_squares(M, V * weights, V.conj().T, 1.0)))
    condition = float(np.linalg.cond(V))
    measure = PointMassMeasure(atoms=tuple(zip(locs, weights)))
    return RecoveryResult(measure=measure, residual=residual, condition=condition)


def match_atoms(expected, recovered):
    """Greedy minimal-distance pairing; returns worst location/weight deviation.

    Deviation is inf when the atom counts differ. Ties in distance are
    broken by descending weight.
    """
    exp = list(expected.atoms)
    rec = list(recovered.atoms)
    if len(exp) != len(rec):
        return float("inf")
    worst = 0.0
    while exp:
        pairs = [
            (abs(ze - zr), -we, i, j)
            for i, (ze, we) in enumerate(exp)
            for j, (zr, wr) in enumerate(rec)
        ]
        dist, _, i, j = min(pairs)
        worst = max(worst, dist, abs(exp[i][1] - rec[j][1]))
        exp.pop(i)
        rec.pop(j)
    return worst


def roundtrip_check(mu, n, tol=1e-8):
    """End-to-end validation: D(mu) Gram -> defect -> recovered measure == mu."""
    n = int(n)
    if n < len(mu) + 1:
        raise ValueError(f"need n >= {len(mu) + 1} for {len(mu)} atoms")
    D = defect_matrix(dmu_gram(mu, n + 1))
    result = recover_atoms(D)
    worst = match_atoms(mu, result.measure)
    return Certificate(
        kind="roundtrip",
        passed=worst <= tol,
        witness=worst,
        tolerance=tol,
        context={
            "atoms": len(mu),
            "recovered": len(result.measure),
            "residual": result.residual,
            "condition": result.condition,
        },
    )

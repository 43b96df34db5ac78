"""Recovery of an atomic measure from its moment / defect matrix, and the
`certify` certificates of a measure on its Gram.

The moment matrix M[n][m] = sum_i w_i z_i^n conj(z_i)^m has Vandermonde
column space, so the atoms are recovered from the shift-invariance of that
column space (ESPRIT-style) and the weights by least squares against the
rank-one Vandermonde outer products, then checked positive.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hardy
from .dirichlet import PointMassMeasure, _locations_weights, dmu_gram
from .operators import (
    Certificate,
    FactoredForm,
    _core,
    _count_above,
    certify_nsd,
    defect_matrix,
    hyperexpansive_form,
    numerical_rank,
)
from .symbols import TOLERANCES

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


def recover_atoms(M, k=None, rank_tol=TOLERANCES["rank"]):
    """Invert the moment map: locations via shift invariance, weights via least squares.

    M is a FactoredForm Y diag(c) Y^H, as `defect_matrix` gives for a
    GramMatrix, or a square array. One `eigh` gives both the rank and the
    basis: for a FactoredForm F = Q S Q^H (`_core`) that of its small core
    S, whose eigenvectors W give the Ritz basis Q W, without an N x N
    array; for an array that of its Hermitian part H (`_core`).

    k is the expected atom count; when omitted it is the numerical rank at
    rank_tol: the number of |eigenvalues| above rank_tol times the largest,
    none when that is at most ZERO_SIGMA. k < 0 raises RecoveryError.
    Requires at least k+1 rows of moments.

    The column space used for the locations is that of the k largest-|eigenvalue|
    directions. For the moment matrix of a positive measure these are its k positive
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
    the k^2 entries of the second. For a FactoredForm, one thin QR
    [V, Y] = Q' R' gives R = R'[:k, :k], Q^H M Q = P diag(c) P^H with
    P = R'[:k, k:], and the residual ||M - V W V^H||_F as the norm of the
    core R' diag(-w, c) R'^H. The condition is cond(R) = cond(V).
    """
    factored = isinstance(M, FactoredForm)
    if not factored:
        M = np.asarray(M, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise RecoveryError("moment matrix must be square")
    if factored:  # one thin QR: the core here, the Ritz basis Q W below
        Qf, R = np.linalg.qr(M.factor)
    S = (R * M.weights) @ R.conj().T if factored else _core(M)
    N = M.shape[0]
    lam, W = np.linalg.eigh(S)
    rank = _count_above(np.abs(lam), rank_tol)
    k = rank if k is None else int(k)
    if k < 0:
        raise RecoveryError(f"atom count {k} must be >= 0")
    if k == 0:
        return RecoveryResult(PointMassMeasure.empty(), _frobenius(S if factored else M), 1.0)
    if k > rank:
        raise RecoveryError(f"requested {k} atoms but numerical rank is {rank}")
    if N < k + 1:
        raise RecoveryError(f"need at least {k + 1} moment rows for {k} atoms")

    U = W[:, np.argsort(-np.abs(lam))[:k]]
    if factored:
        U = Qf @ U

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
    if factored:
        R2 = np.linalg.qr(np.hstack([V, M.factor]), mode="r")
        R, P = R2[:k, :k], R2[:k, k:]
        target = (P * M.weights) @ P.conj().T
    else:
        Q, R = np.linalg.qr(V)
        target = Q.conj().T @ M @ Q
    # column i of the basis is R[:, i] R[:, i]^H, the image of atom i's outer product
    basis = (R[:, np.newaxis, :] * R.conj()[np.newaxis, :, :]).reshape(k * k, k)
    A = np.vstack([basis.real, basis.imag])
    rhs = np.concatenate([target.real.ravel(), target.imag.ravel()])
    weights, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    if np.any(weights <= WEIGHT_FLOOR):
        raise RecoveryError("recovered a nonpositive atom weight")

    if factored:
        residual = _frobenius((R2 * np.concatenate([-weights, M.weights])) @ R2.conj().T)
    else:
        residual = _frobenius(M - (V * weights) @ V.conj().T)
    measure = PointMassMeasure(atoms=tuple(zip(locs, weights)))
    return RecoveryResult(measure=measure, residual=residual, condition=float(np.linalg.cond(R)))


def _frobenius(A):
    """||A||_F, summed on A times a power of two near 1 / max|A|, so that no
    square of an entry near max|A| overflows or underflows."""
    top = float(np.abs(A).max(initial=0.0))
    if not 0 < top < math.inf:
        return top
    # capped, as 2^1074 (for a subnormal max) overflows
    scale = 2.0 ** -max(math.frexp(top)[1], -1000)
    return float(np.linalg.norm(A * scale)) / scale


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


def certify_measure(mu, G, n_max, tols=TOLERANCES):
    """The certificates of mu on its D(mu) Gram G = dmu_gram(mu, N): `nsd` of
    the forms of orders 1..n_max; `moment-identity`, max|D - M| over the one
    FactoredForm D - M, factor [U1^T, V] and weights (1, ..., 1, -w), for the
    defect D = U1^T conj(U1) and the moment matrix M = V diag(w) V^H of mu
    (context["N"] is N); `defect-rank`, the numerical rank of D against the
    atom count. tols holds the "nsd", "moment" and "rank" `TOLERANCES`."""
    N = G.generators.shape[1]
    certs = [
        certify_nsd(hyperexpansive_form(G, n), tol=tols["nsd"], order=n)
        for n in range(1, n_max + 1)
    ]
    D = defect_matrix(G)
    z, w = _locations_weights(mu)
    D_M = FactoredForm(np.hstack([D.factor, hardy.powers(z, N - 1).T]), np.r_[D.weights, -w])
    dev = float(np.abs(np.asarray(D_M)).max())
    certs.append(Certificate("moment-identity", dev <= tols["moment"], dev, tols["moment"], {"N": N}))
    rank = numerical_rank(D, tols["rank"])
    context = {"atoms": len(mu), "route": "factor"}
    certs.append(Certificate("defect-rank", rank == len(mu), rank, len(mu), context))
    return certs

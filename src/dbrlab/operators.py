"""Hyperexpansivity forms, NSD certification, defect matrices and rank checks.

Everything here is driven by a monomial Gram matrix: the order-n
hyperexpansivity form of the shift, compressed to span{1, ..., z^(N-1-n)},
is the alternating binomial sum of shifted Gram blocks. The shift is
n-hyperexpansive on the space exactly when those forms are negative
semidefinite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import debranges
from .dirichlet import GramMatrix

NSD_TOL = 1e-10
RANK_TOL = 1e-8
# a matrix whose sigma_1 is at most this has numerical rank 0
ZERO_SIGMA = 1e-300
# numerical_rank decides ranks up to SKETCH_COLS from a sketch, larger ones by SVD
SKETCH_COLS = 8
# c in the sketch's rounding allowance c * N * eps * ||M||_F: it covers the
# Householder Q's loss of orthogonality, the products forming S and E and
# the p x p eigvalsh (Higham 2002, ch. 3 and 19), with room
SKETCH_ROUNDING = 32


def _entries(G):
    if isinstance(G, GramMatrix):
        return G.entries
    return np.asarray(G, dtype=complex)


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


def hyperexpansive_form(G, n):
    """Order-n alternating binomial form B_n[j][k] = sum_i (-1)^i C(n,i) G[k+i][j+i].

    B_n is the compression of the order-n hyperexpansivity sum of the shift
    to the monomials z^0 .. z^(N-1-n); the binomials are exact integers.
    """
    A = _entries(G)
    N = A.shape[0]
    n = int(n)
    if not 1 <= n <= N - 1:
        raise ValueError(f"order {n} must satisfy 1 <= n <= {N - 1}")
    m = N - n
    B = np.zeros((m, m), dtype=complex)
    for i in range(n + 1):
        B += (-1) ** i * math.comb(n, i) * A[i : i + m, i : i + m].T
    return B


def certify_nsd(B, tol=NSD_TOL, order=None):
    """Certify a Hermitian form negative semidefinite: its top eigenvalue is <= tol.

    The Hermitian part H decides by one Cholesky factorization of tol*I - H,
    which succeeds only when every eigenvalue of H lies below tol (Rump,
    "Verification of positive definiteness", BIT 2006). On PASS the witness
    is max Re diag H, a Rayleigh-quotient lower bound on the top eigenvalue.
    When the factorization fails, eigvalsh(H) gives the top eigenvalue as
    the witness and the verdict top <= tol. context["witness"] names which
    of the two, "diagonal" or "eigenvalue", was reported; order only labels
    context["order"].
    """
    A = np.asarray(B, dtype=complex)
    C = np.conj(A.T)
    C += A
    C *= -0.5
    C[np.diag_indices_from(C)] += tol
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        witness = float(np.linalg.eigvalsh((A + A.conj().T) / 2)[-1])
        passed, source = witness <= tol, "eigenvalue"
    else:
        witness = float(A.diagonal().real.max()) if A.size else 0.0
        passed, source = True, "diagonal"
    return Certificate(
        kind="nsd",
        passed=passed,
        witness=witness,
        tolerance=tol,
        context={"order": order, "size": int(A.shape[0]), "witness": source},
    )


def defect_matrix(G):
    """D[i][j] = G[i+1][j+1] - G[i][j]: the Gram of the shift defect T*T - I."""
    A = _entries(G)
    if A.shape[0] < 2:
        raise ValueError("need a Gram matrix of size >= 2")
    return A[1:, 1:] - A[:-1, :-1]


def _start_block(n, k):
    """Fixed pseudo-random n x k block of unit-modulus entries.

    The phases are SplitMix64 outputs (Steele, Lea & Flood, OOPSLA 2014) of
    1, 2, ..., n*k, written in numpy so that a rank decision or a recovery
    does not import numpy.random (~13 ms and ~6 MB in a fresh process).
    """
    z = np.arange(1, n * k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    phase = (z >> np.uint64(11)).astype(float) * 2.0**-53
    return np.exp(2j * np.pi * phase).reshape(n, k)


def _sketch(H, p):
    """(Q, S): p columns from `_start_block`, two subspace-iteration steps
    on the Hermitian matrix H, each followed by a QR, and S = Q^H H Q."""
    Q = _start_block(H.shape[0], p)
    for _ in range(2):
        Q, _ = np.linalg.qr(H @ Q)
    S = Q.conj().T @ (H @ Q)
    return Q, (S + S.conj().T) / 2


def _sketch_rank(M, tau):
    """(count, Q, S): the count of numerical_rank, or None if undecided, from
    the `_sketch` (Q, S) of SKETCH_COLS columns on the Hermitian part H of M.

    Every singular value of M lies within e of the matching one of
    Q S Q^H, which are |eigenvalues of S| padded with zeros (Weyl/Mirsky),
    where e bounds ||M - Q S Q^H||_2 plus the rounding of the whole sketch.
    sigma_1 is at least m = max |eig S|, a Rayleigh quotient of H, hence of
    M. So tau * sigma_1 lies in [tau m, tau (m + e)], and the count is exact
    when the padding zeros lie below it (e < tau m) and no |eig S| lies
    within e of that interval. sigma_1 <= m + e also certifies a zero count
    when m + e <= ZERO_SIGMA. An empty M has count 0 and a non-square one
    no sketch: Q and S are then None.
    """
    if not 0 < tau < 1:
        raise ValueError("relative threshold must lie in (0, 1)")
    N = M.shape[0]
    if M.size == 0:
        return 0, None, None
    if M.shape[1] != N:
        return None, None, None
    H = np.conjugate(M.T, order="C")
    H += M
    H *= 0.5
    Q, S = _sketch(H, min(SKETCH_COLS, N))
    # the residual overwrites H: one N x N temporary in all
    E = np.matmul(Q @ S, Q.conj().T, out=H)
    E -= M
    rounding = SKETCH_ROUNDING * N * np.finfo(float).eps * np.linalg.norm(M)
    e = float(np.linalg.norm(E) + rounding)
    lam = np.abs(np.linalg.eigvalsh(S))
    m = float(lam.max())
    if m + e <= ZERO_SIGMA:
        return 0, Q, S
    lo, hi = tau * m, tau * (m + e)
    if not (m > ZERO_SIGMA and e < lo) or np.any((lam >= lo - e) & (lam <= hi + e)):
        return None, Q, S
    return int(np.count_nonzero(lam > hi)), Q, S


def numerical_rank(M, tau=RANK_TOL):
    """Number of singular values above tau * sigma_1; 0 for the zero matrix.

    Decided by a certified sketch of SKETCH_COLS columns (`_sketch_rank`,
    O(N^2) work) when that settles the count exactly; a full SVD only when
    it does not: rank above SKETCH_COLS, a singular value near the
    threshold, strongly non-Hermitian or non-square M.
    """
    M = np.asarray(M, dtype=complex)
    rank, _, _ = _sketch_rank(M, tau)
    if rank is None:
        s = np.linalg.svd(M, compute_uv=False)
        rank = 0 if s[0] <= ZERO_SIGMA else int(np.count_nonzero(s > tau * s[0]))
    return rank


def ratio_identity_check(G_b, pair, n_max, tol=1e-8):
    """Verify B_n = r^(n-2) B_2 for 3 <= n <= n_max on a common block.

    r = 1 - |beta - a'(0)/a(0)|^2 = 1 - |sigma/rho|^2 links every
    higher-order hyperexpansivity form of the shift on H(b) to the order-2
    form. All forms are truncated to the largest common block size.
    """
    n_max = int(n_max)
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    A = _entries(G_b)
    m = A.shape[0] - n_max
    if m < 1:
        raise ValueError(f"Gram size {A.shape[0]} too small for n_max = {n_max}")
    r = 1 - abs(pair.sigma / pair.rho) ** 2
    B2 = hyperexpansive_form(A, 2)[:m, :m]
    scale = max(1.0, float(np.linalg.norm(B2)))
    worst = 0.0
    for n in range(3, n_max + 1):
        Bn = hyperexpansive_form(A, n)[:m, :m]
        worst = max(worst, float(np.linalg.norm(Bn - r ** (n - 2) * B2)))
    return Certificate(
        kind="ratio-identity",
        passed=worst <= tol * scale,
        witness=worst,
        tolerance=tol * scale,
        context={"ratio": r, "n_max": n_max, "block": m},
    )


def rank1_defect_check(G_b, pair, tol=1e-8):
    """Verify the H(b) defect is rank 1 with eigenvalue rho^-2 ||S*b||_b^2.

    The defect entries are coefficients against non-orthonormal monomials,
    so the operator eigenvalue is the top generalized eigenvalue of the
    pencil (defect, Gram). A rank-1 defect D = d d^H has exactly one nonzero
    pencil eigenvalue, d^H G^-1 d, computed with one linear solve. It is
    compared with the independent closed-path value rho^-2 ||S*b||_b^2
    computed from the truncated shifted symbol.
    """
    A = _entries(G_b)
    D = defect_matrix(A)
    rank = numerical_rank(D)
    sb = debranges.shifted_symbol(pair.b)
    if len(sb) == 0:
        # b constant: zero defect, nothing to compare
        passed = rank == 0
        return Certificate(
            kind="rank1-defect",
            passed=passed,
            witness=float(np.abs(D).max()) if D.size else 0.0,
            tolerance=tol,
            context={"rank": rank, "degenerate": True},
        )
    ref = float(
        np.real(debranges.hb_inner(sb, sb, pair)) / pair.rho**2
    )
    # theta = d^H G^-1 d for D = d d^H, G = A[:-1, :-1]: the column of D through its
    # largest diagonal entry, scaled by that entry's square root, is d up to a phase.
    # Only meaningful when rank == 1, which the verdict requires.
    j = int(np.argmax(D.diagonal().real))
    d = D[:, j] / np.sqrt(D[j, j].real)
    theta = float(np.vdot(d, np.linalg.solve(A[:-1, :-1], d)).real)
    rel = abs(theta - ref) / abs(ref)
    return Certificate(
        kind="rank1-defect",
        passed=rank == 1 and rel <= tol,
        witness=rel,
        tolerance=tol,
        context={"rank": rank, "eigenvalue": theta, "reference": ref},
    )

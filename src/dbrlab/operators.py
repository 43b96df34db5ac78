"""Hyperexpansivity forms, NSD certification, defect matrices and rank checks.

Everything here is driven by a monomial Gram matrix G: the order-n
hyperexpansivity form of the shift, compressed to span{1, ..., z^(N-1-n)},
is the n-th iterated diagonal difference of G^T, X -> X[:-1, :-1] - X[1:, 1:]
(Pascal's rule on the alternating binomial sum of shifted Gram blocks). The
shift is n-hyperexpansive on the space exactly when those forms are
negative semidefinite.
"""

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
# c in the rounding allowance c * p * (p + 2) * eps * (1 + delta) * ||S||_F of a
# p-column sketch: the two length-p complex products that form Q S Q^H
# (at most sqrt(2) p (p + 2) eps, Higham 2002, sec. 3.5-3.6, with
# ||Q||_F^2 <= p (1 + delta)) and the backward error of the p x p eigvalsh
# of S (Householder tridiagonalization, ch. 19), with room
SKETCH_ROUNDING = 3
# rows formed at a time by the blocked loops (the Pascal panels of the
# forms, the residuals of the sketch and of the recovery), so that no N x N
# temporary is allocated
BLOCK_ROWS = 64


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


def hyperexpansive_forms(G, n_max):
    """Yield the forms B_1 .. B_n_max, B_n[j][k] = sum_i (-1)^i C(n,i) G[k+i][j+i].

    Pascal's rule C(n+1, i) = C(n, i) + C(n, i-1) gives
    B_(n+1) = B_n[:-1, :-1] - B_n[1:, 1:] from B_0 = G^T: one subtraction
    per order. Consume it in a loop, so that only two forms are alive.
    """
    B = _entries(G).T
    n_max = int(n_max)
    if n_max > B.shape[0] - 1:
        raise ValueError(f"order {n_max} exceeds N - 1 = {B.shape[0] - 1}")
    for _ in range(n_max):
        B = B[:-1, :-1] - B[1:, 1:]
        yield B


def hyperexpansive_form(G, n):
    """Order-n form B_n, the compression of the order-n hyperexpansivity sum
    of the shift to the monomials z^0 .. z^(N-1-n); see hyperexpansive_forms.

    Built BLOCK_ROWS rows of B_n^T at a time by `_pascal_panels`, so the
    only N x N array is the result; its entries are those of the n-th form
    of hyperexpansive_forms, bit for bit, and it is returned as the
    transpose of a C-ordered array, the layout that generator yields.
    """
    A = _entries(G)
    N = A.shape[0]
    n = int(n)
    if not 1 <= n <= N - 1:
        raise ValueError(f"order {n} must satisfy 1 <= n <= {N - 1}")
    out = np.empty((N - n, N - n), dtype=A.dtype)
    for i, k, P in _pascal_panels(A, n):
        if k == n:
            out[i : i + len(P)] = P
    return out.T


def _pascal_panels(A, n_max):
    """Yield (i, n, P) for each panel of at most BLOCK_ROWS rows i, i + 1, ...
    below N - n_max and for each order n = 1 .. n_max in turn: P holds those
    rows of B_n^T, all N - n of its columns.

    Pascal's rule commutes with transposition, so B_n^T is the n-th
    iterated difference X -> X[:-1, :-1] - X[1:, 1:] of A itself, and its
    rows i .. i + h - 1 need only the h + n contiguous rows of A from i on.
    Each panel copies h + n_max such rows into one flat work array of row
    length N, where X[a, b] - X[a + 1, b + 1] is entry t = a N + b minus
    entry t + N + 1: each order is then one in-place subtraction of two
    contiguous ranges, on the operands of the full forms, so its entries
    are theirs bit for bit. Columns b >= N - n hold wrapped-around values
    that P leaves out. P is a view of the work array, which the next order
    overwrites: keep a copy of any panel needed later.
    """
    N = A.shape[0]
    m = N - n_max
    work = np.empty((min(BLOCK_ROWS, m) + n_max) * N, dtype=A.dtype)
    for i in range(0, m, BLOCK_ROWS):
        h = min(BLOCK_ROWS, m - i)
        X = work[: (h + n_max) * N]
        X2 = X.reshape(h + n_max, N)
        X2[...] = A[i : i + h + n_max]
        for n in range(1, n_max + 1):
            # order n is valid on its first h + n_max - n rows; the last entry
            # of those rows lies in a wrapped column and is left as it was
            L = (h + n_max - n) * N - 1
            np.subtract(X[:L], X[N + 1 : N + 1 + L], out=X[:L])
            yield i, n, X2[:h, : N - n]


def certify_nsd(B, tol=NSD_TOL, order=None):
    """Certify a Hermitian form negative semidefinite: its top eigenvalue is <= tol.

    H is the Hermitian part of B. First the sketch of `_sketch_residual`
    gives (Q, S, e, delta) in O(N^2) work; H - Q S Q^H is the Hermitian
    part of B - Q S Q^H, whose 2-norm e bounds, so Weyl's inequality gives
    lambda_max(H) <= lambda_max(Q S Q^H) + e, and by Ostrowski's theorem
    lambda_max(Q S Q^H) <= max(lambda_max(S), 0) * ||Q||_2^2 with
    ||Q||_2^2 <= 1 + delta. The certificate passes on the sketch route when
    that bound, max(lambda_max(S), 0) * (1 + delta) + e, is <= tol; e covers
    the rounding of the products, of the residual's norm and of the p x p
    eigvalsh (SKETCH_ROUNDING). A low-rank form, as every form of an atomic
    measure is, decides here.

    A form with a NaN or infinite entry raises ValueError: its bound is
    non-finite, and no route can decide it. When the sketch does not decide
    (a full-rank or non-Hermitian form, a top eigenvalue near tol, a bound
    that overflows), the sketch is released and one Cholesky
    factorization of tol*I - H decides: it succeeds only when every
    eigenvalue of H lies below tol (Rump, "Verification of positive
    definiteness", BIT 2006). On PASS, by either route, the witness is
    max Re diag H, a Rayleigh-quotient lower bound on the top eigenvalue.
    When the factorization fails, eigvalsh(H) gives the top eigenvalue as
    the witness and the verdict top <= tol. context["witness"] names which
    of the two, "diagonal" or "eigenvalue", was reported; context["route"]
    names the deciding route, "sketch" or "cholesky", and context["bound"]
    is the sketch's bound; order only labels context["order"].
    """
    A = np.asarray(B, dtype=complex)
    bound = _nsd_bound(A)
    if not np.isfinite(bound) and not np.isfinite(A).all():
        raise ValueError("form has a NaN or infinite entry")
    route = "sketch" if bound <= tol else "cholesky"
    context = {"order": order, "size": int(A.shape[0]), "bound": bound, "route": route}
    if route == "cholesky":
        C = np.conj(A.T)
        C += A
        C *= -0.5
        C[np.diag_indices_from(C)] += tol
        try:
            np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            del C
            witness = float(np.linalg.eigvalsh((A + A.conj().T) / 2)[-1])
            context["witness"] = "eigenvalue"
            return Certificate("nsd", witness <= tol, witness, tol, context)
    witness = float(A.diagonal().real.max()) if A.size else 0.0
    context["witness"] = "diagonal"
    return Certificate("nsd", True, witness, tol, context)


def _nsd_bound(A):
    """The sketch's bound max(lambda_max(S), 0) * (1 + delta) + e on the top
    eigenvalue of the Hermitian part of A; its arrays die on return."""
    _, S, e, delta = _sketch_residual(A, min(SKETCH_COLS, A.shape[0]))
    if not np.isfinite(e):  # NaN or inf in A: no eigvalsh of S
        return e
    top = np.linalg.eigvalsh(S).max(initial=0.0)
    return float(top * (1 + delta) + e)


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


def _sketch(A, p):
    """(Q, S): p columns from `_start_block`, two subspace-iteration steps
    on A, each followed by a QR, and S the Hermitian part of Q^H A Q."""
    Q = _start_block(A.shape[0], p)
    for _ in range(2):
        Q, _ = np.linalg.qr(A @ Q)
    S = Q.conj().T @ (A @ Q)
    return Q, (S + S.conj().T) / 2


def _sketch_residual(A, p):
    """(Q, S, e, delta): the `_sketch` (Q, S) of the square A with p columns,
    e >= ||A - Q S Q^H||_2 and delta >= ||Q^H Q - I||_2.

    S is exactly Hermitian (its two triangles round alike), and
    Q S Q^H - A is evaluated BLOCK_ROWS rows at a time, summing squared
    norms, so no N x N array is allocated. e is that Frobenius norm, times
    1 + (N + 2)^2 eps for the rounding of the sum of 2 N^2 squares and of
    the subtraction, plus SKETCH_ROUNDING * p * (p + 2) * eps * (1 + delta)
    * ||S||_F for the products and the p x p eigvalsh of S; its callers may
    take eigvalsh(S) as exact. Those relative terms fail in the subnormal
    range, where each operation errs by up to half the smallest subnormal
    t: a norm below 2^-484 is summed again with the residual scaled by
    2^600, as the squares of entries below ~2^-537 underflow, and e adds
    8 N p (p + 2) t for the absolute roundings of the products, at least
    sqrt(2) N times the ~8 p (sqrt(p) + 1) t/2 of each entry. delta is
    ||fl(Q^H Q) - I||_F plus 2 (N + 2) p eps for that product (Higham
    2002, sec. 3.5): it only scales terms, so its N-dependence costs
    nothing.
    """
    N = A.shape[0]
    eps = np.finfo(float).eps
    Q, S = _sketch(A, p)
    W = S @ Q.conj().T
    norm = np.sqrt(_residual_squares(A, Q, W, 1.0))
    if norm < 2.0**-484:
        norm = np.sqrt(_residual_squares(A, Q, W, 2.0**600)) * 2.0**-600
    D = Q.conj().T @ Q
    D[np.diag_indices_from(D)] -= 1
    delta = float(np.linalg.norm(D)) + 2 * (N + 2) * p * eps
    rounding = SKETCH_ROUNDING * p * (p + 2) * eps * (1 + delta) * np.linalg.norm(S)
    subnormal = 8 * N * p * (p + 2) * np.finfo(float).smallest_subnormal
    e = float(norm * (1 + (N + 2) ** 2 * eps) + rounding + subnormal)
    return Q, S, e, delta


def _residual_squares(A, Q, W, scale):
    """||(Q W - A) * scale||_F^2, BLOCK_ROWS rows at a time; scale is a
    power of two, so scaling the tiny residuals it is used on is exact."""
    squares = 0.0
    for i in range(0, A.shape[0], BLOCK_ROWS):
        R = Q[i : i + BLOCK_ROWS] @ W
        R -= A[i : i + BLOCK_ROWS]
        if scale != 1:
            R *= scale
        squares += np.vdot(R, R).real
    return squares


def _sketch_rank(M, tau):
    """(count, Q, S): the count of numerical_rank, from the `_sketch_residual`
    (Q, S, e, delta) of M with SKETCH_COLS columns when that settles it, else
    from the SVD of M.

    Every singular value of M lies within e of the matching one of
    Q S Q^H (Weyl/Mirsky). Those are |eigenvalues of S|, each scaled by a
    factor in [1 - delta, 1 + delta] (Ostrowski), padded with zeros; so
    every singular value of M lies within e' = e + delta * (m + e) of the
    matching |eig S| or zero, m = max |eig S|. Hence sigma_1 lies in
    [m - e', m + e'], tau * sigma_1 in [lo, hi] = [tau (m - e'), tau (m + e')],
    and the sketch's count is exact when the padding zeros lie below it
    (e' < lo) and no |eig S| lies within e' of that interval. sigma_1 <= m + e'
    also certifies a zero count when m + e' <= ZERO_SIGMA. An empty M has
    count 0 and a non-square one goes straight to the SVD: Q and S are then
    None.
    """
    if not 0 < tau < 1:
        raise ValueError("relative threshold must lie in (0, 1)")
    N = M.shape[0]
    if M.size == 0:
        return 0, None, None
    Q = S = None
    if M.shape[1] == N:
        Q, S, e, delta = _sketch_residual(M, min(SKETCH_COLS, N))
        lam = np.abs(np.linalg.eigvalsh(S))
        m = float(lam.max())
        e += delta * (m + e)
        if m + e <= ZERO_SIGMA:
            return 0, Q, S
        lo, hi = tau * (m - e), tau * (m + e)
        if m > ZERO_SIGMA and e < lo and not np.any((lam >= lo - e) & (lam <= hi + e)):
            return int(np.count_nonzero(lam > hi)), Q, S
    s = np.linalg.svd(M, compute_uv=False)
    rank = 0 if s[0] <= ZERO_SIGMA else int(np.count_nonzero(s > tau * s[0]))
    return rank, Q, S


def numerical_rank(M, tau=RANK_TOL):
    """Number of singular values above tau * sigma_1; 0 for the zero matrix.

    Decided by a certified sketch of SKETCH_COLS columns (`_sketch_rank`,
    O(N^2) work) when that settles the count exactly; a full SVD only when
    it does not: rank above SKETCH_COLS, a singular value near the
    threshold, strongly non-Hermitian or non-square M.
    """
    return _sketch_rank(np.asarray(M, dtype=complex), tau)[0]


def ratio_identity_check(G_b, pair, n_max, tol=1e-8):
    """Verify B_n = r^(n-2) B_2 for 3 <= n <= n_max on a common block.

    r = 1 - |beta - a'(0)/a(0)|^2 = 1 - |sigma/rho|^2 links every
    higher-order hyperexpansivity form of the shift on H(b) to the order-2
    form. All forms are truncated to the largest common block size
    m = N - n_max, and the norms of the differences are summed one
    `_pascal_panels` panel at a time, so no full form is ever held.
    """
    n_max = int(n_max)
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    A = _entries(G_b)
    m = A.shape[0] - n_max
    if m < 1:
        raise ValueError(f"Gram size {A.shape[0]} too small for n_max = {n_max}")
    r = 1 - abs(pair.sigma / pair.rho) ** 2
    # squares[n]: ||B_n - r^(n-2) B_2||_F^2 for n >= 3 and ||B_2||_F^2, on the
    # m x m block, summed one panel at a time
    squares = np.zeros(n_max + 1)
    for _, n, P in _pascal_panels(A, n_max):
        if n == 2:
            B2 = P[:, :m].copy()
            squares[2] += np.vdot(B2, B2).real
        elif n > 2:
            D = B2 * r ** (n - 2)
            D -= P[:, :m]
            squares[n] += np.vdot(D, D).real
    worst = float(np.sqrt(squares[3:].max()))
    scale = max(1.0, float(np.sqrt(squares[2])))
    return Certificate(
        kind="ratio-identity",
        passed=worst <= tol * scale,
        witness=worst,
        tolerance=tol * scale,
        context={"ratio": r, "n_max": n_max, "block": m},
    )


def _pencil_top(G, d):
    """(theta, bound, iterations): d^H G^-1 d of a Hermitian G >= I by
    Jacobi-preconditioned conjugate gradients (Hestenes & Stiefel, 1952).

    Each step is one O(n^2) product with the n x n G, which is read in
    place. The preconditioner is 1 / diag(G). Entries of a search direction
    below eps * max|p| are flushed to zero, as `_toeplitz_gram` flushes its
    generators: graded iterates otherwise drift into subnormals. The loop
    stops when ||r||^2 <= eps * theta, or after n steps, where CG terminates
    in exact arithmetic; a NaN stops it at once. Then one more product gives
    the true residual r = d - G x, and theta = Re(d^H x) + Re(x^H r). For
    any x the exact value is theta + r^H G^-1 r, so theta is a lower bound,
    and when G >= I the gap is at most bound = ||r||^2.
    """
    eps = np.finfo(float).eps
    n = len(d)
    dinv = 1.0 / G.diagonal().real
    x = np.zeros_like(d)
    r = d.copy()
    p = r * dinv
    rz = np.vdot(r, p).real
    q = np.empty_like(d)
    theta = 0.0
    k = 0
    while k < n and np.vdot(r, r).real > eps * theta:
        p[np.abs(p) < eps * np.abs(p).max()] = 0
        np.matmul(G, p, out=q)
        alpha = rz / np.vdot(p, q).real
        x += alpha * p
        r -= alpha * q
        theta = np.vdot(d, x).real
        z = r * dinv
        rz, rz_old = np.vdot(r, z).real, rz
        p *= rz / rz_old
        p += z
        k += 1
    r = d - np.matmul(G, x, out=q)
    theta = float(np.vdot(d, x).real + np.vdot(x, r).real)
    return theta, float(np.vdot(r, r).real), k


def rank1_defect_check(G_b, pair, tol=1e-8):
    """Verify the H(b) defect is rank 1 with eigenvalue rho^-2 ||S*b||_b^2.

    The defect entries are coefficients against non-orthonormal monomials,
    so the operator eigenvalue is the top generalized eigenvalue of the
    pencil (defect, Gram). A rank-1 defect D = d d^H has exactly one nonzero
    pencil eigenvalue, theta = d^H G^-1 d, G the leading N - 1 block of the
    Gram. It is computed by Jacobi-preconditioned conjugate gradients on G
    (`_pencil_top`, O(N^2) per step, a few steps here), which stop at a
    reported lower bound with the exact value in [theta, theta + bound],
    bound = ||r||^2 for the final true residual r. The bracket needs
    lambda_min(G) >= 1, which holds on H(b): G = I + T T^H, since
    ||f||_b >= ||f||_2 for every polynomial f. theta is compared with the
    independent closed form: S*b = (c beta + gamma) k_w, the Cauchy kernel
    at w = conj(beta), so
    rho^-2 ||S*b||_b^2 = rho^-2 |c beta + gamma|^2 ||k_w||_b^2.
    context["route"] is "cg", context["iterations"] its step count and
    context["bound"] the bracket's width.
    """
    A = _entries(G_b)
    D = defect_matrix(A)
    rank = numerical_rank(D)
    b = pair.b
    q = b.c * b.beta + b.gamma
    if q == 0:
        # S*b = 0: zero defect, nothing to compare
        passed = rank == 0
        return Certificate(
            kind="rank1-defect",
            passed=passed,
            witness=float(np.abs(D).max()) if D.size else 0.0,
            tolerance=tol,
            context={"rank": rank, "degenerate": True},
        )
    ref = abs(q) ** 2 * debranges.hb_cauchy_norm(pair, np.conj(b.beta)) / pair.rho**2
    # theta = d^H G^-1 d for D = d d^H, G = A[:-1, :-1]: the column of D through its
    # largest diagonal entry, scaled by that entry's square root, is d up to a phase.
    # Only meaningful when rank == 1, which the verdict requires.
    j = int(np.argmax(D.diagonal().real))
    d = D[:, j] / np.sqrt(D[j, j].real)
    theta, bound, iterations = _pencil_top(A[:-1, :-1], d)
    rel = abs(theta - ref) / abs(ref)
    return Certificate(
        kind="rank1-defect",
        passed=rank == 1 and rel <= tol,
        witness=rel,
        tolerance=tol,
        context={
            "rank": rank,
            "eigenvalue": theta,
            "reference": ref,
            "route": "cg",
            "iterations": iterations,
            "bound": bound,
        },
    )

"""Hyperexpansivity forms, NSD certification, defect matrices and rank checks.

Everything here is driven by a monomial Gram matrix G: the order-n
hyperexpansivity form of the shift, compressed to span{1, ..., z^(N-1-n)},
is the n-th iterated diagonal difference of G^T, X -> X[:-1, :-1] - X[1:, 1:]
(Pascal's rule on the alternating binomial sum of shifted Gram blocks). The
shift is n-hyperexpansive on the space exactly when those forms are
negative semidefinite, and the defect is minus the transposed order-1 form.
A `GramMatrix` G = I + sum_r T_r T_r^H gives each form, the defect
included, as one product on its Toeplitz generator rows,
B_n^T = -X C_n X^H, without its entries; the two H(b) checks, the ratio
identity and the rank-1 defect, read those generators only.
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
# the factor of `_cholesky_factor` takes at most this many columns; numerical_rank
# decides larger ranks by SVD
SKETCH_COLS = 8
# c in the rounding allowances of the factor's residual (the length-p complex
# products of L L^H, at most sqrt(2) (p + 2) eps / 2 of |L||L|^T entrywise,
# Higham 2002, sec. 3.5-3.6) and of the rank's QR and p x p eigh (ch. 19),
# with room
SKETCH_ROUNDING = 3
# rows formed at a time by the blocked residuals of the factor and of the
# recovery, so that no N x N temporary is allocated
BLOCK_ROWS = 64


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

    From a GramMatrix each form is one product on its generator rows
    (`_generator_form`), and its entries are never built. From a plain
    array, Pascal's rule C(n+1, i) = C(n, i) + C(n, i-1) gives
    B_(n+1) = B_n[:-1, :-1] - B_n[1:, 1:] from B_0 = G^T: one subtraction
    per order. Consume it in a loop, so that only two forms are alive.
    """
    n_max = int(n_max)
    if isinstance(G, GramMatrix):
        U = G.generators
        _check_order(n_max, U.shape[1])
        for n in range(1, n_max + 1):
            yield _generator_form(U, n)
        return
    B = np.asarray(G, dtype=complex).T
    _check_order(n_max, B.shape[0])
    for _ in range(n_max):
        B = B[:-1, :-1] - B[1:, 1:]
        yield B


def hyperexpansive_form(G, n):
    """Order-n form B_n, the compression of the order-n hyperexpansivity sum
    of the shift to the monomials z^0 .. z^(N-1-n); see hyperexpansive_forms.

    A GramMatrix gives one `_generator_form`, the transpose of a C-ordered
    array; a plain array gives the last form of hyperexpansive_forms(G, n).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"order {n} must be >= 1")
    if isinstance(G, GramMatrix):
        _check_order(n, G.generators.shape[1])
        return _generator_form(G.generators, n)
    *_, B = hyperexpansive_forms(G, n)
    return B


def _check_order(n, N):
    if n > N - 1:
        raise ValueError(f"order {n} exceeds N - 1 = {N - 1}")


def _hankel(U, n, m):
    """The m x (k n) Hankel matrix X[i, r n + j] = U1[r, i + j], U1 = U[:, 1:]."""
    windows = np.lib.stride_tricks.sliding_window_view(U[:, 1:], n, axis=1)[:, :m]
    return windows.transpose(1, 0, 2).reshape(m, U.shape[0] * n)


def _pascal(n, width):
    """The first `width` of the alternating binomials (-1)^j C(n-1, j), zero for j >= n."""
    return np.array([(-1) ** j * math.comb(n - 1, j) for j in range(width)], dtype=float)


def _generator_form(U, n):
    """B_n of the Gram with generator rows U (k x N), 1 <= n <= N - 1.

    The defect is U1^T conj(U1), U1 = U[:, 1:], and B_n^T is minus the
    alternating binomial sum of its n shifted diagonal blocks, so
    B_n^T = -(X C_n) X^H: X the (N - n) x (k n) `_hankel` matrix and
    C_n = I_k ⊗ diag((-1)^j C(n-1, j)). That is one product of
    O(N^2 k n) work, no difference of the cumulative Gram entries, whose
    rounding the n-th Pascal difference would amplify by up to 2^n.
    """
    k, N = U.shape
    X = _hankel(U, n, N - n)
    return ((X * np.tile(-_pascal(n, n), k)) @ X.conj().T).T


def certify_nsd(B, tol=NSD_TOL, order=None):
    """Certify a Hermitian form negative semidefinite: its top eigenvalue is <= tol.

    H is the Hermitian part of B. First `_cholesky_factor` gives, in O(N^2)
    work, -H ~ L L^H and e >= ||B + L L^H||_F >= ||H + L L^H||_2. As -L L^H
    is NSD, Weyl's inequality gives lambda_max(H) <= e: the certificate
    passes on the factor's route when e <= tol, as it does for every form
    of an atomic measure, which has low rank. A transposed view (as
    `hyperexpansive_form` and `hyperexpansive_forms` return) is factored
    as its C-ordered transpose, whose Hermitian part H^T has the same
    spectrum.

    A form with a NaN or infinite entry raises ValueError: its bound is
    non-finite, and no route can decide it. When the factor does not decide
    (a full-rank or non-Hermitian form, a top eigenvalue near tol, a bound
    that overflows), the factor is released and one Cholesky
    factorization of tol*I - H decides: it succeeds only when every
    eigenvalue of H lies below tol (Rump, "Verification of positive
    definiteness", BIT 2006). On PASS, by either route, the witness is
    max Re diag H, a Rayleigh-quotient lower bound on the top eigenvalue.
    When the factorization fails, eigvalsh(H) gives the top eigenvalue as
    the witness and the verdict top <= tol. context["witness"] names which
    of the two, "diagonal" or "eigenvalue", was reported; context["route"]
    names the deciding route, "sketch" (the factor) or "cholesky", and
    context["bound"] is e; order only labels context["order"].
    """
    A = np.asarray(B, dtype=complex)
    bound = _cholesky_factor(A.T if A.flags.f_contiguous else A, -1)[1]
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


def defect_matrix(G):
    """D[i][j] = G[i+1][j+1] - G[i][j]: the Gram of the shift defect T*T - I.

    D = -B_1^T, the order-1 form: from a GramMatrix that is U1^T conj(U1)
    on its generator rows, with no entries built; from a plain array, the
    difference itself. A size below 2 raises ValueError.
    """
    D = hyperexpansive_form(G, 1).T
    return np.negative(D, out=D)


def _cholesky_factor(A, s):
    """(L, e): a diagonal-pivoted Cholesky factor s H ~ L L^H of the square A,
    H = (A + A^H)/2 and s = 1 or -1, and e >= ||A - s L L^H||_F.

    Each step pivots on the largest diagonal entry d_i of s H - L L^H, reads
    one column of H and appends l = (s H - L L^H) e_i / sqrt(d_i) to L
    (Higham 2002, sec. 10.3; Harbrecht, Peters & Schneider 2012). It stops
    after SKETCH_COLS columns, at a pivot <= 0 or <= 1e-13 of the first, or
    before a column that would drive some d_j below -0.1 d_i: what is left
    is then roundoff, not a PSD Schur complement, and pivoting into it only
    inflates e. An s H of rank k <= SKETCH_COLS, as every form and defect
    of a k-atomic measure is, takes k columns.

    e is the residual of the computed L, evaluated BLOCK_ROWS rows at a
    time, so no N x N array is allocated, times 1 + (N + 2)^2 eps for the
    rounding of the sum of 2 N^2 squares and of the subtraction, plus
    SKETCH_ROUNDING (p + 2) eps ||L||_F^2 for the length-p products of
    L L^H. Those relative terms fail in the subnormal range, where each
    operation errs by up to half the smallest subnormal t: a norm below
    2^-484 is summed again with the residual scaled by 2^600, as the squares
    of entries below ~2^-537 underflow, and e adds 8 N p (p + 2) t for the
    absolute roundings of the products, above N times the (4 p - 1) t of
    each entry (8 p - 2 real operations, t/2 each).
    """
    N = A.shape[0]
    d = s * A.diagonal().real
    floor = 1e-13 * d.max(initial=0.0)  # NaN if the diagonal holds one: no pivot passes
    Lt = np.empty((min(SKETCH_COLS, N), N), dtype=complex)  # the columns of L
    p = 0
    while p < len(Lt):
        i = int(np.argmax(d))
        pivot = d[i]
        if not pivot > floor:
            break
        col = A[:, i] + np.conj(A[i])
        col *= 0.5 * s
        col -= Lt[:p].T @ np.conj(Lt[:p, i])
        col /= np.sqrt(pivot)
        rest = d - (col.real**2 + col.imag**2)
        if rest.min() < -0.1 * pivot:
            break
        Lt[p], d = col, rest
        p += 1
    L, W = Lt[:p].T, np.conj(Lt[:p])
    norm = np.sqrt(_residual_squares(A, s * L, W, 1.0))
    if norm < 2.0**-484:
        norm = np.sqrt(_residual_squares(A, s * L, W, 2.0**600)) * 2.0**-600
    eps = np.finfo(float).eps
    rounding = SKETCH_ROUNDING * (p + 2) * eps * np.vdot(W, W).real
    subnormal = 8 * N * p * (p + 2) * np.finfo(float).smallest_subnormal
    return L, float(norm * (1 + (N + 2) ** 2 * eps) + rounding + subnormal)


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
    """(count, Q, eig): the count of numerical_rank from the `_cholesky_factor`
    M ~ L L^H (s = 1), or None when the factor leaves it undecided; Q R = L
    is the QR of the factor and eig = (eigenvalues, eigenvectors) the one
    `eigh` of S = R R^H, which recovery reuses for its Ritz basis.

    Every singular value of M lies within e of the matching one of L L^H
    (Weyl/Mirsky), and those are the eigenvalues of L^H L, padded with
    zeros. Householder QR gives L + dL = Q' R with Q' unitary and
    ||dL||_F <= h = SKETCH_ROUNDING (N + 2) p eps ||L||_F (Higham 2002,
    thm. 19.4), so sigma_i(R)^2 lies within h (2 ||L||_F + h) of
    sigma_i(L)^2; the product R R^H and its p x p eigh add
    SKETCH_ROUNDING p (p + 2) eps (||L||_F + h)^2. So every singular value
    of M lies within e' of the matching |eig S| or zero, with e' the sum of
    the three. Let m = max |eig S|: sigma_1 lies in [m - e', m + e'],
    tau * sigma_1 in [lo, hi] = [tau (m - e'), tau (m + e')], and the
    factor's count is exact when the padding zeros lie below it (e' < lo)
    and no |eig S| lies within e' of that interval. sigma_1 <= m + e' also
    certifies a zero count when m + e' <= ZERO_SIGMA. The factor reads only
    Herm(M) = H, and e >= ||M - L L^H||_F >= ||H - L L^H||_F, as taking the
    Hermitian part is a Frobenius contraction and L L^H is Hermitian: a
    decided count is also that of H. An empty M has count 0 and a
    non-square one count None: Q and eig are then None.
    """
    if not 0 < tau < 1:
        raise ValueError("relative threshold must lie in (0, 1)")
    N = M.shape[0]
    if M.size == 0:
        return 0, None, None
    if M.shape[1] != N:
        return None, None, None
    L, e = _cholesky_factor(M, 1)
    Q, R = np.linalg.qr(L)
    eig = np.linalg.eigh(R @ R.conj().T)
    lam = np.abs(eig[0])
    m = float(lam.max(initial=0.0))
    F, eps, p = float(np.linalg.norm(L)), np.finfo(float).eps, L.shape[1]
    h = SKETCH_ROUNDING * (N + 2) * p * eps * F
    e += h * (2 * F + h) + SKETCH_ROUNDING * p * (p + 2) * eps * (F + h) ** 2
    if m + e <= ZERO_SIGMA:
        return 0, Q, eig
    lo, hi = tau * (m - e), tau * (m + e)
    if m > ZERO_SIGMA and e < lo and not np.any((lam >= lo - e) & (lam <= hi + e)):
        return int(np.count_nonzero(lam > hi)), Q, eig
    return None, Q, eig


def _svd_rank(M, tau):
    """The rank rule on the singular values of M; a NaN or infinite entry raises ValueError."""
    s = np.linalg.svd(M, compute_uv=False)
    if not np.isfinite(s).all():  # an inf in M; a NaN makes the SVD raise
        raise ValueError("matrix has a NaN or infinite entry")
    return _count_above(s, tau)


def _count_above(s, tau):
    """The rank rule: 0 if max(s) <= ZERO_SIGMA, else the count of s above tau * max(s)."""
    top = s.max(initial=0.0)
    return 0 if top <= ZERO_SIGMA else int(np.count_nonzero(s > tau * top))


def numerical_rank(M, tau=RANK_TOL):
    """Number of singular values above tau * sigma_1; 0 for the zero matrix.

    Decided by a certified pivoted Cholesky factor (`_sketch_rank`, O(N^2)
    work) when that settles the count exactly, else by a full SVD: rank
    above SKETCH_COLS, a singular value near the threshold, indefinite,
    strongly non-Hermitian or non-square M.
    """
    M = np.asarray(M, dtype=complex)
    count = _sketch_rank(M, tau)[0]
    return _svd_rank(M, tau) if count is None else count


def _generators(G):
    if not isinstance(G, GramMatrix):
        raise TypeError("needs a GramMatrix: the check runs on its Toeplitz generators")
    return G.generators


def ratio_identity_check(G_b, pair, n_max, tol=1e-8):
    """Verify B_n = r^(n-2) B_2 for 3 <= n <= n_max on a common block.

    r = 1 - |beta - a'(0)/a(0)|^2 = 1 - |sigma/rho|^2 links every
    higher-order hyperexpansivity form of the shift on H(b) to the order-2
    form. All forms are truncated to the largest common block size
    m = N - n_max and read from the generators U (k x N) of the GramMatrix
    G_b, whose entries are never built. The defect is U1^T conj(U1),
    U1 = U[:, 1:], so on the block B_n^T = -Y P_n Y^H, with Y the
    m x (k n_max) `_hankel` matrix Y[i, r n_max + j] = U1[r, i + j] and
    P_n = I_k ⊗ diag((-1)^j C(n-1, j)), zero for j >= n. After one thin QR,
    Y = Q R, ||B_n - r^(n-2) B_2||_F = ||R (P_n - r^(n-2) P_2) R^H||_F and
    ||B_2||_F = ||R P_2 R^H||_F: O(m (k n_max)^2) work in all.
    context["route"] is "generators".
    """
    n_max = int(n_max)
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    U = _generators(G_b)
    k, N = U.shape
    m = N - n_max
    if m < 1:
        raise ValueError(f"Gram size {N} too small for n_max = {n_max}")
    r = 1 - abs(pair.sigma / pair.rho) ** 2
    R = np.linalg.qr(_hankel(U, n_max, m), mode="r")

    def core_norm(p):
        return float(np.linalg.norm((R * np.tile(p, k)) @ R.conj().T))

    P2 = _pascal(2, n_max)
    worst = max(core_norm(_pascal(n, n_max) - r ** (n - 2) * P2) for n in range(3, n_max + 1))
    scale = max(1.0, core_norm(P2))
    return Certificate(
        kind="ratio-identity",
        passed=worst <= tol * scale,
        witness=worst,
        tolerance=tol * scale,
        context={"ratio": r, "n_max": n_max, "block": m, "route": "generators"},
    )


def _gram_product(F, x):
    """G x for G = I + sum_r T_r T_r^H of size n = len(x), where F holds the
    length-L FFTs, L >= 2n - 1, of the generator rows cut to n entries.

    T_r^H x is a correlation and T_r y a convolution, each one circular
    product by FFT; the zero padding to L keeps the wrap-around out of the
    first n entries, the only ones kept.
    """
    fft = np.fft
    n = len(x)
    y = fft.ifft(np.conj(F) * fft.fft(x, F.shape[1]), axis=1)
    y[:, n:] = 0
    return x + fft.ifft((F * fft.fft(y, axis=1)).sum(axis=0))[:n]


def _pencil_top(U, d):
    """(theta, bound, iterations): d^H G^-1 d for the leading n = len(d) block
    G = I + sum_r T_r T_r^H of the Gram with generator rows U, by
    Jacobi-preconditioned conjugate gradients (Hestenes & Stiefel, 1952).

    That block is the Gram of U[:, :n]. Each step is one `_gram_product`,
    T_r^H and then T_r applied as Toeplitz products by FFT, so no n x n
    array is formed. The preconditioner is 1 / diag(G), with diag(G) one
    plus the cumulative sum of sum_r |U[r]|^2. Entries of a search
    direction below eps * max|p| are flushed to zero, as GramMatrix flushes
    its generators: graded iterates otherwise drift into subnormals. The
    loop stops when ||r||^2 <= eps * theta, or after n steps, where CG
    terminates in exact arithmetic; a NaN stops it at once. Then one more
    product gives the true residual r = d - G x, and
    theta = Re(d^H x) + Re(x^H r). For any x the exact value is
    theta + r^H G^-1 r, so theta is a lower bound, and when G >= I the gap
    is at most bound = ||r||^2.
    """
    eps = np.finfo(float).eps
    n = len(d)
    U = U[:, :n]
    F = np.fft.fft(U, 1 << (2 * n - 2).bit_length(), axis=1)
    dinv = 1.0 / (1 + np.cumsum((U.real**2 + U.imag**2).sum(axis=0)))
    x = np.zeros_like(d)
    r = d.copy()
    p = r * dinv
    rz = np.vdot(r, p).real
    theta = 0.0
    k = 0
    while k < n and np.vdot(r, r).real > eps * theta:
        p[np.abs(p) < eps * np.abs(p).max()] = 0
        q = _gram_product(F, p)
        alpha = rz / np.vdot(p, q).real
        x += alpha * p
        r -= alpha * q
        theta = np.vdot(d, x).real
        z = r * dinv
        rz, rz_old = np.vdot(r, z).real, rz
        p *= rz / rz_old
        p += z
        k += 1
    r = d - _gram_product(F, x)
    theta = float(np.vdot(d, x).real + np.vdot(x, r).real)
    return theta, float(np.vdot(r, r).real), k


def rank1_defect_check(G_b, pair, tol=1e-8):
    """Verify the H(b) defect is rank 1 with eigenvalue rho^-2 ||S*b||_b^2.

    Runs on the generator rows U of the GramMatrix G_b, whose entries are
    never built. The defect is D = U1^T conj(U1), U1 = U[:, 1:], so its
    singular values are those of U1 squared, and its rank, as
    numerical_rank counts it at RANK_TOL, comes from the SVD of the
    k x (N - 1) U1. The defect entries are coefficients against
    non-orthonormal monomials, so the operator eigenvalue is the top
    generalized eigenvalue of the pencil (defect, Gram). A rank-1 defect
    D = d d^H has exactly one nonzero pencil eigenvalue, theta = d^H G^-1 d,
    G the leading N - 1 block of the Gram. It is computed by
    Jacobi-preconditioned conjugate gradients on G (`_pencil_top`, Toeplitz
    products by FFT, a few steps here), which stop at a reported lower
    bound with the exact value in [theta, theta + bound], bound = ||r||^2
    for the final true residual r. The bracket needs lambda_min(G) >= 1,
    which holds on H(b): G = I + T T^H, since ||f||_b >= ||f||_2 for every
    polynomial f. theta is compared with the independent closed form:
    S*b = (c beta + gamma) k_w, the Cauchy kernel at w = conj(beta), so
    rho^-2 ||S*b||_b^2 = rho^-2 |c beta + gamma|^2 ||k_w||_b^2.
    context["route"] is "cg", context["iterations"] its step count and
    context["bound"] the bracket's width.
    """
    U = _generators(G_b)
    if U.shape[1] < 2:
        raise ValueError("need a Gram matrix of size >= 2")
    U1 = U[:, 1:]
    _, s, Vh = np.linalg.svd(U1, full_matrices=False)
    rank = _count_above(s**2, RANK_TOL)
    b = pair.b
    q = b.c * b.beta + b.gamma
    if q == 0:
        # S*b = 0: zero defect, nothing to compare
        passed = rank == 0
        return Certificate(
            kind="rank1-defect",
            passed=passed,
            # max|D|, the largest diagonal entry of the PSD D
            witness=float((U1.real**2 + U1.imag**2).sum(axis=0).max()),
            tolerance=tol,
            context={"rank": rank, "degenerate": True},
        )
    ref = abs(q) ** 2 * debranges.hb_cauchy_norm(pair, np.conj(b.beta)) / pair.rho**2
    # D = sum_i s_i^2 Vh[i]^T conj(Vh[i]), so when rank == 1, which the verdict
    # requires, D = d d^H for d = s_1 Vh[0]: exactly U1[0] when U has one row,
    # as an H(b) Gram has
    d = U1[0] if len(U1) == 1 else s[:1] @ Vh[:1]
    theta, bound, iterations = _pencil_top(U, d)
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

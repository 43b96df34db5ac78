"""Hyperexpansivity forms, NSD certification, defect matrices and rank checks.

Everything here is driven by a monomial Gram matrix G: the order-n
hyperexpansivity form of the shift, compressed to span{1, ..., z^(N-1-n)},
is the n-th iterated diagonal difference of G^T, X -> X[:-1, :-1] - X[1:, 1:]
(Pascal's rule on the alternating binomial sum of shifted Gram blocks). The
shift is n-hyperexpansive on the space exactly when those forms are
negative semidefinite, and the defect is minus the transposed order-1 form.
A `GramMatrix` G = I + sum_r T_r T_r^H gives each form, the defect
included, as the `FactoredForm` of its Toeplitz generator rows,
B_n^T = -X C_n X^H, without its entries, and the NSD verdict and the rank
are decided on that factor's small core. Of the two H(b) checks, the ratio
identity reads those generators only, and the rank-1 defect its one row
and the symbol's banded factors of the Gram.
"""

import math

import numpy as np

from . import debranges, hardy
from .dirichlet import FactoredForm, GramMatrix
from .symbols import TOLERANCES, Certificate

# a matrix whose sigma_1 is at most this has numerical rank 0
ZERO_SIGMA = 1e-300


def hyperexpansive_form(G, n):
    """Order-n form B_n[j][k] = sum_i (-1)^i C(n,i) G[k+i][j+i], the order-n
    hyperexpansivity sum of the shift compressed to z^0 .. z^(N-1-n).

    A GramMatrix gives the FactoredForm of its generator rows
    (`_generator_form`); no N x N array is built. A plain array takes n steps
    of Pascal's rule, B_(m+1) = B_m[:-1, :-1] - B_m[1:, 1:] from B_0 = G^T.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"order {n} must be >= 1")
    if isinstance(G, GramMatrix):
        _check_order(n, G.generators.shape[1])
        return _generator_form(G.generators, n)
    B = np.asarray(G, dtype=complex).T
    _check_order(n, B.shape[0])
    for _ in range(n):
        B = B[:-1, :-1] - B[1:, 1:]
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
    B_n^T = -X C_n X^H: X the (N - n) x (k n) `_hankel` matrix and
    C_n = I_k ⊗ diag((-1)^j C(n-1, j)). Transposed, B_n is the FactoredForm
    Y diag(c) Y^H with Y = conj(X) and c = -diag(C_n): an exact factor, with
    no difference of the cumulative Gram entries, whose rounding the n-th
    Pascal difference would amplify by up to 2^n.
    """
    k, N = U.shape
    return FactoredForm(np.conj(_hankel(U, n, N - n)), -np.tile(_pascal(n, n), k))


def _core(F):
    """The core S of F = Q S Q^H: for a FactoredForm, R diag(c) R^H from the
    thin QR F.factor = Q R (Q is not formed), p' x p' with p' = min(m, p) for
    the m x p factor; for a plain array, whose NaN or infinite entry raises
    ValueError, its Hermitian part (F + F^H) / 2, built in place. F has the
    eigenvalues of S and, when m > p', the 0 of the complement of Q's range.
    """
    if not isinstance(F, FactoredForm):
        A = np.asarray(F, dtype=complex)
        if not np.isfinite(A).all():
            raise ValueError("form has a NaN or infinite entry")
        S = np.conj(A.T)
        S += A
        S *= 0.5
        return S
    R = np.linalg.qr(F.factor, mode="r")
    return (R * F.weights) @ R.conj().T


def certify_nsd(B, tol=TOLERANCES["nsd"], order=None):
    """Certify a Hermitian form negative semidefinite: its top eigenvalue is <= tol.

    A FactoredForm F = Q S Q^H (`_core`) is decided on route "factor" from
    the eigenvalues of its small core S, whose size is context["core"]. The
    top eigenvalue of F is the largest of them and, when the factor has more
    rows than S, the 0 of the complement of Q's range. A plain array is
    decided on route "dense" by eigvalsh of its Hermitian part (`_core`). On both
    routes the top eigenvalue is the witness (context["witness"] is
    "eigenvalue"), and the certificate passes when it is <= tol.

    A NaN or infinite entry, in the form or in its factor, raises
    ValueError: no route can decide it. context["route"] names the route,
    context["size"] the form's size; order only labels context["order"].
    """
    S = _core(B)
    context = {"size": len(S), "route": "dense"}
    if isinstance(B, FactoredForm):
        context = {"size": B.shape[0], "core": len(S), "route": "factor"}
    m = context["size"]
    top = float(np.linalg.eigvalsh(S).max(initial=-np.inf if len(S) == m > 0 else 0.0))
    context.update(order=order, witness="eigenvalue")
    return Certificate("nsd", top <= tol, top, tol, context)


def defect_matrix(G):
    """D[i][j] = G[i+1][j+1] - G[i][j]: the Gram of the shift defect T*T - I.

    D = -B_1^T, the order-1 form: from a GramMatrix the FactoredForm
    U1^T conj(U1) of its generator rows, U1 = U[:, 1:], with weights 1; from
    a plain array, the difference itself. A size below 2 raises ValueError.
    """
    if isinstance(G, GramMatrix):
        U = G.generators
        _check_order(1, U.shape[1])
        return FactoredForm(U[:, 1:].T, np.ones(len(U)))
    D = hyperexpansive_form(G, 1).T
    return np.negative(D, out=D)


def _count_above(s, tau):
    """The rank rule: 0 if max(s) <= ZERO_SIGMA, else the count of s above
    tau * max(s). A tau outside (0, 1) or a NaN or infinite s raises ValueError."""
    if not 0 < tau < 1:
        raise ValueError("relative threshold must lie in (0, 1)")
    if not np.isfinite(s).all():
        raise ValueError("matrix has a NaN or infinite entry")
    top = s.max(initial=0.0)
    return 0 if top <= ZERO_SIGMA else int(np.count_nonzero(s > tau * top))


def numerical_rank(M, tau=TOLERANCES["rank"]):
    """Number of singular values above tau * sigma_1; 0 for the zero matrix.

    A FactoredForm is Hermitian: its singular values are the |eigenvalues|
    of its core (`_core`), and the zeros of the complement count for none.
    A plain array takes one SVD. A NaN or infinite entry raises ValueError.
    """
    if isinstance(M, FactoredForm):
        s = np.abs(np.linalg.eigvalsh(_core(M)))
    else:
        s = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    return _count_above(s, tau)


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


def _pencil_top(pair, d):
    """theta = d^H G^-1 d for the leading n = len(d) block G of the H(b) Gram
    of the nonextreme pair, from the symbol's banded factors.

    On degree < n, with (J f)_i = f_(i+1), f+ = B A^-1 f for A = rho - conj(sigma) J
    and B = conj(c) + conj(gamma) J: the (1 - conj(beta) J)^-1 factors of
    T_conj(a) and T_conj(b) cancel, as both are polynomials in J. So
    G = conj(I + (B A^-1)^H B A^-1) = conj(A^-H K A^-1) with K = A^H A + B^H B,
    Hermitian positive definite and tridiagonal: K[0, 0] = k0 = rho^2 + |c|^2,
    K[i, i] = k1 = k0 + |sigma|^2 + |gamma|^2 for i >= 1 and
    K[i, i-1] = e = conj(c) gamma - rho sigma. Then theta = y^H K^-1 y with
    y = A^H conj(d), y_i = rho conj(d_i) - sigma conj(d_(i-1)).

    K is Toeplitz but for a rank-1 corner (a rank-k one would take Woodbury's identity):
    K = D L L^H - delta e0 e0^T, L = I + t S (S the down-shift), t = e / D, where
    D = (k1 + sqrt((k1 - 2|e|)(k1 + 2|e|))) / 2, the larger root of D + |e|^2 / D = k1, is
    the limit of K's LDL^H pivots and delta = D - k0 >= 0: |e|^2 <= k0 (k1 - k0) by
    Cauchy-Schwarz puts k0 between the roots. With v = L^-1 y (`hardy.geometric_scan`,
    ratio -t), g = L^-1 e0 = (-t)^i and h = g^H v, Sherman-Morrison gives

        theta = (||v||^2 + delta |h|^2 / q) / D,  q = k0 - delta sum_(i>=1) |g_i|^2,

    whose two terms add. q = D - delta ||g||^2 > 0 is formed from k0: through D it cancels.

    Forward error, to first order in eps (complex product sqrt(2) eps, complex sum and
    product with a real eps / 2, Higham 2002 sec. 3.6; the pair's constants and d exact;
    underflow not counted). The rounded k0, D, t and D - k0 make the formula exact for a
    tridiagonal K' off K by at most b0 = 2 eps k0 at the corner,
    be = eps (sqrt(2) |c gamma| + rho |sigma| / 2 + |e|) off the diagonal and
    b1 = 33/8 eps k1 on the rest of it: 3 eps k1 from k1's sums, and 9/8 eps k1 as D errs
    by eps (5 s / 8 + |e|^2 / s + D / 2), s = D - |e|^2 / D, which moves D + |e|^2 / D by
    s / D times that. This conditioning term, w^H (K - K') w for
    w = K^-1 y = L^-H (v + delta h g / q) / D, is at most
    b0 |w_0|^2 + b1 sum_(i>=1) |w_i|^2 + 2 be sum_(i>=1) |w_i w_(i-1)|. On K', y_i errs by
    (sqrt(2) + 1/2) eps Y_i, Y_i = rho |d_i| + |sigma| |d_(i-1)|, and the scan by
    (sqrt(2) (n - 1) + (sqrt(2) + 1/2) L) eps, L = ceil(log2 n), of the absolute scan
    S_i = sum_j |t|^j Y_(i-j) >= |v_i| (`hardy.difference_quotient`). So v_i errs by at
    most Kv eps S_i, Kv = sqrt(2) (n - 1) + (sqrt(2) + 1/2) (L + 1), and ||v||^2 by
    2 Kv eps sum_i |v_i| S_i + (n + 1) eps ||v||^2 / 2. g_i errs by sqrt(2) i eps |t|^i
    and the dot product by (sqrt(2) + (n - 1) / 2) eps sum_i |g_i v_i|, so h errs by
    Kh eps P, Kh = Kv + sqrt(2) n + (n - 1) / 2, P = sum_i |t|^i S_i, and the corner term
    c = delta |h|^2 / q by 2 delta |h| Kh eps P / q + c (3 eps + dq / q), where q errs by
    dq = eps ((2 sqrt(2) (n - 1) + n / 2 + 1) delta sum_(i>=1) |g_i|^2 + q / 2). Both
    errors are divided by D; the final sum and division add eps theta.
    """
    b, rho, sigma = pair.b, pair.rho, pair.sigma
    e = b.c.conjugate() * b.gamma - rho * sigma  # K[i, i-1]
    k0 = rho * rho + abs(b.c) ** 2
    k1 = k0 + abs(sigma) ** 2 + abs(b.gamma) ** 2
    # k1 - 2|e| is (1 - |beta|)^2 for an exact mate, and may round below 0
    D = (k1 + math.sqrt(max(k1 - 2 * abs(e), 0.0) * (k1 + 2 * abs(e)))) / 2
    x, t = np.conj(d), e / D
    v = rho * x
    v[1:] -= sigma * x[:-1]
    hardy.geometric_scan(v, -t)
    g, delta = hardy.powers(-t, len(v)), D - k0
    h, q = np.vdot(g, v), k0 - delta * np.vdot(g[1:], g[1:]).real
    return float(np.vdot(v, v).real + delta * abs(h) ** 2 / q) / D


def rank1_defect_check(G_b, pair, tol=1e-8):
    """Verify the H(b) defect is rank 1 with eigenvalue rho^-2 ||S*b||_b^2.

    Runs on the one generator row U of the GramMatrix G_b (`hb_gram`),
    whose entries are never built; a Gram with any other number of rows
    raises ValueError. The defect is D = d d^H, d = U[0, 1:], and its rank
    is numerical_rank(defect_matrix(G_b)), as the defect-rank certificate
    counts it. The defect entries are coefficients against
    non-orthonormal monomials, so the operator eigenvalue is the top
    generalized eigenvalue of the pencil (defect, Gram): a rank-1 defect
    has exactly one nonzero pencil eigenvalue, theta = d^H G^-1 d,
    G the leading N - 1 block of the Gram. It is applied through the
    pair's banded factors, G = conj(A^-H K A^-1) with A bidiagonal and K
    tridiagonal (`_pencil_top`), so G_b must be hb_gram of this pair. theta
    is compared with the independent closed form: S*b = (c beta + gamma) k_w,
    the Cauchy kernel at w = conj(beta), so
    rho^-2 ||S*b||_b^2 = rho^-2 |c beta + gamma|^2 ||k_w||_b^2.
    context["route"] is "banded".
    """
    U = _generators(G_b)
    if len(U) != 1:
        raise ValueError(f"needs an H(b) Gram of one generator row, got {len(U)}")
    if U.shape[1] < 2:
        raise ValueError("need a Gram matrix of size >= 2")
    d = U[0, 1:]
    rank = numerical_rank(defect_matrix(G_b))
    b = pair.b
    q = b.c * b.beta + b.gamma
    if q == 0:
        # S*b = 0: zero defect, nothing to compare
        passed = rank == 0
        return Certificate(
            kind="rank1-defect",
            passed=passed,
            # max|D|, the largest diagonal entry of the PSD D
            witness=float((d.real**2 + d.imag**2).max()),
            tolerance=tol,
            context={"rank": rank, "degenerate": True},
        )
    ref = abs(q) ** 2 * debranges.hb_cauchy_norm(pair, np.conj(b.beta)) / pair.rho**2
    theta = _pencil_top(pair, d)
    rel = abs(theta - ref) / abs(ref)
    return Certificate(
        kind="rank1-defect",
        passed=rank == 1 and rel <= tol,
        witness=rel,
        tolerance=tol,
        context={"rank": rank, "eigenvalue": theta, "reference": ref, "route": "banded"},
    )

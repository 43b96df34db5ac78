"""The O(N^2) Toeplitz-generator Gram builds against dense and mpmath oracles."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dbrlab import debranges, hardy
from dbrlab.debranges import MoebiusSymbol, hb_gram, pythagorean_mate
from dbrlab.dirichlet import PointMassMeasure, dmu_gram, moment_matrix
from dbrlab.operators import defect_matrix, rank1_defect_check
from dbrlab.synthesis import synthesized_pair

SIZES = [1, 2, 3, 24, 128]

MEASURES = [
    PointMassMeasure.empty(),
    PointMassMeasure.single(0, 1.0),
    PointMassMeasure.single(np.exp(1.1j), 0.7),
    PointMassMeasure(atoms=((0.6 - 0.3j, 1.3), (-1.0, 0.4))),
    PointMassMeasure(atoms=((0, 0.5), (0.5, 1.0), (-0.3 + 0.4j, 2.0))),
    PointMassMeasure(
        atoms=((0.9j, 0.2), (np.exp(-2.5j), 1.5), (0.2 - 0.7j, 0.8), (0, 3.0))
    ),
]

C_SYMBOLS = [
    MoebiusSymbol(0.3 + 0.1j, 0.4 - 0.2j, 0.2 + 0.3j),
    MoebiusSymbol(0.1j, 0.4, 0.2 - 0.3j),
    MoebiusSymbol(-0.5, 0.3j, -0.2),
]

PAIRS = [pythagorean_mate(b) for b in C_SYMBOLS] + [
    synthesized_pair(1.2, 0),
    synthesized_pair(0.8, 0.5j),
    synthesized_pair(1.0, np.exp(0.3j)),
]


def dense_dmu_gram(mu, n):
    """I + sum_k w_k V_k V_k^H, row m of V_k the quotient (z^m - z_k^m)/(z - z_k)."""
    G = np.eye(n, dtype=complex)
    for z, w in mu.atoms:
        V = np.zeros((n, max(n - 1, 1)), dtype=complex)
        for m in range(1, n):
            V[m, :m] = np.asarray(z, dtype=complex) ** np.arange(m - 1, -1, -1)
        G += w * V @ V.conj().T
    return G


def per_column_hb_gram(pair, n):
    """I + P P^H with row k of P the separately solved (z^k)+."""
    P = np.zeros((n, n), dtype=complex)
    for k in range(n):
        fp = debranges.fplus(hardy.monomial(k), pair)
        P[k, : len(fp)] = fp
    return np.eye(n) + P @ P.conj().T


def rel_dev(G, ref):
    return np.abs(G - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("mu", MEASURES, ids=lambda mu: f"{len(mu)}atoms")
def test_dmu_gram_matches_dense_quotients(mu, n):
    assert rel_dev(dmu_gram(mu, n).entries, dense_dmu_gram(mu, n)) <= 1e-13


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"rho={p.rho:.3f}")
def test_hb_gram_matches_per_column_solves(pair, n):
    assert rel_dev(hb_gram(pair, n).entries, per_column_hb_gram(pair, n)) <= 1e-13


def test_hb_gram_makes_one_fplus_solve(monkeypatch):
    calls = []
    solve = debranges.fplus

    def counting_fplus(f, pair):
        calls.append(len(f))
        return solve(f, pair)

    monkeypatch.setattr(debranges, "fplus", counting_fplus)
    hb_gram(PAIRS[0], 64)
    assert calls == [64]


@pytest.mark.parametrize(
    "build",
    [
        lambda: dmu_gram(PointMassMeasure.single(0.1 + 0.05j, 0.5), 512),
        lambda: hb_gram(pythagorean_mate(MoebiusSymbol(0.2, 0.1j, 0.05)), 512),
    ],
    ids=["dmu", "hb"],
)
def test_graded_tails_stay_normal(build):
    # squares of entries below sqrt(tiny) are subnormal, which slows LAPACK
    # several-fold on the Gram and its defect
    G = build().entries
    floor = np.sqrt(np.finfo(float).tiny)
    for M in (G, defect_matrix(G)):
        assert np.abs(M[M != 0]).min() >= floor


def test_rank1_pencil_stays_normal(monkeypatch):
    # the defect vector d is graded far below roundoff for small |beta|; the
    # banded recurrence for d^H G^-1 d runs on its flushed entries, no dense
    # solve may run, and the result must still match the dense generalized
    # eigensolve
    solves = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        solves.append((a, b))
        return solve(a, b)

    for symbol in [(0.2, 0.1j, 0.05), (0.5, 0.3, 0)]:
        pair = pythagorean_mate(MoebiusSymbol(*symbol))
        Gram = hb_gram(pair, 512)
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        cert = rank1_defect_check(Gram, pair)
        monkeypatch.undo()
        G = Gram.entries
        D, Gsub = defect_matrix(G), G[:-1, :-1]
        want = scipy.linalg.eigh(D, Gsub, eigvals_only=True)[-1]
        assert cert.passed
        assert cert.context["eigenvalue"] == pytest.approx(want, rel=1e-12)
        assert not solves


# ---- 50-digit oracle ------------------------------------------------------

ORACLE_N = 12


def mp_dmu_gram(mu, n):
    G = mpmath.eye(n)
    for z, w in mu.atoms:
        z = mpmath.mpc(z)
        for i in range(n):
            for j in range(n):
                G[i, j] += w * mpmath.fsum(
                    z ** (i - 1 - m) * mpmath.conj(z) ** (j - 1 - m)
                    for m in range(min(i, j))
                )
    return G


def mp_hb_gram(b, n):
    """Dense upper-triangular solves T_conj(a) x = T_conj(b) z^k, mate in mpmath."""
    c, gamma, beta = (mpmath.mpc(v) for v in (b.c, b.gamma, b.beta))
    s = 1 + abs(beta) ** 2 - abs(c) ** 2 - abs(gamma) ** 2
    root = beta + mpmath.conj(c) * gamma
    rho = mpmath.sqrt((s + mpmath.sqrt(s**2 - 4 * abs(root) ** 2)) / 2)
    sigma = root / rho

    def taylor(c0, top):
        return [c0] + [beta ** (k - 1) * top for k in range(1, n)]

    a = taylor(rho, rho * beta - sigma)
    bt = taylor(c, c * beta + gamma)
    Ta = mpmath.matrix(n, n)
    Tb = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            Ta[i, j] = mpmath.conj(a[j - i])
            Tb[i, j] = mpmath.conj(bt[j - i])
    P = mpmath.matrix(n, n)  # row k is (z^k)+
    for k in range(n):
        x = mpmath.lu_solve(Ta, Tb[:, k])
        for m in range(n):
            P[k, m] = x[m]
    return mpmath.eye(n) + P * P.H


def mp_rel_dev(G, ref):
    scale = max(abs(ref[i, j]) for i in range(ORACLE_N) for j in range(ORACLE_N))
    dev = max(
        abs(mpmath.mpc(complex(G[i, j])) - ref[i, j])
        for i in range(ORACLE_N)
        for j in range(ORACLE_N)
    )
    return float(dev / scale)


@pytest.mark.parametrize(
    "mu",
    [PointMassMeasure.single(0.6 - 0.3j, 1.3), PointMassMeasure.single(np.exp(0.7j), 0.4)],
    ids=["interior", "boundary"],
)
def test_dmu_gram_mpmath_oracle(mu):
    with mpmath.workdps(50):
        ref = mp_dmu_gram(mu, ORACLE_N)
        assert mp_rel_dev(dmu_gram(mu, ORACLE_N).entries, ref) <= 1e-14


def test_hb_gram_mpmath_oracle():
    b = C_SYMBOLS[0]
    with mpmath.workdps(50):
        ref = mp_hb_gram(b, ORACLE_N)
        assert mp_rel_dev(hb_gram(pythagorean_mate(b), ORACLE_N).entries, ref) <= 1e-14


# ---- property: the D(mu) defect is the moment matrix ----------------------

atom = st.tuples(
    st.one_of(st.just(1.0), st.floats(0, 1)),  # radius, boundary allowed
    st.floats(0, 2 * np.pi),
    st.floats(0.1, 3),
)


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(atom, min_size=1, max_size=4), n=st.integers(1, 64))
def test_dmu_defect_is_moment_matrix(atoms, n):
    locs = [r * np.exp(1j * t) for r, t, _ in atoms]
    assume(len(set(locs)) == len(locs))
    mu = PointMassMeasure(atoms=tuple(zip(locs, (w for _, _, w in atoms))))
    G = dmu_gram(mu, n + 1).entries
    scale = np.abs(G).max()
    assert np.abs(defect_matrix(G) - moment_matrix(mu, n)).max() <= 1e-12 * scale
    assert np.abs(G - G.conj().T).max() <= 1e-15 * scale
    assert np.all(np.diag(G).imag == 0) and np.all(np.diag(G).real >= 1)

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dbrlab.debranges import MoebiusSymbol, hb_inner, pythagorean_mate, validate_symbol
from dbrlab.dirichlet import PointMassMeasure, dmu_gram, moment_matrix
from dbrlab.moments import recover_atoms
from dbrlab.operators import (
    SKETCH_COLS,
    certify_nsd,
    defect_matrix,
    hyperexpansive_form,
    hyperexpansive_forms,
    numerical_rank,
    rank1_defect_check,
    ratio_identity_check,
)
from dbrlab.synthesis import synthesized_pair
from dbrlab.debranges import hb_gram

from oracles import binomial_form, symbol_taylor
from test_dirichlet import random_measure

EPS = np.finfo(float).eps


class TestHyperexpansiveForm:
    def test_isometry_first_order(self):
        B = hyperexpansive_form(np.eye(5), 1)
        assert np.all(B == 0)

    def test_delta0_second_order(self):
        G = dmu_gram(PointMassMeasure.single(0, 1.0), 4)
        B = hyperexpansive_form(G, 2)
        assert np.allclose(B, np.diag([-1, 0]))

    def test_boundary_atom_two_isometry(self):
        # atoms on the circle give a vanishing order-2 form
        G = dmu_gram(PointMassMeasure.single(np.exp(0.7j), 1.3), 12)
        B = hyperexpansive_form(G, 2)
        assert np.abs(B).max() <= 1e-10

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            hyperexpansive_form(np.eye(3), 3)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            hyperexpansive_form(np.eye(3), 0)

    @pytest.mark.parametrize("n_max", [0, 1, 4, 9])
    def test_forms_yield_one_array_per_order(self, n_max):
        G = dmu_gram(PointMassMeasure.single(0.5j, 1.0), 10)
        shapes = [B.shape for B in hyperexpansive_forms(G, n_max)]
        assert shapes == [(10 - n, 10 - n) for n in range(1, n_max + 1)]

    def test_forms_reject_order_beyond_gram(self):
        with pytest.raises(ValueError):
            list(hyperexpansive_forms(np.eye(4), 4))

    def test_form_is_last_of_forms(self):
        G = dmu_gram(PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.4j, 0.5))), 12)
        for n, B in enumerate(hyperexpansive_forms(G, 11), 1):
            assert np.array_equal(hyperexpansive_form(G, n), B)


class TestCertifyNsd:
    def test_zero(self):
        cert = certify_nsd(np.zeros((3, 3)), 1e-10)
        assert cert.passed and cert.witness == 0

    def test_diag_nsd(self):
        assert certify_nsd(np.diag([-1.0, 0.0]), 1e-10).passed

    def test_positive_fails(self):
        cert = certify_nsd(np.diag([0.1]), 1e-10)
        assert not cert.passed and cert.witness == pytest.approx(0.1)
        assert cert.context["witness"] == "eigenvalue"

    def test_pass_witness_is_top_diagonal(self):
        # PASS reports max Re diag H, a lower bound on the top eigenvalue
        B = np.array([[-1.0, 0.5j], [-0.5j, -2.0]])
        cert = certify_nsd(B, 1e-10)
        assert cert.passed and cert.witness == -1.0
        assert cert.context["witness"] == "diagonal"
        assert cert.witness <= np.linalg.eigvalsh(B)[-1]

    def test_hermitian_part_decides(self):
        # the skew part carries no quadratic form: H = diag(-1, -1) here
        B = np.array([[-1.0, 5.0], [-5.0, -1.0]])
        assert certify_nsd(B, 1e-10).passed

    def test_complete_hyperexpansivity_random_measures(self):
        rng = np.random.default_rng(30)
        for _ in range(8):
            mu = random_measure(rng)
            N = int(rng.integers(8, 65))
            G = dmu_gram(mu, N)
            for n in range(1, 7):
                assert certify_nsd(hyperexpansive_form(G, n), 1e-10).passed

    def test_b2_dichotomy(self):
        # boundary atoms: order-2 form vanishes; an interior atom with
        # weight >= 0.1 and |z| <= 0.9 forces an eigenvalue below
        # -0.1*(1 - 0.9^2), witnessed by the first diagonal entry
        boundary = PointMassMeasure(
            atoms=((np.exp(0.3j), 0.5), (np.exp(2.1j), 1.2))
        )
        B = hyperexpansive_form(dmu_gram(boundary, 10), 2)
        assert np.abs(B).max() <= 1e-10
        interior = PointMassMeasure(
            atoms=((0.9 * np.exp(1j), 0.1), (np.exp(2.1j), 1.2))
        )
        B = hyperexpansive_form(dmu_gram(interior, 10), 2)
        c = 0.1 * (1 - 0.9**2)
        assert np.linalg.eigvalsh((B + B.conj().T) / 2)[0] <= -c + 1e-12


class TestDefectAndRank:
    def test_defect_equals_moments(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            mu = random_measure(rng)
            G = dmu_gram(mu, 10)
            assert np.abs(defect_matrix(G) - moment_matrix(mu, 9)).max() <= 1e-12

    def test_identity_gram_zero_defect(self):
        assert np.all(defect_matrix(np.eye(4)) == 0)

    def test_hb_defect_is_single_atom_moment(self):
        alpha, lam = 1.0, 0.5
        pair = synthesized_pair(alpha, lam)
        D = defect_matrix(hb_gram(pair, 9))
        expected = np.outer(lam ** np.arange(8), np.conj(lam) ** np.arange(8))
        assert np.abs(D - expected).max() <= 1e-10

    def test_rank_three_atoms(self):
        mu = PointMassMeasure(atoms=((0.5, 1.0), (0.3 + 0.4j, 2.0), (-0.6, 0.5)))
        assert numerical_rank(moment_matrix(mu, 8), 1e-8) == 3

    def test_rank_zero_and_one(self):
        assert numerical_rank(np.zeros((4, 4)), 1e-8) == 0
        v = 0.7 ** np.arange(5)
        assert numerical_rank(np.outer(v, v), 1e-8) == 1

    def test_rank_matches_atom_count(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            mu = random_measure(rng)
            D = defect_matrix(dmu_gram(mu, len(mu) + 3))
            assert numerical_rank(D, 1e-8) == len(mu)

    @pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, -0.1])
    def test_rejects_bad_threshold(self, tau):
        v = 0.7 ** np.arange(12)
        for M in (np.outer(v, v), np.eye(12)):
            with pytest.raises(ValueError):
                numerical_rank(M, tau)

    def test_empty_matrix(self):
        assert numerical_rank(np.zeros((0, 0))) == 0


def spy(monkeypatch, name):
    """Record the shape of every np.linalg.<name> argument."""
    real, shapes = getattr(np.linalg, name), []

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


class TestSketchRank:
    def test_more_atoms_than_sketch_columns(self, monkeypatch):
        # two light atoms beyond the 8 the sketch can hold: its residual is
        # far below the heavy eigenvalues but far above tau * sigma_1
        locs = 0.9 * np.exp(2j * np.pi * np.arange(10) / 10)
        mu = PointMassMeasure(atoms=tuple(zip(locs, [1.0] * 8 + [1e-3] * 2)))
        svds = spy(monkeypatch, "svd")
        assert numerical_rank(moment_matrix(mu, 40)) == 10
        assert svds == [(40, 40)]

    def test_margin_below_rounding_goes_to_svd(self, monkeypatch):
        # sigma_2 clears tau * sigma_1 by 1e-13, inside the sketch's rounding
        # allowance (32 * 64 * eps ~ 4.5e-13) though far above its real error
        M = np.diag([1.0, 1e-8 + 1e-13] + [0.0] * 62)
        svds = spy(monkeypatch, "svd")
        assert numerical_rank(M, 1e-8) == 2
        assert svds == [(64, 64)]

    def test_zero_matrix_needs_no_svd(self, monkeypatch):
        svds = spy(monkeypatch, "svd")
        assert numerical_rank(np.zeros((512, 512))) == 0
        assert svds == []

    def test_non_hermitian_shift(self, monkeypatch):
        svds = spy(monkeypatch, "svd")
        assert numerical_rank(np.eye(30, k=1)) == 29
        assert svds == [(30, 30)]

    def test_non_square(self, monkeypatch):
        v, w = 0.7 ** np.arange(9), 0.5 ** np.arange(5)
        M = np.outer(v, w) + np.outer(np.cos(np.arange(9)), np.sin(np.arange(5)))
        svds = spy(monkeypatch, "svd")
        assert numerical_rank(M) == 2
        assert svds == [(9, 5)]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_low_rank_defect_needs_no_dense_spectrum(self, monkeypatch, k):
        rng = np.random.default_rng(34 + k)
        atoms = [(np.exp(2j * np.pi * rng.uniform()), rng.uniform(0.1, 3))]
        while len(atoms) < k:
            z = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            if all(abs(z - z0) >= 0.1 for z0, _ in atoms):
                atoms.append((z, rng.uniform(0.1, 3)))
        D = defect_matrix(dmu_gram(PointMassMeasure(atoms=tuple(atoms)), 512))
        svds, eigs = spy(monkeypatch, "svd"), spy(monkeypatch, "eigvalsh")
        assert numerical_rank(D) == k
        qrs = spy(monkeypatch, "qr")
        assert len(recover_atoms(D).measure) == k
        # the two sketch steps, shared by the rank and the basis, and one Vandermonde QR
        assert qrs == [(511, SKETCH_COLS)] * 2 + [(511, k)]
        assert svds == []
        assert eigs and all(max(shape) <= SKETCH_COLS for shape in eigs)


sketch_atom = st.tuples(
    st.one_of(st.just(1.0), st.floats(0, 1)),  # radius, boundary allowed
    st.floats(0, 2 * np.pi),
    st.floats(1e-3, 3),
)


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(sketch_atom, min_size=0, max_size=12),
    twin=st.one_of(st.none(), st.floats(-5, -3)),
    N=st.integers(1, 80),
    defect=st.booleans(),
    noise=st.sampled_from([0.0, 1e-14]),
    log_tau=st.one_of(st.just(-8.0), st.floats(-15, -0.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sketch_rank_matches_svd(atoms, twin, N, defect, noise, log_tau, seed):
    locs = [r * np.exp(1j * t) for r, t, _ in atoms]
    weights = [w for _, _, w in atoms]
    if twin is not None and locs:
        # a near-collision: an atom about 10^twin from the first, inside the disk
        z = locs[0] * (1 - 10**twin) if abs(locs[0]) > 0.5 else locs[0] + 10**twin
        locs.append(z)
        weights.append(weights[0])
    assume(len(set(locs)) == len(locs))
    mu = PointMassMeasure(atoms=tuple(zip(locs, weights)))
    if defect:
        M = defect_matrix(dmu_gram(mu, N + 1))
    else:
        M = moment_matrix(mu, N)
    rng = np.random.default_rng(seed)
    E = rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape)
    M = M + noise * np.abs(M).max() * E
    # the dense reference: singular values above tau * sigma_1, none of them
    # within 1e-6 * tau * sigma_1 of that threshold
    s = np.linalg.svd(M, compute_uv=False)
    threshold = 10**log_tau * s[0]
    assume(s[0] == 0 or not np.any(np.abs(s - threshold) <= 1e-6 * threshold))
    want = 0 if s[0] <= 1e-300 else int(np.count_nonzero(s > threshold))
    assert numerical_rank(M, 10**log_tau) == want


class TestRatioIdentity:
    def test_sigma_zero_ratio_one(self):
        # sigma = 0 gives r = 1, so every higher form equals B_2
        pair = pythagorean_mate(MoebiusSymbol(0, 1 / np.sqrt(2), 0))
        cert = ratio_identity_check(hb_gram(pair, 16), pair, 5)
        assert cert.passed and cert.context["ratio"] == pytest.approx(1.0)

    def test_boundary_ratio_zero(self):
        # boundary atom synthesis: rho = |sigma|, r = 0, forms vanish for n >= 3
        pair = synthesized_pair(1.0, np.exp(1j * np.pi / 3))
        cert = ratio_identity_check(hb_gram(pair, 16), pair, 5)
        assert cert.passed
        assert cert.context["ratio"] == pytest.approx(0.0, abs=1e-12)

    def test_interior_synthesized(self):
        pair = synthesized_pair(1.0, 0.5)
        cert = ratio_identity_check(hb_gram(pair, 20), pair, 5, tol=1e-8)
        assert cert.passed

    def test_rejects_small_gram(self):
        pair = synthesized_pair(1.0, 0.5)
        with pytest.raises(ValueError):
            ratio_identity_check(hb_gram(pair, 4), pair, 5)


class TestRank1Defect:
    def test_scaled_shift_eigenvalue_one(self):
        pair = pythagorean_mate(MoebiusSymbol(0, 1 / np.sqrt(2), 0))
        cert = rank1_defect_check(hb_gram(pair, 10), pair)
        assert cert.passed
        assert cert.context["rank"] == 1
        assert cert.context["eigenvalue"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_symbol_degenerate(self):
        pair = pythagorean_mate(MoebiusSymbol(0, 0, 0))
        cert = rank1_defect_check(hb_gram(pair, 6), pair)
        assert cert.passed and cert.context["rank"] == 0

    def test_synthesized_half(self):
        pair = synthesized_pair(1.0, 0.5)
        cert = rank1_defect_check(hb_gram(pair, 24), pair)
        assert cert.passed and cert.witness <= 1e-8

    def test_constant_symbol_degenerate(self):
        # c beta + gamma = 0 exactly: b = (0.5 - 0.2 z)/(1 - 0.4 z) = 0.5, S*b = 0
        pair = pythagorean_mate(MoebiusSymbol(0.5, -0.2, 0.4))
        cert = rank1_defect_check(hb_gram(pair, 8), pair)
        assert cert.passed and cert.context["degenerate"]

    def test_reference_matches_truncated_series(self):
        # the closed form rho^-2 |c beta + gamma|^2 ||k_conj(beta)||_b^2 against
        # the H(b) norm of the Taylor series of S*b, cut where |beta|^k < 1e-17
        rng = np.random.default_rng(36)
        for _ in range(12):
            c, gamma, beta = np.exp(2j * np.pi * rng.uniform(size=3)) * rng.uniform(0.1, 0.9, 3)
            pair = pythagorean_mate(valid_symbol(c, gamma, beta, rng.uniform(0.1, 0.95)))
            sb = symbol_taylor(pair.b, 400)[1:]
            want = hb_inner(sb, sb, pair).real / pair.rho**2
            cert = rank1_defect_check(hb_gram(pair, 256), pair)
            assert cert.passed
            assert cert.context["reference"] == pytest.approx(want, rel=1e-12)


# ---- NSD verdict: one Cholesky factorization against the top eigenvalue ----

atom = st.tuples(
    st.one_of(st.just(1.0), st.floats(0, 1)),  # radius, boundary allowed
    st.floats(0, 2 * np.pi),
    st.floats(0.1, 3),
)


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(atom, min_size=0, max_size=3),
    N=st.integers(2, 40),
    order=st.integers(1, 5),
    log_tol=st.floats(-10, -4),
    offset=st.floats(-1, 1),
)
def test_certify_nsd_matches_top_eigenvalue(atoms, N, order, log_tol, offset):
    locs = [r * np.exp(1j * t) for r, t, _ in atoms]
    assume(len(set(locs)) == len(locs))
    mu = PointMassMeasure(atoms=tuple(zip(locs, (w for _, _, w in atoms))))
    order = min(order, N - 1)
    A = hyperexpansive_form(dmu_gram(mu, N), order)
    tol = 10**log_tol
    # shift the form so its top eigenvalue lands near tol * (1 + offset)
    top = np.linalg.eigvalsh((A + A.conj().T) / 2)[-1]
    A = A + (tol * (1 + offset) - top) * np.eye(N - order)
    top = np.linalg.eigvalsh((A + A.conj().T) / 2)[-1]
    cert = certify_nsd(A, tol)
    if abs(top - tol) > 1e-3 * tol:
        assert cert.passed == (top <= tol)
    if cert.passed:
        assert cert.context["witness"] in ("diagonal", "eigenvalue")
        assert cert.witness <= top + 1e-3 * tol
    else:
        assert cert.context["witness"] == "eigenvalue"
        assert cert.witness == top


# ---- forms by Pascal's rule against closed forms and the binomial sum ----

@settings(max_examples=200, deadline=None)
@given(atoms=st.lists(atom, min_size=0, max_size=4), N=st.integers(2, 48))
def test_dmu_forms_are_weighted_moment_matrices(atoms, N):
    # B_n = -(moment matrix of the weights w (1 - |z|^2)^(n-1))^T
    locs = [r * np.exp(1j * t) for r, t, _ in atoms]
    assume(len(set(locs)) == len(locs))
    mu = PointMassMeasure(atoms=tuple(zip(locs, (w for _, _, w in atoms))))
    G = dmu_gram(mu, N).entries
    scale = N * EPS * np.abs(G).max()
    for n, B in enumerate(hyperexpansive_forms(G, N - 1), 1):
        m = N - n
        want = np.zeros((m, m), dtype=complex)
        for z, w in mu.atoms:
            p = z ** np.arange(m)
            want -= w * (1 - abs(z) ** 2) ** (n - 1) * np.outer(p, p.conj()).T
        assert np.abs(B - want).max() <= 2**n * scale


def valid_symbol(c, gamma, beta, fraction):
    """(c, gamma) scaled to `fraction` of the largest scale with ||b||_inf <= 1."""
    lo, hi = 0.0, 1.0 / np.hypot(abs(c), abs(gamma))
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if validate_symbol(mid * c, mid * gamma, beta).valid else (lo, mid)
    return MoebiusSymbol(fraction * lo * c, fraction * lo * gamma, beta)


unit = st.tuples(st.floats(0.1, 1), st.floats(0, 2 * np.pi)).map(
    lambda rt: rt[0] * np.exp(1j * rt[1])
)


@settings(max_examples=150, deadline=None)
@given(
    c=unit,
    gamma=unit,
    beta=st.tuples(st.floats(0, 0.9), st.floats(0, 2 * np.pi)).map(
        lambda rt: rt[0] * np.exp(1j * rt[1])
    ),
    fraction=st.floats(0.05, 0.95),
    N=st.integers(2, 48),
)
def test_hb_forms_match_binomial_sums(c, gamma, beta, fraction, N):
    pair = pythagorean_mate(valid_symbol(c, gamma, beta, fraction))
    G = hb_gram(pair, N).entries
    scale = N * EPS * np.abs(G).max()
    for n, B in enumerate(hyperexpansive_forms(G, N - 1), 1):
        assert np.abs(B - binomial_form(G, n)).max() <= 2**n * scale

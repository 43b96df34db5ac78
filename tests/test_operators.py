import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dbrlab.debranges import MoebiusSymbol, hb_inner, pythagorean_mate, validate_symbol
from dbrlab.dirichlet import PointMassMeasure, dmu_gram, moment_matrix
from dbrlab.moments import recover_atoms
from dbrlab.operators import (
    BLOCK_ROWS,
    SKETCH_COLS,
    _cholesky_factor,
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

from oracles import (
    binomial_form,
    dmu_forms_closed,
    pencil_top_dense,
    ratio_witness_dense,
    symbol_taylor,
)
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


# (N, n): N <= BLOCK_ROWS, n = N - 1, N - n a multiple of BLOCK_ROWS or not
form_case = st.integers(2, 200).flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N - 1)))


@settings(max_examples=60, deadline=None)
@given(case=form_case, seed=st.integers(0, 2**32 - 1))
@example(case=(2, 1), seed=0)
@example(case=(BLOCK_ROWS, BLOCK_ROWS - 1), seed=1)
@example(case=(BLOCK_ROWS + 1, 1), seed=2)
@example(case=(2 * BLOCK_ROWS + 5, 5), seed=3)
@example(case=(200, 7), seed=4)
@example(case=(200, 199), seed=5)
def test_form_panels_equal_the_generator(case, seed):
    N, n = case
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    *_, want = hyperexpansive_forms(G, n)
    got = hyperexpansive_form(G, n)
    assert np.array_equal(got, want)
    assert got.flags.f_contiguous == want.flags.f_contiguous


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

    @pytest.mark.parametrize(
        "entry, value", [((3, 7), np.nan), ((5, 5), np.nan), ((2, 9), np.inf)]
    )
    def test_non_finite_form_is_rejected(self, entry, value):
        # np.linalg.cholesky does not raise on NaN, so the Cholesky route would
        # PASS these NaN forms; inf makes eigvalsh raise LinAlgError instead
        A = np.zeros((20, 20), dtype=complex)
        A[entry] = value
        with pytest.raises(ValueError, match="NaN or infinite"), np.errstate(invalid="ignore"):
            certify_nsd(A)

    def test_finite_form_whose_bound_overflows_goes_to_cholesky(self):
        with np.errstate(over="ignore", invalid="ignore"):
            cert = certify_nsd(-1e200 * np.eye(20))
        assert not np.isfinite(cert.context["bound"])
        assert cert.passed and cert.context["route"] == "cholesky"
        assert cert.witness == -1e200

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

    @pytest.mark.parametrize("shape, entry, value", [
        ((20, 20), (2, 2), np.inf), ((20, 20), (3, 7), np.inf), ((20, 20), (5, 5), np.nan),
        ((9, 5), (2, 2), np.inf),
    ])
    def test_non_finite_matrix_is_rejected(self, shape, entry, value):
        # the SVD of a matrix holding inf returns NaN singular values without
        # raising; they must not count as rank 0
        M = np.eye(*shape, dtype=complex)
        M[entry] = value
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            numerical_rank(M)


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
        # two light atoms beyond the 8 the factor can hold: its residual is
        # far below the heavy eigenvalues but far above tau * sigma_1
        locs = 0.9 * np.exp(2j * np.pi * np.arange(10) / 10)
        mu = PointMassMeasure(atoms=tuple(zip(locs, [1.0] * 8 + [1e-3] * 2)))
        svds = spy(monkeypatch, "svd")
        assert numerical_rank(moment_matrix(mu, 40)) == 10
        assert svds == [(40, 40)]

    def test_recovery_decides_the_rank_with_one_sketch(self, monkeypatch):
        # the undecided 8-column factor goes straight to the SVD of the same
        # matrix; k = 10 exceeds its columns, so the basis comes from one
        # dense eigh, then one Vandermonde QR
        locs = 0.9 * np.exp(2j * np.pi * np.arange(10) / 10)
        mu = PointMassMeasure(atoms=tuple(zip(locs, [1.0] * 8 + [1e-3] * 2)))
        M = moment_matrix(mu, 40)
        qrs, svds, eighs = spy(monkeypatch, "qr"), spy(monkeypatch, "svd"), spy(monkeypatch, "eigh")
        assert len(recover_atoms(M).measure) == 10
        assert qrs == [(40, SKETCH_COLS), (40, 10)]
        assert svds == [(40, 40)]
        assert eighs == [(40, 40)]

    def test_margin_below_rounding_goes_to_svd(self, monkeypatch):
        # sigma_2 clears tau * sigma_1 by 1e-13, inside the factor's allowance
        # for the backward error of its QR (2 * 3 * 66 * 2 * eps ~ 1.8e-13 of
        # sigma_1) though far above its real error
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
        qrs, eighs = spy(monkeypatch, "qr"), spy(monkeypatch, "eigh")
        assert len(recover_atoms(D).measure) == k
        # a k-column factor, shared by the rank and the basis, and one Vandermonde QR
        assert qrs == [(511, k)] * 2
        assert svds == []
        # each rank decision is one k x k eigvalsh; the Ritz basis one k x k eigh
        assert eigs == [(k, k)] * 2 and eighs == [(k, k)]


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

    @pytest.mark.parametrize("N", [512, 2 * BLOCK_ROWS + 8 + 1])
    def test_panels_match_dense_forms(self, N):
        # the H(b) Gram satisfies the identity; a 3-atom D(mu) Gram does not,
        # so its witness is far from roundoff. N = 2 BLOCK_ROWS + 9 leaves a
        # last panel of one row.
        pair = synthesized_pair(1.0, 0.5)
        r = 1 - abs(pair.sigma / pair.rho) ** 2
        for G in (hb_gram(pair, N), three_atom_gram(N)):
            cert = ratio_identity_check(G, pair, 8)
            worst, scale = ratio_witness_dense(G, r, 8)
            assert cert.witness == pytest.approx(worst, rel=1e-12)
            assert cert.tolerance == pytest.approx(1e-8 * scale, rel=1e-12)
            assert cert.context["block"] == N - 8
        assert not cert.passed and cert.witness > 1e-3


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

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_jacobi_settles_boundary_pairs_in_few_steps(self, alpha):
        # a boundary atom gives the worst-conditioned Grams of the class
        # (||G||_1 ~ 1e5 at N = 512): the Jacobi-preconditioned iteration takes
        # 42-53 steps there, plain CG 180-285
        pair = synthesized_pair(alpha, np.exp(0.7j))
        cert = rank1_defect_check(hb_gram(pair, 512), pair)
        assert cert.passed and cert.context["route"] == "cg"
        assert cert.context["iterations"] <= 512 // 4


unit_phase = st.floats(0, 2 * np.pi).map(lambda t: complex(np.exp(1j * t)))


@settings(max_examples=40, deadline=None)
@given(
    pair=st.one_of(
        st.tuples(
            st.tuples(st.floats(0.1, 1), unit_phase).map(lambda rt: rt[0] * rt[1]),
            st.tuples(st.floats(0.1, 1), unit_phase).map(lambda rt: rt[0] * rt[1]),
            st.tuples(st.floats(0, 0.9), unit_phase).map(lambda rt: rt[0] * rt[1]),
            st.floats(0.05, 0.99),
        ).map(lambda a: pythagorean_mate(valid_symbol(*a))),
        st.tuples(st.floats(0.2, 2), unit_phase).map(lambda a: synthesized_pair(*a)),
    ),
    N=st.integers(2, 600),
)
def test_pencil_eigenvalue_brackets_the_dense_solve(pair, N):
    # the exact theta lies in [eigenvalue, eigenvalue + bound]; both routes
    # round their (N - 1)-term dot products, and the LU oracle errs by up to
    # ~kappa eps theta, kappa <= ||G||_1 as G >= I
    G = hb_gram(pair, N).entries
    cert = rank1_defect_check(G, pair)
    want = pencil_top_dense(G)
    theta, bound = cert.context["eigenvalue"], cert.context["bound"]
    slack = (N + np.abs(G[:-1, :-1]).sum(axis=0).max()) * EPS * want
    assert theta - slack <= want <= theta + bound + slack
    assert cert.context["route"] == "cg"
    assert cert.context["iterations"] <= N - 1


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


def peak_bytes(f, *args):
    """(result, peak bytes traced while f runs, above what was allocated before)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def three_atom_gram(N):
    mu = PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.4j, 0.5), (0.2j - 0.6, 0.8)))
    return dmu_gram(mu, N)


class TestSketchNsd:
    def test_low_rank_forms_need_no_cholesky(self, monkeypatch):
        G = three_atom_gram(256)
        chol = spy(monkeypatch, "cholesky")
        for n, B in enumerate(hyperexpansive_forms(G, 5), 1):
            cert = certify_nsd(B, order=n)
            assert cert.passed and cert.context["route"] == "sketch"
            assert 0 <= cert.context["bound"] <= cert.tolerance
            assert cert.context["witness"] == "diagonal"
        assert chol == []

    def test_negated_weights_fail_by_cholesky(self):
        # 2I - G negates every weight: the order-1 form is the moment matrix
        # transposed, PSD with top eigenvalue >= the total weight 2.3
        G = three_atom_gram(64).entries
        cert = certify_nsd(hyperexpansive_form(2 * np.eye(64) - G, 1))
        assert not cert.passed and cert.witness >= 2.3
        assert cert.context["route"] == "cholesky"
        assert cert.context["witness"] == "eigenvalue"
        assert cert.context["bound"] >= cert.witness

    def test_positive_direction_outside_sketch_fails(self):
        # eight eigenvalues -1 fill the factor's eight columns; only the
        # residual e sees the ninth eigenvalue, 1e-3
        A = np.diag([-1.0] * SKETCH_COLS + [1e-3] + [0.0] * 31).astype(complex)
        cert = certify_nsd(A)
        assert not cert.passed and cert.witness == pytest.approx(1e-3)
        assert cert.context["route"] == "cholesky"

    def test_tiny_positive_direction_outside_sketch_fails(self):
        # the same at scale 1e-200: the residual's squares underflow, so summed
        # unscaled they would give e = 0 and a PASS of a top eigenvalue 1e-220
        A = 1e-200 * np.diag([-1.0] * SKETCH_COLS + [1e-20] + [0.0] * 31).astype(complex)
        cert = certify_nsd(A, tol=1e-250)
        assert not cert.passed and cert.witness == pytest.approx(1e-220)
        assert cert.context["route"] == "cholesky"

    def test_sketch_route_allocates_less_than_one_form(self):
        B = next(hyperexpansive_forms(three_atom_gram(513), 1))
        N = B.shape[0]
        cert, peak = peak_bytes(certify_nsd, B)
        assert cert.passed and cert.context["route"] == "sketch"
        assert peak < N * N * 16

    def test_rank_sketch_allocates_less_than_one_defect(self):
        D = defect_matrix(three_atom_gram(513))
        N = D.shape[0]
        rank, peak = peak_bytes(numerical_rank, D)
        assert rank == 3
        assert peak < N * N * 16

    def test_cholesky_route_holds_no_sketch_array(self):
        # tol*I - H, then np.linalg.cholesky's copy of it and the factor: three
        # N x N arrays at the peak, none left over from the factor
        G = three_atom_gram(513).entries
        A = hyperexpansive_form(2 * np.eye(513) - G, 1)
        N = A.shape[0]
        cert, peak = peak_bytes(certify_nsd, A)
        assert not cert.passed and cert.context["route"] == "cholesky"
        assert peak < 3.5 * N * N * 16


class TestPanelMemory:
    """tracemalloc peaks at N = 512, in N x N complex arrays."""

    NN = 512 * 512 * 16

    def test_ratio_identity_holds_no_full_form(self):
        pair = synthesized_pair(1.0, 0.5)
        G = hb_gram(pair, 512)
        cert, peak = peak_bytes(ratio_identity_check, G, pair, 8)
        assert cert.passed
        assert peak < self.NN

    def test_single_form_allocates_little_beyond_its_result(self):
        G = three_atom_gram(512)
        B, peak = peak_bytes(hyperexpansive_form, G, 5)
        assert B.shape == (507, 507)
        assert peak < 1.25 * self.NN

    def test_recovery_holds_one_hermitian_copy(self):
        D = defect_matrix(three_atom_gram(513))
        result, peak = peak_bytes(recover_atoms, D)
        assert len(result.measure) == 3
        assert peak < 1.5 * self.NN


def exact_residual(A, L, s):
    """||A - s L L^H||_F of the given floats, at 40 digits."""
    with mpmath.workdps(40):
        E = mpmath.matrix(A.tolist())
        if L.shape[1]:
            L = mpmath.matrix(L.tolist())
            E -= s * L * L.transpose_conj()
        return float(mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in E)))


@settings(max_examples=120, deadline=None)
@given(
    atoms=st.lists(atom, min_size=0, max_size=4),
    N=st.integers(1, 14),
    order=st.integers(0, 3),
)
@example(atoms=[(1.0, 4.472326853967332e-294, 1.0)], N=2, order=3)
def test_sketch_residual_bounds_the_exact_residual(atoms, N, order):
    # e bounds the exact residual of the computed factor: for a defect
    # (s = 1) or form (s = -1) of rank <= SKETCH_COLS the residual is all
    # roundoff, so the rounding terms must carry the bound; the example's
    # form has subnormal entries (~1e-309)
    locs = [r * np.exp(1j * t) for r, t, _ in atoms]
    assume(len(set(locs)) == len(locs))
    mu = PointMassMeasure(atoms=tuple(zip(locs, (w for _, _, w in atoms))))
    G = dmu_gram(mu, N + order)
    A = defect_matrix(dmu_gram(mu, N + 1)) if order == 0 else hyperexpansive_form(G, order)
    s = 1 if order == 0 else -1
    L, e = _cholesky_factor(A, s)
    assert exact_residual(A, L, s) <= e


def test_sketch_residual_bounds_a_subnormal_residual():
    # matrices in multiples of the smallest subnormal t, factored with one
    # column: each product rounds by an absolute amount that the relative
    # terms of e do not cover. The first is rank 1; the second has Schur
    # complement -549/497 t, so its residual ~1.1 t is computed as 0.
    for entries in ([[250, 150 + 50j], [150 - 50j, 100]], [[497, -101 - 566j], [-101 + 566j, 664]]):
        A = np.array(entries) * np.finfo(float).smallest_subnormal
        L, e = _cholesky_factor(A, 1)
        assert L.shape[1] == 1
        assert exact_residual(A, L, 1) <= e


# well separated, two of them exactly on the circle (|z| = 1 in floating point)
SEPARATED = ((1j, 0.7), (0.5, 1.0), (-0.3 + 0.6j, 0.4), (-1.0, 0.9), (0.2 - 0.7j, 0.6))


@pytest.mark.parametrize("k", range(1, 6))
def test_factor_takes_one_column_per_atom(k):
    # B_n is minus the moment matrix of the weights w (1 - |z|^2)^(n-1): the
    # factor takes one column per nonzero weight and stops there, as the
    # Schur complement left is roundoff; the defect takes one per atom
    mu = PointMassMeasure(atoms=SEPARATED[:k])
    G = dmu_gram(mu, 512)
    L, e = _cholesky_factor(defect_matrix(G), 1)
    assert L.shape[1] == k and e <= 1e-10
    for n, B in enumerate(hyperexpansive_forms(G, 5), 1):
        want = sum(1 for z, _ in mu.atoms if n == 1 or abs(z) < 1)
        L, e = _cholesky_factor(B.T, -1)
        assert L.shape[1] == want and e <= 1e-10


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(atom, min_size=0, max_size=3),
    N=st.integers(2, 200),
    order=st.integers(1, 5),
    offset=st.floats(-1, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_certify_nsd_with_a_rank_one_bump(atoms, N, order, offset, seed):
    # an NSD form plus delta v v^H, delta = tol * (1 + offset): low rank, so the
    # factor decides most cases and Cholesky the rest; verdicts against the top
    # eigenvalue, outside a 1e-3 relative band around tol
    locs = [r * np.exp(1j * t) for r, t, _ in atoms]
    assume(len(set(locs)) == len(locs))
    mu = PointMassMeasure(atoms=tuple(zip(locs, (w for _, _, w in atoms))))
    order = min(order, N - 1)
    tol = 1e-10
    A = hyperexpansive_form(dmu_gram(mu, N), order)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(N - order) + 1j * rng.standard_normal(N - order)
    v /= np.linalg.norm(v)
    A = A + tol * (1 + offset) * np.outer(v, v.conj())
    top = np.linalg.eigvalsh((A + A.conj().T) / 2)[-1]
    cert = certify_nsd(A, tol)
    if top > tol * (1 + 1e-3):
        assert not cert.passed
    if top < tol * (1 - 1e-3):
        assert cert.passed
    if cert.passed:
        assert cert.witness <= top + 1e-3 * tol
    assert cert.context["route"] in ("sketch", "cholesky")
    assert (cert.context["route"] == "sketch") == (cert.context["bound"] <= tol)


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
    closed = dmu_forms_closed(mu, N, N - 1)
    for n, (B, want) in enumerate(zip(hyperexpansive_forms(G, N - 1), closed), 1):
        assert np.abs(B - want).max() <= 2**n * scale


# one heavy boundary atom at N = 512: forms built from independently rounded
# powers (z ** np.arange) were 0.03-0.06 of the scale below off their closed
# form, and no order 1-5 was decided in O(N^2) (orders 2-5 were false FAILs);
# the order-1 form's bound, ~6e-11, is below NSD_TOL only for the factor
HEAVY_BOUNDARY = PointMassMeasure(atoms=((0.6 + 0.8j, 10.0), (0.3 + 0.1j, 0.5)))


@pytest.fixture(scope="module")
def heavy_boundary():
    N = 512
    G = dmu_gram(HEAVY_BOUNDARY, N).entries
    return G, list(zip(hyperexpansive_forms(G, 5), dmu_forms_closed(HEAVY_BOUNDARY, N, 5)))


@pytest.mark.parametrize("n", range(1, 6))
def test_heavy_boundary_forms_are_near_their_closed_form(heavy_boundary, n):
    # ||B_n - closed||_2 <= 0.02 2^n (N - n) eps max|G|: the Pascal differences
    # amplify the Gram's rounding by up to 2^n, but running-product powers keep
    # it smooth along the diagonals (measured <= 0.009 of this scale)
    G, forms = heavy_boundary
    B, want = forms[n - 1]
    scale = 2**n * B.shape[0] * EPS * np.abs(G).max()
    assert np.linalg.norm(B - want, 2) <= 0.02 * scale


@pytest.mark.parametrize("n", range(1, 6))
def test_heavy_boundary_forms_pass_on_the_sketch(heavy_boundary, n):
    _, forms = heavy_boundary
    cert = certify_nsd(forms[n - 1][0], order=n)
    assert cert.passed and cert.context["route"] == "sketch"


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

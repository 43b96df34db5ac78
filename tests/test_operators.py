import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dbrlab.debranges import MoebiusSymbol, hb_inner, pythagorean_mate, validate_symbol
from dbrlab.dirichlet import PointMassMeasure, dmu_gram, moment_matrix
from dbrlab.moments import certify_measure, recover_atoms, roundtrip_check
from dbrlab.operators import (
    _core,
    _pencil_top,
    certify_nsd,
    defect_matrix,
    hyperexpansive_form,
    numerical_rank,
    rank1_defect_check,
    ratio_identity_check,
)
from dbrlab import cli, dirichlet
from dbrlab.symbols import TOLERANCES
from dbrlab.synthesis import synthesized_pair, verify_norm_equality
from dbrlab.debranges import hb_gram

from oracles import (
    binomial_form,
    dmu_forms_closed,
    pascal_forms,
    pencil_top_dense,
    pencil_top_mp,
    ratio_witness_dense,
    symbol_taylor,
)
from test_dirichlet import random_measure

EPS = np.finfo(float).eps


def no_entries():
    """A patch under which a read of any GramMatrix's N x N entries raises."""
    return mock.patch.object(
        dirichlet, "_toeplitz_gram", side_effect=AssertionError("the dense Gram was built")
    )


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
        shapes = [hyperexpansive_form(G, n).shape for n in range(1, n_max + 1)]
        assert shapes == [(10 - n, 10 - n) for n in range(1, n_max + 1)]

    def test_forms_reject_order_beyond_gram(self):
        with pytest.raises(ValueError):
            hyperexpansive_form(np.eye(4), 4)

    def test_form_is_last_of_forms(self):
        # a plain array takes n Pascal steps from G^T: the oracle's n-th form,
        # bit for bit; a transposed start would give the transposed forms
        G = dmu_gram(PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.4j, 0.5))), 12).entries
        for n, B in enumerate(pascal_forms(G, 11), 1):
            assert np.array_equal(hyperexpansive_form(G, n), B)


# (N, n): n = 1, n = N - 1 and orders in between
form_case = st.integers(2, 200).flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N - 1)))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 3), case=form_case, seed=st.integers(0, 2**32 - 1))
@example(k=1, case=(2, 1), seed=0)
@example(k=0, case=(9, 3), seed=1)
@example(k=2, case=(64, 63), seed=2)
@example(k=3, case=(200, 7), seed=3)
@example(k=3, case=(200, 199), seed=4)
def test_generator_forms_equal_the_pascal_forms(k, case, seed):
    # the product on k random complex generator rows against the Pascal
    # differences of the Gram's entries, whose rounding they amplify by up
    # to 2^n; the Pascal route is what a plain array still takes
    N, n = case
    rng = np.random.default_rng(seed)
    G = dirichlet.GramMatrix(rng.standard_normal((k, N)) + 1j * rng.standard_normal((k, N)))
    with no_entries():
        got = np.asarray(hyperexpansive_form(G, n))
    want = hyperexpansive_form(G.entries, n)
    assert got.shape == want.shape == (N - n, N - n)
    assert np.abs(got - want).max() <= 2**n * N * EPS * np.abs(G.entries).max()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 3), N=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
@example(k=3, N=200, seed=0)
def test_generator_defect_equals_the_entries_difference(k, N, seed):
    # U1^T conj(U1) on k random complex generator rows against the difference
    # of the Gram's entries, each a cumulative sum of up to N products
    rng = np.random.default_rng(seed)
    G = dirichlet.GramMatrix(rng.standard_normal((k, N)) + 1j * rng.standard_normal((k, N)))
    with no_entries():
        D = np.asarray(defect_matrix(G))
    A = G.entries
    assert D.shape == (N - 1, N - 1) and D.flags.c_contiguous
    assert np.abs(D - (A[1:, 1:] - A[:-1, :-1])).max() <= 2 * N * EPS * np.abs(A).max()


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

    def test_pass_witness_is_top_eigenvalue(self):
        # PASS reports the top eigenvalue of H, -0.7929 here, not the top
        # diagonal entry -1.0, which is only a lower bound on it
        B = np.array([[-1.0, 0.5j], [-0.5j, -2.0]])
        cert = certify_nsd(B, 1e-10)
        assert cert.passed and cert.witness == np.linalg.eigvalsh(B)[-1]
        assert cert.witness == pytest.approx(-0.79289321881)
        assert cert.context["witness"] == "eigenvalue"

    @pytest.mark.parametrize(
        "entry, value", [((3, 7), np.nan), ((5, 5), np.nan), ((2, 9), np.inf)]
    )
    def test_non_finite_form_is_rejected(self, entry, value):
        # rejected before the eigensolve, where NaN and inf both end in
        # LinAlgError "Eigenvalues did not converge"
        A = np.zeros((20, 20), dtype=complex)
        A[entry] = value
        with pytest.raises(ValueError, match="NaN or infinite"), np.errstate(invalid="ignore"):
            certify_nsd(A)

    def test_finite_form_whose_squares_overflow_is_decided_dense(self):
        # entries whose squares overflow: eigvalsh scales them, and the top
        # eigenvalue is exact
        cert = certify_nsd(-1e200 * np.eye(20))
        assert cert.passed and cert.context["route"] == "dense"
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
        B = np.asarray(hyperexpansive_form(dmu_gram(interior, 10), 2))
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

    @pytest.mark.parametrize("N", [2, 3, 17])
    def test_plain_array_defect_is_the_difference(self, N):
        rng = np.random.default_rng(N)
        real = rng.standard_normal((N, N))
        for A in (real, real + 1j * rng.standard_normal((N, N))):
            D = defect_matrix(A)
            assert D.dtype == complex and D.flags.c_contiguous
            assert np.all(D == A[1:, 1:] - A[:-1, :-1])

    @pytest.mark.parametrize(
        "G", [np.eye(1), np.zeros((0, 0)), dmu_gram(PointMassMeasure.single(0.5, 1.0), 1)]
    )
    def test_defect_needs_size_two(self, G):
        with pytest.raises(ValueError):
            defect_matrix(G)

    def test_no_certificate_reads_the_entries(self, tmp_path, capsys):
        # the CLI's certify (forms, moment identity, defect rank) and the
        # round trip run on the generator rows alone
        mu = PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.4j, 0.5), (1j, 0.2)))
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(mu.to_json_dict()))
        argv = ["certify", "--measure", str(path), "--size", "64", "--n-max", "5"]
        with no_entries():
            assert cli.main(argv) == 0
            assert roundtrip_check(mu, 24).passed
        certs = json.loads(capsys.readouterr().out)["certificates"]
        assert len(certs) == 7 and all(c["pass"] for c in certs)

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
    def test_light_atoms_count_on_one_svd(self, monkeypatch):
        # two light atoms far below the heavy eigenvalues but far above
        # tau * sigma_1: a plain array takes one SVD
        locs = 0.9 * np.exp(2j * np.pi * np.arange(10) / 10)
        mu = PointMassMeasure(atoms=tuple(zip(locs, [1.0] * 8 + [1e-3] * 2)))
        svds = spy(monkeypatch, "svd")
        assert numerical_rank(moment_matrix(mu, 40)) == 10
        assert svds == [(40, 40)]

    def test_recovery_decides_the_rank_with_one_eigh(self, monkeypatch):
        # a plain array: one dense eigh of its Hermitian part gives the rank
        # and the basis, then one Vandermonde QR; no SVD
        locs = 0.9 * np.exp(2j * np.pi * np.arange(10) / 10)
        mu = PointMassMeasure(atoms=tuple(zip(locs, [1.0] * 8 + [1e-3] * 2)))
        M = moment_matrix(mu, 40)
        qrs, svds, eighs = spy(monkeypatch, "qr"), spy(monkeypatch, "svd"), spy(monkeypatch, "eigh")
        assert len(recover_atoms(M).measure) == 10
        assert qrs == [(40, 10)]
        assert svds == []
        assert eighs == [(40, 40)]

    def test_margin_below_rounding_goes_to_svd(self, monkeypatch):
        # sigma_2 clears tau * sigma_1 by 1e-13: a plain array takes one SVD
        M = np.diag([1.0, 1e-8 + 1e-13] + [0.0] * 62)
        svds = spy(monkeypatch, "svd")
        assert numerical_rank(M, 1e-8) == 2
        assert svds == [(64, 64)]

    def test_zero_matrix_needs_no_svd(self, monkeypatch):
        # the zero defects of a Gram with no generator row and with a zero one
        svds = spy(monkeypatch, "svd")
        for G in (dmu_gram(PointMassMeasure.empty(), 513), dirichlet.GramMatrix(np.zeros((1, 513)))):
            assert numerical_rank(defect_matrix(G)) == 0
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
        svds, eigs, eighs = spy(monkeypatch, "svd"), spy(monkeypatch, "eigvalsh"), spy(monkeypatch, "eigh")
        # the rank: the eigenvalues of the k x k core of the k-column factor
        assert numerical_rank(D) == k
        assert eigs == [(k, k)] and eighs == []
        eigs.clear()
        qrs = spy(monkeypatch, "qr")
        assert len(recover_atoms(D).measure) == k
        # the factor's QR, and one QR of the Vandermonde beside the factor
        # for the fit and the residual
        assert qrs == [(511, k), (511, 2 * k)]
        assert svds == []
        # one k x k eigh gives the recovery its rank and its Ritz basis
        assert eigs == [] and eighs == [(k, k)]


rank_atom = st.tuples(
    st.one_of(st.just(1.0), st.floats(0, 1)),  # radius, boundary allowed
    st.floats(0, 2 * np.pi),
    st.floats(1e-3, 3),
)


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(rank_atom, min_size=0, max_size=12),
    twin=st.one_of(st.none(), st.floats(-5, -3)),
    N=st.integers(1, 80),
    defect=st.booleans(),
    noise=st.sampled_from([0.0, 1e-14]),
    log_tau=st.one_of(st.just(-8.0), st.floats(-15, -0.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_numerical_rank_matches_svd(atoms, twin, N, defect, noise, log_tau, seed):
    locs = [r * np.exp(1j * t) for r, t, _ in atoms]
    weights = [w for _, _, w in atoms]
    if twin is not None and locs:
        # a near-collision: an atom about 10^twin from the first, inside the disk
        z = locs[0] * (1 - 10**twin) if abs(locs[0]) > 0.5 else locs[0] + 10**twin
        locs.append(z)
        weights.append(weights[0])
    assume(len(set(locs)) == len(locs))
    mu = PointMassMeasure(atoms=tuple(zip(locs, weights)))
    # a defect without noise stays the FactoredForm of its generator rows
    if defect:
        M = defect_matrix(dmu_gram(mu, N + 1))
    else:
        M = moment_matrix(mu, N)
    if noise:
        rng = np.random.default_rng(seed)
        E = rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape)
        M = M + noise * np.abs(M).max() * E
    # the dense reference: singular values above tau * sigma_1, none of them
    # within 1e-6 * tau * sigma_1 of that threshold
    s = np.linalg.svd(np.asarray(M), compute_uv=False)
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
        assert cert.passed and cert.context["route"] == "generators"

    def test_needs_generators(self):
        pair = synthesized_pair(1.0, 0.5)
        with pytest.raises(TypeError):
            ratio_identity_check(hb_gram(pair, 20).entries, pair, 5)

    def test_rejects_small_gram(self):
        pair = synthesized_pair(1.0, 0.5)
        with pytest.raises(ValueError):
            ratio_identity_check(hb_gram(pair, 4), pair, 5)

    @pytest.mark.parametrize("N", [512, 137])
    def test_generators_match_dense_forms(self, N):
        # the H(b) Gram satisfies the identity; a 3-atom D(mu) Gram, with three
        # generator rows, does not, so its witness is far from roundoff
        pair = synthesized_pair(1.0, 0.5)
        r = 1 - abs(pair.sigma / pair.rho) ** 2
        for G in (hb_gram(pair, N), three_atom_gram(N)):
            cert = ratio_identity_check(G, pair, 8)
            worst, scale = ratio_witness_dense(G, r, 8)
            assert cert.witness == pytest.approx(worst, rel=1e-12)
            assert cert.tolerance == pytest.approx(1e-8 * scale, rel=1e-12)
            assert cert.context["block"] == N - 8
            assert cert.context["route"] == "generators"
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
        assert cert.context["route"] == "banded"

    def test_needs_generators(self):
        pair = synthesized_pair(1.0, 0.5)
        with pytest.raises(TypeError):
            rank1_defect_check(hb_gram(pair, 24).entries, pair)

    def test_needs_one_generator_row(self):
        # an H(b) Gram has one generator row; a D(mu) Gram has one per atom
        pair = synthesized_pair(1.0, 0.5)
        G = dmu_gram(PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.4j, 0.5))), 24)
        assert G.generators.shape == (2, 24)
        with pytest.raises(ValueError, match="one generator row"):
            rank1_defect_check(G, pair)

    @pytest.mark.parametrize("N", [24, 512])
    def test_rank_needs_no_svd(self, monkeypatch, N):
        # the rank is the defect-rank route: the eigenvalue of the 1 x 1 core
        # of the defect factor, with no SVD of the generator row
        pair = synthesized_pair(1.0, 0.5)
        G = hb_gram(pair, N)
        svds, eigs = spy(monkeypatch, "svd"), spy(monkeypatch, "eigvalsh")
        cert = rank1_defect_check(G, pair)
        assert cert.passed and cert.context["rank"] == 1
        assert svds == [] and eigs == [(1, 1)]

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

    @pytest.mark.parametrize("N", [2, 3, 24])
    def test_banded_factors_give_the_gram_block(self, N):
        # the check never reads the Gram's leading block: it applies
        # G = conj(A^-H K A^-1), A = rho - conj(sigma) J, B = conj(c) + conj(gamma) J,
        # K = A^H A + B^H B, built here densely for complex symbols with c != 0
        # and for synthesized pairs (one of them a boundary atom)
        rng = np.random.default_rng(24)
        pairs = [synthesized_pair(*p) for p in [(1.0, 0.5), (2.0, np.exp(0.7j)), (0.5, 0.2j - 0.3)]]
        for _ in range(6):
            c, gamma, beta = np.exp(2j * np.pi * rng.uniform(size=3)) * rng.uniform(0.1, 0.9, 3)
            pairs.append(pythagorean_mate(valid_symbol(c, gamma, beta, rng.uniform(0.1, 0.95))))
        I, J = np.eye(N), np.eye(N, k=1)
        for pair in pairs:
            A = pair.rho * I - np.conj(pair.sigma) * J
            B = np.conj(pair.b.c) * I + np.conj(pair.b.gamma) * J
            K = A.conj().T @ A + B.conj().T @ B
            Ainv = np.linalg.inv(A)
            G = hb_gram(pair, N + 1).entries[:-1, :-1]
            assert np.abs(np.conj(Ainv.conj().T @ K @ Ainv) - G).max() <= 1e-13 * np.abs(G).max()
            # and the recurrence is d^H G^-1 d for any d, not only the defect's
            for d in (np.array([1, 1j]) @ rng.standard_normal((2, N)), G[:, 0]):
                want = np.vdot(d, np.linalg.solve(G, d)).real
                assert _pencil_top(pair, d) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_boundary_pairs_meet_the_closed_form(self, alpha):
        # a boundary atom gives the worst-conditioned Grams of the class
        # (||G||_1 ~ 1e5 at N = 512), where rho = |sigma| makes A^-1 a
        # unimodular geometric series; K stays tridiagonal and positive
        # definite, and the banded recurrence meets the closed form
        pair = synthesized_pair(alpha, np.exp(0.7j))
        cert = rank1_defect_check(hb_gram(pair, 512), pair)
        assert cert.passed and cert.context["route"] == "banded"
        assert cert.context["eigenvalue"] == pytest.approx(cert.context["reference"], rel=1e-12)


def valid_symbol(c, gamma, beta, fraction):
    """(c, gamma) scaled to `fraction` of the largest scale with ||b||_inf <= 1."""
    lo, hi = 0.0, 1.0 / np.hypot(abs(c), abs(gamma))
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if validate_symbol(mid * c, mid * gamma, beta).valid else (lo, mid)
    return MoebiusSymbol(fraction * lo * c, fraction * lo * gamma, beta)


unit_phase = st.floats(0, 2 * np.pi).map(lambda t: complex(np.exp(1j * t)))
radial = st.tuples(st.one_of(st.just(0.0), st.floats(0.1, 1)), unit_phase)


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
# the routes differ by 3.4 eps theta here, more than half of the
# (N + ||G||_1) eps theta = 6.02 eps theta of a slack with one rounding per step
@example(
    pair=pythagorean_mate(valid_symbol(0.875, 1, -0.36819241592940527 + 0.804515106156316j, 0.5)),
    N=5,
)
def test_pencil_eigenvalue_brackets_the_dense_solve(pair, N):
    # the banded route and the dense LU oracle agree within a slack.
    # The LU oracle errs by up to ~kappa eps theta, kappa <= ||G||_1 as
    # G >= I, and the slack gives the banded route (`_pencil_top`) 8 N eps
    # theta more. The route's derived bound is not a multiple of theta: it
    # grows with the absolute scan S_i, with the conditioning of K through
    # w = K^-1 y and with the corner term (`pencil_error_bound`), and on
    # these strata (general symbols up to 0.99 of the extreme scale,
    # boundary atoms with |alpha| >= 0.2) it reaches ~55 N eps theta. Its
    # error against the 50-digit oracle stayed below 0.25 N eps theta on
    # 300 draws of them, so the slack rests on that measurement; the bound
    # itself is checked by test_pencil_is_within_its_forward_error_bound_of_mpmath.
    # Both take the defect vector d = U1[0] of the generator row; the Gram
    # block of the oracle is the dense one, which the route never reads
    Gram = hb_gram(pair, N)
    cert = rank1_defect_check(Gram, pair)
    G = Gram.entries
    want = pencil_top_dense(G, Gram.generators[0, 1:])
    theta = cert.context["eigenvalue"]
    slack = (8 * N + np.abs(G[:-1, :-1]).sum(axis=0).max()) * EPS * want
    assert theta - slack <= want <= theta + slack
    assert cert.context["route"] == "banded"


def pencil_error_bound(pair, d):
    """The forward-error bound of `_pencil_top`'s docstring, to first order:
    the conditioning term b0 |w_0|^2 + b1 sum_(i>=1) |w_i|^2 +
    2 be sum_(i>=1) |w_i w_(i-1)| for w = K^-1 y, the scan term
    (2 Kv eps sum_i |v_i| S_i + (n + 1) eps ||v||^2 / 2) / D with the absolute
    scan S_i = sum_j |t|^j Y_(i-j), Y_i = rho |d_i| + |sigma| |d_(i-1)|, the
    corner term (2 delta |h| Kh eps P / q + c (3 eps + dq / q)) / D with
    P = sum_i |t|^i S_i, and eps theta for the final sum and division. v, g,
    S and w come from loops on Python scalars, one entry at a time."""
    b, rho, sigma = pair.b, pair.rho, pair.sigma
    n = len(d)
    e = b.c.conjugate() * b.gamma - rho * sigma
    k0 = rho**2 + abs(b.c) ** 2
    k1 = k0 + abs(sigma) ** 2 + abs(b.gamma) ** 2
    D = (k1 + np.sqrt(max(k1**2 - 4 * abs(e) ** 2, 0))) / 2
    t, delta = e / D, D - k0
    x = np.conj(d).tolist()
    v, g, S = [], [], []
    z, gi, Si = 0j, 1 + 0j, 0.0
    for prev, cur in zip([0j] + x, x):
        z = rho * cur - sigma * prev - t * z  # v = L^-1 y
        Si = rho * abs(cur) + abs(sigma) * abs(prev) + abs(t) * Si
        v.append(z), g.append(gi), S.append(Si)
        gi *= -t
    v, g, S = np.array(v), np.array(g), np.array(S)
    h, tail = np.vdot(g, v), float((abs(g[1:]) ** 2).sum())
    q = k0 - delta * tail
    # delta = D - k0 >= 0 in exact arithmetic, and may round below 0
    Z, c = abs(delta) * tail, abs(delta) * abs(h) ** 2 / q
    theta = (float((abs(v) ** 2).sum()) + c) / D
    # w = K^-1 y = L^-H u / D, L^H = I + conj(t) S^T
    u, w, z = v + delta * h / q * g, np.empty(n, dtype=complex), 0j
    for i in range(n - 1, -1, -1):
        z = u[i] - np.conj(t) * z
        w[i] = z / D
    aw = abs(w)
    b0 = 2 * EPS * k0
    b1 = 33 / 8 * EPS * k1
    be = EPS * (np.sqrt(2) * abs(b.c * b.gamma) + rho * abs(sigma) / 2 + abs(e))
    conditioning = b0 * aw[0] ** 2 + b1 * (aw[1:] ** 2).sum() + 2 * be * (aw[1:] * aw[:-1]).sum()
    L = int(np.ceil(np.log2(n))) if n > 1 else 0
    Kv = np.sqrt(2) * (n - 1) + (np.sqrt(2) + 0.5) * (L + 1)
    scan = 2 * Kv * EPS * (abs(v) * S).sum() + (n + 1) * EPS * (abs(v) ** 2).sum() / 2
    Kh = Kv + np.sqrt(2) * n + (n - 1) / 2
    P = (abs(g) * S).sum()
    dq = EPS * ((2 * np.sqrt(2) * (n - 1) + n / 2 + 1) * Z + q / 2)
    corner = 2 * abs(delta) * abs(h) * Kh * EPS * P / q + c * (3 * EPS + dq / q)
    return conditioning + (scan + corner) / D + EPS * theta


@settings(max_examples=80, deadline=None)
@given(
    pair=st.one_of(
        st.tuples(
            st.tuples(st.floats(0.1, 1), unit_phase).map(lambda rt: rt[0] * rt[1]),
            st.tuples(st.floats(0.1, 1), unit_phase).map(lambda rt: rt[0] * rt[1]),
            st.tuples(st.floats(0, 0.9), unit_phase).map(lambda rt: rt[0] * rt[1]),
            st.floats(0.05, 0.99),
        ).map(lambda a: pythagorean_mate(valid_symbol(*a))),
        st.tuples(
            st.floats(-2, 2).map(lambda t: 10**t),
            st.one_of(
                unit_phase,
                st.tuples(st.floats(0, 0.99), unit_phase).map(lambda rt: rt[0] * rt[1]),
            ),
        ).map(lambda a: synthesized_pair(*a)),
        # small |alpha| on the circle: |t| = |beta| nears 1, so g and the
        # absolute scan decay slowly and D is near a double root
        st.tuples(st.floats(-3, -1).map(lambda t: 10**t), unit_phase).map(
            lambda a: synthesized_pair(*a)
        ),
        # b = gamma z has sigma = 0, so e = 0: t = 0 and delta = |gamma|^2
        st.floats(0, 0.99).map(lambda g: pythagorean_mate(MoebiusSymbol(0, g, 0))),
    ),
    N=st.integers(2, 600),
    seed=st.integers(0, 2**32 - 1),
)
@example(pair=synthesized_pair(1.0, 0.5), N=2, seed=0)
@example(pair=synthesized_pair(1e3, 0.5), N=5, seed=0)
@example(pair=pythagorean_mate(MoebiusSymbol(0, 0.5, 0)), N=3, seed=0)
# the LDL^H pivots settle at step 1475 only
@example(pair=synthesized_pair(0.01, 1.0), N=600, seed=0)
# |t| = 0.997: errs by 30 N eps theta, 0.01 of its bound
@example(pair=synthesized_pair(0.003, 1.0), N=512, seed=0)
# k0 = 1e-12 against k1 = 1: q formed through D would cancel to it
@example(pair=synthesized_pair(1e6, 0), N=512, seed=0)
def test_pencil_is_within_its_forward_error_bound_of_mpmath(pair, N, seed):
    # the defect's d decays like beta^i; a random d of unit entries weighs
    # every entry fully. The reference's rounding to a double adds eps / 2
    rng = np.random.default_rng(seed)
    defect = hb_gram(pair, N).generators[0, 1:]
    for d in (defect, np.array([1, 1j]) @ rng.standard_normal((2, N - 1))):
        want = pencil_top_mp(pair, d)
        assert abs(_pencil_top(pair, d) - want) <= pencil_error_bound(pair, d) + EPS / 2 * want


@settings(max_examples=300, deadline=None)
@given(
    pair=st.one_of(
        # c or gamma possibly 0, up to 0.999999 of the extreme scale
        st.tuples(radial, radial, st.tuples(st.floats(0, 0.99), unit_phase), st.floats(0, 0.999999))
        .filter(lambda a: a[0][0] or a[1][0])
        .map(lambda a: pythagorean_mate(valid_symbol(*(r * p for r, p in a[:3]), a[3]))),
        st.tuples(st.floats(-6, 6).map(lambda t: 10**t), unit_phase).map(
            lambda a: synthesized_pair(*a)
        ),
    )
)
def test_pencil_corner_lies_below_the_pivot_limit(pair):
    # K[0, 0] = k0 <= D, the larger root of D^2 - k1 D + |e|^2, so the
    # Sherman-Morrison terms of `_pencil_top` add: by Cauchy-Schwarz
    # |e|^2 = |conj(c) gamma - rho sigma|^2 <= k0 (k1 - k0), so k0 lies between
    # the roots. Checked exactly, in rationals, on the pair's doubles
    rho = Fraction(pair.rho)
    c, gamma, sigma = (
        (Fraction(z.real), Fraction(z.imag)) for z in (pair.b.c, pair.b.gamma, pair.sigma)
    )
    e = (
        c[0] * gamma[0] + c[1] * gamma[1] - rho * sigma[0],
        c[0] * gamma[1] - c[1] * gamma[0] - rho * sigma[1],
    )
    k0 = rho**2 + c[0] ** 2 + c[1] ** 2
    k1 = k0 + sigma[0] ** 2 + sigma[1] ** 2 + gamma[0] ** 2 + gamma[1] ** 2
    assert k0 * k0 - k1 * k0 + e[0] ** 2 + e[1] ** 2 <= 0


# ---- NSD verdict: the dense route against the top eigenvalue ----

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
    A = np.asarray(hyperexpansive_form(dmu_gram(mu, N), order))
    tol = 10**log_tol
    # shift the form so its top eigenvalue lands near tol * (1 + offset)
    top = np.linalg.eigvalsh((A + A.conj().T) / 2)[-1]
    A = A + (tol * (1 + offset) - top) * np.eye(N - order)
    top = np.linalg.eigvalsh((A + A.conj().T) / 2)[-1]
    cert = certify_nsd(A, tol)
    if abs(top - tol) > 1e-3 * tol:
        assert cert.passed == (top <= tol)
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


THREE_ATOMS = PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.4j, 0.5), (0.2j - 0.6, 0.8)))


def three_atom_gram(N):
    return dmu_gram(THREE_ATOMS, N)


class TestFactorNsd:
    def test_low_rank_forms_need_no_cholesky(self, monkeypatch):
        # three atoms: a core of 3 n at order n, one small eigvalsh each
        G = three_atom_gram(256)
        chol, eigs = spy(monkeypatch, "cholesky"), spy(monkeypatch, "eigvalsh")
        for n in range(1, 6):
            cert = certify_nsd(hyperexpansive_form(G, n), order=n)
            assert cert.passed and cert.context["route"] == "factor"
            assert cert.context["core"] == 3 * n and cert.context["size"] == 256 - n
            assert cert.context["witness"] == "eigenvalue"
        assert chol == []
        assert eigs == [(3 * n, 3 * n) for n in range(1, 6)]

    def test_negated_weights_fail_on_the_dense_route(self):
        # 2I - G negates every weight: the order-1 form is the moment matrix
        # transposed, PSD with top eigenvalue >= the total weight 2.3
        G = three_atom_gram(64).entries
        cert = certify_nsd(hyperexpansive_form(2 * np.eye(64) - G, 1))
        assert not cert.passed and cert.witness >= 2.3
        assert cert.context["route"] == "dense"
        assert cert.context["witness"] == "eigenvalue"

    def test_positive_direction_behind_negative_ones_fails(self):
        # a positive eigenvalue 1e-3 behind eight eigenvalues -1
        A = np.diag([-1.0] * 8 + [1e-3] + [0.0] * 31).astype(complex)
        cert = certify_nsd(A)
        assert not cert.passed and cert.witness == pytest.approx(1e-3)
        assert cert.context["route"] == "dense"

    def test_tiny_positive_direction_behind_negative_ones_fails(self):
        # the same at scale 1e-200, where squares of the entries underflow
        A = 1e-200 * np.diag([-1.0] * 8 + [1e-20] + [0.0] * 31).astype(complex)
        cert = certify_nsd(A, tol=1e-250)
        assert not cert.passed and cert.witness == pytest.approx(1e-220)
        assert cert.context["route"] == "dense"

    def test_factor_route_allocates_less_than_one_form(self):
        B = hyperexpansive_form(three_atom_gram(513), 1)
        N = B.shape[0]
        cert, peak = peak_bytes(certify_nsd, B)
        assert cert.passed and cert.context["route"] == "factor"
        assert peak < N * N * 16

    def test_factor_rank_allocates_less_than_one_defect(self):
        D = defect_matrix(three_atom_gram(513))
        N = D.shape[0]
        rank, peak = peak_bytes(numerical_rank, D)
        assert rank == 3
        assert peak < N * N * 16

    def test_dense_route_allocates_only_the_hermitian_part(self):
        # the Hermitian part H, built in place, and eigvalsh's copy of it,
        # which tracemalloc does not see: 1.03 N x N arrays traced here
        G = three_atom_gram(513).entries
        A = hyperexpansive_form(2 * np.eye(513) - G, 1)
        N = A.shape[0]
        cert, peak = peak_bytes(certify_nsd, A)
        assert not cert.passed and cert.context["route"] == "dense"
        assert peak < 2.5 * N * N * 16


class TestFactorMemory:
    """tracemalloc peaks at N = 512, in N x N complex arrays."""

    NN = 512 * 512 * 16

    def test_ratio_identity_holds_no_full_form(self):
        pair = synthesized_pair(1.0, 0.5)
        G = hb_gram(pair, 512)
        cert, peak = peak_bytes(ratio_identity_check, G, pair, 8)
        assert cert.passed
        assert peak < self.NN

    def test_single_form_allocates_little_beyond_its_result(self):
        # one product on the generator rows: the result is the only N x N
        # array, and the Gram's entries are never built
        G = three_atom_gram(512)
        with no_entries():
            B, peak = peak_bytes(hyperexpansive_form, G, 5)
        assert B.shape == (507, 507)
        assert peak < 1.25 * self.NN

    def test_hb_checks_build_no_gram_entries(self):
        # both H(b) checks run on the generator row: no N x N array, and the
        # Gram's entries are never built
        pair = pythagorean_mate(MoebiusSymbol(0.3 + 0.1j, 0.4 - 0.2j, 0.2 + 0.3j))
        G = hb_gram(pair, 512)

        def both():
            return ratio_identity_check(G, pair, 8), rank1_defect_check(G, pair)

        with no_entries():
            (ratio, rank1), peak = peak_bytes(both)
        assert ratio.passed and rank1.passed
        assert peak < 0.25 * self.NN

    def test_norm_equality_builds_no_gram_entries(self):
        # the certificate compares the two generator rows: no N x N array
        with no_entries():
            cert, peak = peak_bytes(verify_norm_equality, 1, 0.5, 512)
        assert cert.passed and cert.context["route"] == "generators"
        assert peak < 0.25 * self.NN

    def test_defect_is_one_array_from_the_generators(self):
        # U1^T conj(U1), negated in place: the result is the only N x N array,
        # against a difference of the entries, which peaks at two
        G = three_atom_gram(513)
        with no_entries():
            D, peak = peak_bytes(defect_matrix, G)
        assert D.shape == (512, 512)
        assert peak < 1.25 * self.NN

    def test_recovery_holds_no_hermitian_copy(self):
        # the core of D's factor decides the rank: no N x N Hermitian part
        D = defect_matrix(three_atom_gram(513))
        result, peak = peak_bytes(recover_atoms, D)
        assert len(result.measure) == 3
        assert peak < self.NN

    def test_factor_routes_build_no_form(self):
        # the form, the defect, the verdict, the rank and the recovery from
        # the generator rows: nothing near one N x N array
        G = three_atom_gram(512)
        with no_entries():
            cert, nsd = peak_bytes(lambda: certify_nsd(hyperexpansive_form(G, 5)))
            rank, rank_peak = peak_bytes(lambda: numerical_rank(defect_matrix(G)))
            result, rec = peak_bytes(lambda: recover_atoms(defect_matrix(G)))
        assert cert.passed and rank == 3 and len(result.measure) == 3
        assert max(nsd, rank_peak, rec) < 0.25 * self.NN

    def test_certify_holds_one_difference_for_the_moment_identity(self):
        # D - M is one product on the factor [U1^T, V]: its N x N entries and
        # their moduli (half as many bytes), with no separate defect or moment
        # matrix beside them (those two and their difference reach 2)
        certs, peak = peak_bytes(certify_measure, THREE_ATOMS, three_atom_gram(513), 5, TOLERANCES)
        assert all(c.passed for c in certs) and certs[5].kind == "moment-identity"
        assert peak < 1.75 * self.NN


# well separated, two of them exactly on the circle (|z| = 1 in floating point)
SEPARATED = ((1j, 0.7), (0.5, 1.0), (-0.3 + 0.6j, 0.4), (-1.0, 0.9), (0.2 - 0.7j, 0.6))


@pytest.mark.parametrize("k", range(1, 6))
def test_factor_takes_one_column_per_atom(k):
    # the defect's factor is its k generator rows, of rank k. B_n is minus the
    # moment matrix of the weights w (1 - |z|^2)^(n-1), so its k n-column
    # factor has one core eigenvalue above roundoff per nonzero weight:
    # every atom at order 1, the interior ones above (roundoff <= 3e-12,
    # the smallest weight's eigenvalue 0.026)
    mu = PointMassMeasure(atoms=SEPARATED[:k])
    G = dmu_gram(mu, 512)
    D = defect_matrix(G)
    assert D.factor.shape == (511, k) and numerical_rank(D) == k
    for n in range(1, 6):
        B = hyperexpansive_form(G, n)
        want = sum(1 for z, _ in mu.atoms if n == 1 or abs(z) < 1)
        assert B.factor.shape == (512 - n, k * n)
        assert np.count_nonzero(np.abs(np.linalg.eigvalsh(_core(B))) > 1e-10) == want
        assert certify_nsd(B).passed


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(atom, min_size=0, max_size=3),
    N=st.integers(2, 200),
    order=st.integers(1, 5),
    offset=st.floats(-1, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_certify_nsd_with_a_rank_one_bump(atoms, N, order, offset, seed):
    # the entries of an NSD form plus delta v v^H, delta = tol * (1 + offset),
    # decided on the dense route; verdicts against the top eigenvalue, outside a
    # 1e-3 relative band around tol
    locs = [r * np.exp(1j * t) for r, t, _ in atoms]
    assume(len(set(locs)) == len(locs))
    mu = PointMassMeasure(atoms=tuple(zip(locs, (w for _, _, w in atoms))))
    order = min(order, N - 1)
    tol = 1e-10
    A = np.asarray(hyperexpansive_form(dmu_gram(mu, N), order))
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
    assert cert.witness == top
    assert cert.context["route"] == "dense"


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(0, 4),
    rank=st.integers(0, 4),
    case=form_case,
    log_scale=st.floats(-3, 3),
    log_tol=st.floats(-8, 0),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=4, rank=4, case=(8, 1), log_scale=0.0, log_tol=-8.0, seed=0)
@example(k=3, rank=2, case=(40, 4), log_scale=2.0, log_tol=-3.0, seed=1)
def test_factor_routes_match_the_dense_routes(k, rank, case, log_scale, log_tol, seed):
    # random complex generator rows, of rank min(k, rank): the forms need not
    # be NSD, so a false PASS on the factor's core would show. tol is scaled
    # by max|B|, so the verdicts outside a 1e-3 relative band around it are
    # far from roundoff; the rank rule's threshold is relative too
    N, n = case
    rng = np.random.default_rng(seed)
    r = min(k, rank)
    mix = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
    rows = rng.standard_normal((r, N)) + 1j * rng.standard_normal((r, N))
    G = dirichlet.GramMatrix(10**log_scale * (mix @ rows))
    B = hyperexpansive_form(G, n)
    A = np.asarray(B)
    top = np.linalg.eigvalsh((A + A.conj().T) / 2)[-1]
    tol = 10**log_tol * np.abs(A).max()
    cert, dense = certify_nsd(B, tol), certify_nsd(A, tol)
    assert cert.context["route"] == "factor" and dense.context["route"] == "dense"
    if abs(top - tol) > 1e-3 * tol:
        assert cert.passed == dense.passed == (top <= tol)
    D = defect_matrix(G)
    assert numerical_rank(D) == numerical_rank(np.asarray(D)) == min(r, N - 1)


class TestFactorEdges:
    def test_empty_measure(self):
        # no generator row: every form is zero, with an empty core and the
        # 0 of the complement as its top eigenvalue
        G = dmu_gram(PointMassMeasure.empty(), 16)
        for n in (1, 5):
            cert = certify_nsd(hyperexpansive_form(G, n))
            assert cert.passed and cert.witness == 0 and cert.context["core"] == 0
        D = defect_matrix(G)
        assert D.factor.shape == (15, 0) and numerical_rank(D) == 0
        result = recover_atoms(D)
        assert len(result.measure) == 0 and result.residual == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_wide_factor(self, n):
        # 4 interior atoms at N = 8: from order 2 the factor has k n > N - n
        # columns and the core is the form's size; at order 1 it has more
        # rows than columns, and the form's top eigenvalue is the 0 of the
        # complement, above every core eigenvalue
        mu = PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.6j, 0.4), (0.2 - 0.7j, 0.6), (-0.6, 0.8)))
        B = hyperexpansive_form(dmu_gram(mu, 8), n)
        A = np.asarray(B)
        cert = certify_nsd(B)
        assert cert.passed and cert.context["core"] == min(8 - n, 4 * n)
        assert abs(cert.witness - np.linalg.eigvalsh(A)[-1]) <= 1e-14
        if n == 1:
            assert cert.witness == 0 and np.linalg.eigvalsh(_core(B))[-1] < -0.01
        assert numerical_rank(B) == numerical_rank(A) == min(8 - n, 4)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_generator_is_rejected(self, value):
        # as for the entries on the dense routes: no verdict and no rank
        U = np.ones((2, 12), dtype=complex)
        U[1, 5] = value
        G = dirichlet.GramMatrix(U)
        with pytest.raises(ValueError, match="NaN or infinite"):
            certify_nsd(hyperexpansive_form(G, 2))
        with pytest.raises(ValueError, match="NaN or infinite"):
            numerical_rank(defect_matrix(G))
        with pytest.raises(ValueError, match="NaN or infinite"):
            recover_atoms(defect_matrix(G))


def test_factor_residual_matches_the_dense_residual():
    # a light third atom that a fit of two leaves out: the residual, the
    # norm of the core of [Y, V], against the dense difference of entries
    mu = PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.6j, 0.4), (0.2 - 0.7j, 1e-6)))
    D = defect_matrix(dmu_gram(mu, 65))
    result = recover_atoms(D, k=2)
    want = np.linalg.norm(np.asarray(D) - moment_matrix(result.measure, 64))
    assert want > 1e-7
    assert result.residual == pytest.approx(want, rel=1e-9)


# ---- forms by both routes against closed forms and the binomial sum ----

@settings(max_examples=200, deadline=None)
@given(atoms=st.lists(atom, min_size=0, max_size=4), N=st.integers(2, 48))
def test_dmu_forms_are_weighted_moment_matrices(atoms, N):
    # B_n = -(moment matrix of the weights w (1 - |z|^2)^(n-1))^T, from the
    # generator rows and by Pascal's rule on the entries
    locs = [r * np.exp(1j * t) for r, t, _ in atoms]
    assume(len(set(locs)) == len(locs))
    mu = PointMassMeasure(atoms=tuple(zip(locs, (w for _, _, w in atoms))))
    gram = dmu_gram(mu, N)
    G = gram.entries
    scale = N * EPS * np.abs(G).max()
    for route in (gram, G):
        for n, want in enumerate(dmu_forms_closed(mu, N, N - 1), 1):
            assert np.abs(hyperexpansive_form(route, n) - want).max() <= 2**n * scale


# one heavy boundary atom at N = 512: forms built from independently rounded
# powers (z ** np.arange) were 0.03-0.06 of the scale below off their closed
# form, and orders 2-5 were false FAILs
HEAVY_BOUNDARY = PointMassMeasure(atoms=((0.6 + 0.8j, 10.0), (0.3 + 0.1j, 0.5)))


@pytest.fixture(scope="module")
def heavy_boundary():
    N = 512
    G = dmu_gram(HEAVY_BOUNDARY, N).entries
    forms = [hyperexpansive_form(G, n) for n in range(1, 6)]
    return G, list(zip(forms, dmu_forms_closed(HEAVY_BOUNDARY, N, 5)))


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
def test_heavy_boundary_forms_pass_on_the_factor_route(n):
    # the FactoredForm of the generator rows, decided on its core
    cert = certify_nsd(hyperexpansive_form(dmu_gram(HEAVY_BOUNDARY, 512), n), order=n)
    assert cert.passed and cert.context["route"] == "factor"


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
    gram = hb_gram(pair, N)
    G = gram.entries
    scale = N * EPS * np.abs(G).max()
    for route in (gram, G):
        for n in range(1, N):
            assert np.abs(hyperexpansive_form(route, n) - binomial_form(G, n)).max() <= 2**n * scale

import cmath
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbrlab.debranges import MoebiusSymbol, SymbolError, hb_gram
from dbrlab.dirichlet import PointMassMeasure, dmu_gram
from dbrlab.synthesis import (
    equality_certificate,
    kernel_norm_certificates,
    point_mass,
    synthesize_symbol,
    synthesized_pair,
    verify_norm_equality,
)

from oracles import classify_symbol, corollary_params, synthesis_mp, synthesized_mate_mp


class TestSynthesizeSymbol:
    def test_unit_mass_at_origin(self):
        out = synthesize_symbol(1, 0)
        assert out.A == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert out.B == 0

    def test_unit_mass_at_half(self):
        out = synthesize_symbol(1, 0.5)
        assert out.A**2 == pytest.approx((9 - np.sqrt(65)) / 2, abs=1e-15)
        assert out.B == pytest.approx((9 - np.sqrt(65)) / 4, abs=1e-15)

    def test_unit_mass_on_circle(self):
        # radical simplification: A = (sqrt5 - 1)/2, B = (3 - sqrt5)/2
        out = synthesize_symbol(1, 1)
        assert out.A == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-14)
        assert out.B == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-14)
        assert out.A + abs(out.B) == pytest.approx(1, abs=1e-13)

    def test_zero_mass(self):
        out = synthesize_symbol(0, 0.3)
        assert out.A == 0 and out.B == 0

    def test_origin_branch_nonunit_mass(self):
        # forced by the Gram diagonal: A^2/(1 - A^2) = |alpha|^2
        out = synthesize_symbol(2, 0)
        assert out.A**2 == pytest.approx(0.8, abs=1e-14)
        assert verify_norm_equality(2, 0, 12).passed

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            synthesize_symbol(1, 1.5)

    def test_minus_branch_contractive(self):
        # the minus branch keeps |B| < 1; the plus branch would exceed 1
        for aa in np.linspace(0.1, 3, 12):
            for ll in np.linspace(0.05, 1, 12):
                out = synthesize_symbol(aa, ll)
                assert abs(out.B) < 1
                S = 1 + aa**2 + ll**2
                plus = (aa**2 / (2 * ll**2)) * (S + np.sqrt(S**2 - 4 * ll**2))
                assert plus * ll / aa**2 > 1  # |B_plus| > 1

    def test_continuity_at_origin(self):
        for aa in (0.3, 1.0, 2.5):
            near = synthesize_symbol(aa, 1e-4)
            at = synthesize_symbol(aa, 0)
            assert near.A**2 == pytest.approx(at.A**2, abs=1e-8)

    def test_output_invariants(self):
        out = synthesize_symbol(0.8, 0.3 + 0.4j)
        lam = 0.3 + 0.4j
        assert out.B == pytest.approx(out.A**2 * np.conj(lam) / 0.64, abs=1e-14)
        # symbol constructs cleanly (valid, nonextreme)
        assert out.symbol().flags().nonextreme


# |alpha| from where |alpha|^2 is still a normal float to where it nearly
# overflows; lambda at the origin, inside, near the circle and on it
ORACLE_ALPHAS = [1e-150, 1e-12, 1e-8, 3e-5, 0.5, 1, 2.5 - 1.5j, 3e3, 1.2e77, 1e154, 1.3e154]
ORACLE_LAMBDAS = [
    0, 0.5, 0.3 + 0.4j, -0.6j, 1 - 1e-8, (1 - 1e-12) * cmath.exp(1j), (1 - 1e-2) * cmath.exp(-2j),
    1, -1j, cmath.exp(2.5j), 1 + 1e-13,
]


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_synthesis_matches_mpmath(alpha):
    # the textbook sqrt(S^2 - 4|lam|^2) cancelled to 8e7 eps near the circle
    # for small alpha, and S^2 overflowed from |alpha| = 1.2e77 on
    eps = sys.float_info.epsilon
    for lam in ORACLE_LAMBDAS:
        out = synthesize_symbol(alpha, lam)
        A, B = synthesis_mp(alpha, lam)
        with mpmath.workdps(80):
            assert abs(out.A - A) <= 4 * eps * A, (alpha, lam)
            assert abs(out.B - B) <= 4 * eps * abs(B), (alpha, lam)


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_synthesized_mate_matches_mpmath(alpha):
    # rho = A / |alpha| and sigma = conj(lambda) rho, against the mate of the
    # exact symbol at 400 digits. A errs by <= 4 eps, |alpha| (hypot) by
    # < 1 ulp and the division and the product by 1/2 ulp: 6 eps
    eps = sys.float_info.epsilon
    for lam in ORACLE_LAMBDAS:
        if abs(lam) > 1 or abs(synthesize_symbol(alpha, lam).B) >= 1:
            # beyond the circle rho < |sigma|: no outer mate; and for
            # |alpha| below ~eps on the circle B rounds to the circle: no symbol
            continue
        pair = synthesized_pair(alpha, lam)
        rho, sigma = synthesized_mate_mp(alpha, lam)
        with mpmath.workdps(400):
            assert abs(pair.rho - rho) <= 6 * eps * rho, (alpha, lam)
            assert abs(pair.sigma - sigma) <= 6 * eps * abs(sigma), (alpha, lam)


def test_synthesized_mate_of_zero_alpha():
    pair = synthesized_pair(0, 0.5)
    assert (pair.rho, pair.sigma, pair.b.gamma) == (1.0, 0j, 0j)


def test_synthesis_beyond_float_weight_raises():
    for alpha in (1.35e154, 1e200, 1e308 + 1e308j):
        with pytest.raises(ValueError, match="float range"):
            synthesize_symbol(alpha, 0.5)


def test_symbol_below_double_resolution_on_the_circle_raises():
    # h = 1 + O(|alpha|) rounds to 1, so |B| = 1 / h rounds to 1: B is not clamped
    for alpha, lam in ((1e-17, 1), (1e-20j, -1), (1e-300, 1j)):
        out = synthesize_symbol(alpha, lam)
        assert abs(out.B) == 1
        with pytest.raises(SymbolError, match="double precision"):
            out.symbol()
        with pytest.raises(SymbolError, match="double precision"):
            synthesized_pair(alpha, lam)
    assert abs(synthesize_symbol(2e-16, 1).symbol().beta) < 1


class TestVerifyNormEquality:
    def test_origin(self):
        assert verify_norm_equality(1, 0, 16).passed

    def test_half(self):
        cert = verify_norm_equality(1, 0.5, 24, tol=1e-9)
        assert cert.passed

    def test_zero_measure(self):
        cert = verify_norm_equality(0, 0.3, 8)
        assert cert.passed and cert.witness <= 1e-14

    @pytest.mark.parametrize("alpha", [0.5, 1, 1.5, 2])
    def test_boundary_lambda_large_n(self, alpha):
        # on the circle s^2 - 4p is pure roundoff; taking its square root puts
        # ~1e-8 into rho and a Gram deviation of ~1e-2 at N = 512
        for k in range(12):
            assert verify_norm_equality(alpha, np.exp(1j * np.pi * k / 6), 512).passed

    def test_relative_tolerance_large_alpha(self):
        # Gram entries reach ~|alpha|^2 N = 4000, so their roundoff exceeds an
        # absolute 1e-9; an absolute tolerance FAILed 23 of these 40
        rng = np.random.default_rng(0)
        for _ in range(40):
            alpha = rng.uniform(1.9, 2.0)
            lam = np.exp(2j * np.pi * rng.uniform())
            cert = verify_norm_equality(alpha, lam, 1024)
            assert cert.passed, (alpha, lam, cert.witness, cert.tolerance)
            assert cert.tolerance > 1e-9

    def test_tolerance_scales_with_gram(self):
        mu = PointMassMeasure.single(0.5, 4.0)
        scale = np.abs(dmu_gram(mu, 24).entries).max()
        assert scale > 5  # 1 + 4 * sum_l 0.25^l -> 19/3
        cert = verify_norm_equality(2, 0.5, 24, tol=1e-9)
        assert cert.tolerance == 1e-9 * scale
        # the scale never drops below 1: H^2 alone has Gram I
        assert verify_norm_equality(0, 0.3, 8, tol=1e-9).tolerance == 1e-9


@settings(max_examples=80, deadline=None)
@given(
    modulus=st.floats(0.1, 2.0),
    phase=st.floats(0, 2 * np.pi),
    radius=st.one_of(st.floats(0, 0.95), st.just(1.0)),
    theta=st.floats(0, 2 * np.pi),
    N=st.sampled_from([24, 512]),
    move=st.sampled_from(["lambda", "alpha"]),
    delta=st.floats(1e-6, 0.05),
    psi=st.floats(0, 2 * np.pi),
)
@example(modulus=0.1, phase=0, radius=0, theta=0, N=24, move="lambda", delta=1e-6, psi=0)
@example(modulus=0.1, phase=0, radius=1, theta=1, N=512, move="alpha", delta=1e-6, psi=0)
def test_equality_certificate_bounds_and_detects(modulus, phase, radius, theta, N, move, delta, psi):
    # D(mu) for (alpha, lam) against H(b) for the same pair, which must PASS,
    # and for a false partner, lam moved by delta (along the circle when
    # |lam| = 1) or alpha scaled by 1 + delta, which must FAIL
    alpha, lam = modulus * np.exp(1j * phase), radius * np.exp(1j * theta)
    if move == "alpha":
        false_alpha, false_lam = alpha * (1 + delta), lam
    elif radius == 1:
        false_alpha, false_lam = alpha, lam * np.exp(1j * delta)
    else:
        false_alpha, false_lam = alpha, lam + delta * np.exp(1j * psi)
    G, G_b = dmu_gram(point_mass(alpha, lam), N), hb_gram(synthesized_pair(alpha, lam), N)
    F_b = hb_gram(synthesized_pair(false_alpha, false_lam), N)
    true = equality_certificate(alpha, lam, G, G_b, 1e-9)
    false = equality_certificate(alpha, lam, G, F_b, 1e-9)
    assert true.passed and true.context["route"] == "generators"
    assert not false.passed
    # the witness bounds max|G - H| of the exact Grams of the rows U and V.
    # Each computed entry is a sum of at most N products U_a conj(U_b) plus
    # 1: its error is at most ~sqrt(2) (N + 3) eps/2 sum|U_a||U_b| + eps/2,
    # below (N + 2) eps (1 + ||U||^2) by Cauchy-Schwarz; the witness itself
    # is a norm of N entries, within (N + 4) eps relative
    eps = np.finfo(float).eps
    U = G.generators.sum(axis=0)
    for H, cert in ((G_b, true), (F_b, false)):
        V = H.generators.sum(axis=0)
        dev = np.abs(G.entries - H.entries).max()
        slack = (N + 2) * eps * (2 + np.vdot(U, U).real + np.vdot(V, V).real)
        assert dev <= cert.witness * (1 + (N + 4) * eps) + slack


class TestCorollaryParams:
    def test_inverse_of_circle_synthesis(self):
        beta = (3 - np.sqrt(5)) / 2
        gamma = (np.sqrt(5) - 1) / 2
        weight, lam = corollary_params(beta, gamma)
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_rejects_constraint_violation(self):
        with pytest.raises(ValueError):
            corollary_params(0.5, 0.9)
        with pytest.raises(ValueError):
            corollary_params(0, 1)

    def test_roundtrip(self):
        weight, lam = corollary_params(0.25, 0.75)
        assert weight == pytest.approx(2.25) and lam == pytest.approx(1.0)
        out = synthesize_symbol(np.sqrt(weight), lam)
        assert out.A == pytest.approx(0.75, abs=1e-10)
        assert abs(out.B) == pytest.approx(0.25, abs=1e-10)

    def test_circle_consistency_grid(self):
        for aa in (0.1, 0.5, 1.0, 2.0, 3.0):
            lam = np.exp(0.7j)
            out = synthesize_symbol(aa, lam)
            assert out.A + abs(out.B) == pytest.approx(1, abs=1e-10)
            weight, lam2 = corollary_params(out.B, out.A)
            assert weight == pytest.approx(aa**2, rel=1e-10)
            assert lam2 == pytest.approx(lam, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    log_alpha=st.floats(-8, 7),
    phase=st.floats(0, 2 * np.pi),
    radius=st.one_of(st.floats(0, 0.99), st.just(1.0)),
    theta=st.floats(0, 2 * np.pi),
    seed=st.integers(0, 2**31 - 1),
)
@example(log_alpha=-6, phase=0, radius=0.5, theta=0, seed=0)
@example(log_alpha=-6, phase=0, radius=1.0, theta=0, seed=0)
def test_kernel_norms_hold_for_every_alpha(log_alpha, phase, radius, theta, seed):
    # the D(mu) part of ||k_w||^2 is |alpha|^2 ||(k_w - k_w(lambda)) / (z - lambda)||^2,
    # taken as the atom term itself: a difference of the D(mu) and H^2 norms
    # would lose eps / |alpha|^2 of it and FAIL below |alpha| ~ 1e-4
    alpha = 10**log_alpha * cmath.exp(1j * phase)
    lam = radius * cmath.exp(1j * theta)
    certs = kernel_norm_certificates(alpha, lam, 3, 300, 0.8, seed)
    assert [c.kind for c in certs] == ["dmu-kernel-norm", "hb-kernel-norm"] * 3
    assert all(c.passed for c in certs), [(c.kind, c.witness) for c in certs]


class TestClassifySymbol:
    def test_boundary_synthesis_two_isometry(self):
        b = synthesize_symbol(1, 1).symbol()
        cls = classify_symbol(b)
        assert cls.completely_hyperexpansive and cls.two_isometry
        pair = synthesized_pair(1, 1)
        assert pair.rho == pytest.approx(abs(pair.sigma), abs=1e-12)

    def test_interior_synthesis_not_two_isometry(self):
        cls = classify_symbol(synthesize_symbol(1, 0.5).symbol())
        assert cls.completely_hyperexpansive and not cls.two_isometry

    def test_scaled_shift_not_two_isometry(self):
        cls = classify_symbol(MoebiusSymbol(0, 1 / np.sqrt(2), 0))
        assert not cls.two_isometry

    def test_rejects_extreme(self):
        with pytest.raises(ValueError):
            classify_symbol(MoebiusSymbol(0, 1, 0))

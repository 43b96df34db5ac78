import json
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbrlab import debranges, hardy
from dbrlab.debranges import (
    MoebiusSymbol,
    SymbolError,
    fplus,
    hb_cauchy_norm,
    hb_gram,
    hb_inner,
    pythagorean_mate,
    validate_symbol,
)
from dbrlab.dirichlet import dmu_gram, PointMassMeasure, truncated_cauchy_kernel
from dbrlab.synthesis import synthesized_pair

from oracles import (
    coanalytic_toeplitz_apply,
    fplus_loop,
    fplus_mp,
    mate_taylor,
    symbol_taylor,
    unit_circle_deviation_np,
    validate_gram,
)
from test_hardy import sparse_poly
from test_operators import unit_phase, valid_symbol

SQ2 = 1 / np.sqrt(2)
# single boundary-free reference pair used throughout: b(z) = z/sqrt(2)
REF = pythagorean_mate(MoebiusSymbol(0, SQ2, 0))
# the delta_{1/2} synthesis constants (frozen from the closed form)
A_HALF = np.sqrt((9 - np.sqrt(65)) / 2)
B_HALF = (9 - np.sqrt(65)) / 4


class TestValidateSymbol:
    def test_shift_is_inner(self):
        flags = validate_symbol(0, 1, 0)
        assert flags.valid and flags.inner and not flags.nonextreme

    def test_scaled_shift_nonextreme(self):
        flags = validate_symbol(0, SQ2, 0)
        assert flags.valid and flags.nonextreme and not flags.inner

    def test_too_large(self):
        assert not validate_symbol(0, 2, 0).valid

    def test_general_inner(self):
        # Blaschke factor (z - a)/(1 - conj(a) z): s = 0 and beta = -conj(c) gamma
        a = 0.3 + 0.2j
        assert validate_symbol(-a, 1, np.conj(a)).inner

    def test_symbol_constructor_rejects_invalid(self):
        with pytest.raises(SymbolError):
            MoebiusSymbol(0, 2, 0)
        with pytest.raises(SymbolError):
            MoebiusSymbol(0, 0.1, 1.2)

    def test_json_roundtrip(self):
        b = MoebiusSymbol(0.1 + 0.2j, 0.3, -0.4j)
        text = json.dumps(b.to_json_dict(), sort_keys=True)
        assert MoebiusSymbol.from_json_dict(json.loads(text)) == b


class TestPythagoreanMate:
    def test_scaled_shift(self):
        assert REF.rho == pytest.approx(SQ2, abs=1e-15)
        assert REF.sigma == 0
        # |a|^2 + |b|^2 = 1/2 + |z|^2/2 = 1 on the circle
        assert REF.unit_circle_deviation() <= 1e-14

    def test_zero_symbol(self):
        pair = pythagorean_mate(MoebiusSymbol(0, 0, 0))
        assert pair.rho == 1 and pair.sigma == 0

    def test_delta_half_symbol(self):
        pair = pythagorean_mate(MoebiusSymbol(0, A_HALF, B_HALF))
        assert pair.unit_circle_deviation() <= 1e-12

    def test_rejects_inner(self):
        with pytest.raises(SymbolError, match="inner"):
            pythagorean_mate(MoebiusSymbol(0, 1, 0))

    def test_mate_conditions(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            c, gamma, beta = 0.4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            flags = validate_symbol(c, gamma, beta)
            if not flags.nonextreme:
                continue
            pair = pythagorean_mate(MoebiusSymbol(c, gamma, beta))
            s = 1 + abs(beta) ** 2 - abs(c) ** 2 - abs(gamma) ** 2
            p = abs(beta + np.conj(c) * gamma) ** 2
            assert pair.rho >= abs(pair.sigma) - 1e-14
            assert pair.rho**2 + abs(pair.sigma) ** 2 == pytest.approx(s, abs=1e-12)
            assert pair.rho**2 * abs(pair.sigma) ** 2 == pytest.approx(p, abs=1e-12)
            assert pair.unit_circle_deviation() <= 1e-12
            assert pair.mate_eval(0) == pytest.approx(pair.rho)

    @pytest.mark.parametrize(
        "b",
        [
            MoebiusSymbol(0, 0.5, 0.25),
            MoebiusSymbol(0.3 + 0.1j, 0.4 - 0.2j, 0.2 + 0.3j),
            MoebiusSymbol(0.2, 0.1j, 0.05),
            # synthesized for alpha = 1.5, lambda = 0.99 e^i: near a 2-isometry
            MoebiusSymbol(0, 0.7514953713185798, 0.13425860100279768 - 0.20909538230311753j),
        ],
    )
    def test_rho_matches_mpmath(self, b):
        # off the 2-isometries s^2 - 4p is far above roundoff, and must not be snapped to 0
        with mpmath.workdps(50):
            c, g, be = (mpmath.mpc(x) for x in (b.c, b.gamma, b.beta))
            s = 1 + abs(be) ** 2 - abs(c) ** 2 - abs(g) ** 2
            p = abs(be + mpmath.conj(c) * g) ** 2
            rho = mpmath.sqrt((s + mpmath.sqrt(s * s - 4 * p)) / 2)
            assert pythagorean_mate(b).rho == pytest.approx(float(rho), rel=1e-13)


def test_unit_circle_deviation_matches_numpy():
    # the scalar loop on cmath samples replaced a numpy evaluation of the same
    # 64 roots of unity; the two differ only in the roundoff of each sample,
    # which grows like 1 / |1 - beta z|, so the general symbols keep |beta| < 0.7
    rng = np.random.default_rng(25)
    pairs = [
        synthesized_pair(alpha, r * np.exp(1j * t))
        for alpha in (0.3, 1, 1.5 - 0.5j, 4)
        for r in (0, 0.5, 0.99, 1)
        for t in (0.0, 1.0, 2.5)
    ]
    while len(pairs) < 96:
        c, gamma, beta = 0.5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        if abs(beta) < 0.7:
            b = valid_symbol(c, gamma, beta, rng.uniform(0.3, 0.999))
            pairs.append(pythagorean_mate(b))
    for pair in pairs:
        got = pair.unit_circle_deviation()
        assert abs(got - unit_circle_deviation_np(pair)) <= 4 * sys.float_info.epsilon, pair


class TestFplus:
    def test_constant_maps_to_zero(self):
        assert len(fplus([1.0], REF)) == 0

    def test_monomials_scaled_shift(self):
        for n in (1, 2, 5):
            fp = fplus(hardy.monomial(n), REF)
            assert np.allclose(fp, hardy.monomial(n - 1), atol=1e-15)

    def test_monomials_synthesized_pair(self):
        # f+ of z^n is conj(alpha) times the difference quotient at lambda
        lam = 0.5
        pair = pythagorean_mate(MoebiusSymbol(0, A_HALF, B_HALF))
        for n in (1, 4, 9):
            fp = fplus(hardy.monomial(n), pair)
            expected = np.array([lam ** (n - 1 - j) for j in range(n)])
            assert np.allclose(fp, expected, atol=1e-12)

    def test_defining_equation_residual(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            c, gamma, beta = 0.4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            if not validate_symbol(c, gamma, beta).nonextreme:
                continue
            pair = pythagorean_mate(MoebiusSymbol(c, gamma, beta))
            deg = int(rng.integers(1, 64))
            f = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            fp = fplus(f, pair)
            # independent dense Toeplitz application of both sides
            n = deg + 1
            lhs = coanalytic_toeplitz_apply(mate_taylor(pair, n), np.pad(fp, (0, n - len(fp))))
            rhs = coanalytic_toeplitz_apply(symbol_taylor(pair.b, n), f)
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.linalg.norm(f)


direction = st.one_of(
    st.just(0j),
    st.tuples(st.floats(0.1, 1), st.floats(0, 2 * np.pi)).map(
        lambda rt: complex(rt[0] * np.exp(1j * rt[1]))
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    c=direction,
    gamma=direction,
    beta=st.one_of(
        st.just(0j),
        st.tuples(st.floats(0, 0.95), st.floats(0, 2 * np.pi)).map(
            lambda rt: complex(rt[0] * np.exp(1j * rt[1]))
        ),
    ),
    fraction=st.floats(0, 0.99),
    deg=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.3]),
)
def test_fplus_matches_the_numpy_scalar_loop(c, gamma, beta, fraction, deg, seed, zeros):
    # the doubling scan and the loop round differently: the loop carries each
    # term through up to d running-sum steps, the scan through ceil(log2(d + 1))
    # additions and through powers of r rounded by repeated squaring; each
    # coefficient is a sum of at most d + 1 rounded terms of the solution's size
    b = MoebiusSymbol(0, 0, beta) if c == gamma == 0 else valid_symbol(c, gamma, beta, fraction)
    pair = pythagorean_mate(b)
    f = sparse_poly(deg, seed, zeros)
    got, want = fplus(f, pair), fplus_loop(f, pair)
    assert got.shape == want.shape
    scale = np.abs(want).max(initial=0)
    assert np.abs(got - want).max(initial=0) <= 4 * (deg + 1) * np.finfo(float).eps * scale


def fplus_error_bound(f, pair):
    """The forward-error bound of `fplus`'s docstring, per coefficient: with
    S_i = sum_j |r|^j |f_(i+j)| / rho, r = conj(sigma) / rho and
    L = ceil(log2 n), |y_i - fl(y_i)| <= K eps S_i for
    K = (1 + sqrt(2)) (n - 1) + (sqrt(2) + 1/2) L + 1, and x_i = conj(c) y_i +
    conj(gamma) y_(i+1) adds (sqrt(2) + 1/2) eps to each of its two terms.
    The reference's own rounding to a double adds eps / 2 of |x_i| <= |c| S_i +
    |gamma| S_(i+1). S runs on floats, and the first-order K eps becomes
    K eps / (1 - K eps), which covers its rounding and the products of
    (1 + delta) factors (Higham 2002, lemma 3.1).

    Underflow adds an absolute error instead (Higham 2002, sec. 2.1): with
    eta = 2^-1074, at most eta per complex product by a real and 2 eta per
    complex product. y_i collects 2^L <= 2n initial products f_j (1 / rho) and
    2^L - 1 scan products, 6 n eta; p_k = r^(2^k) carries
    2^k eta + (2^k - 1) 2 eta <= 3 2^k eta, which multiplies some w_j,
    |w_j| <= max S, and reaches y_i along 2^(L-1-k) paths: 3 n L eta max S
    over the L steps. x_i adds its two products, 4 eta."""
    f = hardy.as_poly(f)
    n = len(f)
    eps, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    r = abs(pair.sigma) / pair.rho
    S = np.zeros(n + 1)
    for i in range(n - 1, -1, -1):
        S[i] = abs(f[i]) / pair.rho + r * S[i + 1]
    L = int(np.ceil(np.log2(n))) if n > 1 else 0
    K = (1 + np.sqrt(2)) * (n - 1) + (np.sqrt(2) + 0.5) * L + 1
    gamma_K = K * eps / (1 - K * eps)
    c, g = abs(pair.b.c), abs(pair.b.gamma)
    rounding = (gamma_K + (np.sqrt(2) + 1) * eps) * (c * S[:-1] + g * S[1:])
    underflow = ((c + g) * 3 * n * (2 + L * S.max()) + 4) * eta
    return rounding + underflow


@settings(max_examples=100, deadline=None)
@given(
    pair=st.one_of(
        # |lambda| = 1: |sigma / rho| = 1, so no power of r decays
        st.tuples(
            st.tuples(st.floats(-6, 6), unit_phase).map(lambda et: 10 ** et[0] * et[1]),
            unit_phase,
        ).map(lambda al: synthesized_pair(*al)),
        # general symbols up to 0.99 of the extreme scale, c or gamma possibly 0
        st.tuples(
            direction,
            direction,
            st.tuples(st.floats(0, 0.95), unit_phase).map(lambda rt: rt[0] * rt[1]),
            st.floats(0, 0.99),
        ).map(
            lambda a: pythagorean_mate(
                MoebiusSymbol(0, 0, a[2]) if a[0] == a[1] == 0 else valid_symbol(*a)
            )
        ),
    ),
    deg=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.3]),
)
def test_fplus_is_within_its_forward_error_bound_of_mpmath(pair, deg, seed, zeros):
    f = hardy.normalize(sparse_poly(deg, seed, zeros))
    got = fplus(f, pair)
    want = fplus_mp(f, pair)
    err = np.abs(np.pad(got, (0, len(want) - len(got))) - want)
    bound = fplus_error_bound(f, pair)
    # normalize drops the computed trailing coefficients at or below its threshold
    bound[len(got) :] += hardy.ZERO_THRESHOLD
    assert (err <= bound).all()


class TestHbInner:
    def test_constant(self):
        assert hb_inner([1.0], [1.0], REF) == pytest.approx(1.0)

    def test_z(self):
        assert hb_inner([0, 1], [0, 1], REF) == pytest.approx(2.0)

    def test_zero_symbol_is_h2(self):
        pair = pythagorean_mate(MoebiusSymbol(0, 0, 0))
        rng = np.random.default_rng(22)
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert hb_inner(f, g, pair) == pytest.approx(hardy.h2_inner(f, g), abs=1e-14)

    def test_dominates_h2(self):
        rng = np.random.default_rng(23)
        pair = pythagorean_mate(MoebiusSymbol(0.1, 0.5, 0.3j))
        for _ in range(10):
            f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert hb_inner(f, f, pair).real >= hardy.h2_inner(f, f).real - 1e-12

    def test_norm_makes_one_fplus_solve(self, monkeypatch):
        calls = []
        solve = debranges.fplus

        def counting_fplus(f, pair):
            calls.append(len(f))
            return solve(f, pair)

        pair = pythagorean_mate(MoebiusSymbol(0.1, 0.5, 0.3j))
        k = truncated_cauchy_kernel(0.3 - 0.4j, 300)
        monkeypatch.setattr(debranges, "fplus", counting_fplus)
        norm = hb_inner(k, k, pair)
        assert calls == [301]
        assert hb_inner(k, k.copy(), pair) == norm
        assert calls == [301] * 3


class TestHbGram:
    def test_scaled_shift_diag(self):
        G = hb_gram(REF, 4).entries
        assert np.allclose(G, np.diag([1, 2, 2, 2]), atol=1e-14)

    def test_zero_symbol_identity(self):
        pair = pythagorean_mate(MoebiusSymbol(0, 0, 0))
        assert np.allclose(hb_gram(pair, 3).entries, np.eye(3))

    def test_matches_dmu_gram_delta_half(self):
        pair = pythagorean_mate(MoebiusSymbol(0, A_HALF, B_HALF))
        Gd = dmu_gram(PointMassMeasure.single(0.5, 1.0), 8).entries
        Gb = hb_gram(pair, 8).entries
        assert np.abs(Gd - Gb).max() <= 1e-10

    def test_invariants_and_monotone_diag(self):
        pair = pythagorean_mate(MoebiusSymbol(0.1j, 0.4, 0.2 - 0.3j))
        G = hb_gram(pair, 12)
        validate_gram(G.entries)
        d = np.real(np.diag(G.entries))
        assert np.all(np.diff(d) >= -1e-12)

    def test_shift_defect_identity(self):
        # G[n+1][m+1] - G[n][m] = rho^-2 v_n conj(v_m), v_n = <z^n, S*b>_b
        pair = pythagorean_mate(MoebiusSymbol(0.1, 0.5, 0.25 + 0.2j))
        N = 10
        G = hb_gram(pair, N).entries
        D = G[1:, 1:] - G[:-1, :-1]
        # S*b = (b - b(0))/z, truncated where |beta|^k drops below 1e-17
        sb = symbol_taylor(pair.b, 40)[1:]
        assert abs(pair.b.beta) ** 39 <= 1e-17
        v = np.array([hb_inner(hardy.monomial(n), sb, pair) for n in range(N - 1)])
        R = np.outer(v, v.conj()) / pair.rho**2
        assert np.abs(D - R).max() <= 1e-8 * max(1.0, np.abs(D).max())


class TestHbCauchyNorm:
    def test_zero_symbol(self):
        pair = pythagorean_mate(MoebiusSymbol(0, 0, 0))
        assert hb_cauchy_norm(pair, 0.5) == pytest.approx(4 / 3)

    def test_scaled_shift(self):
        # phi = b/a = z, so the norm is (1 + 1/4)/(3/4)
        assert hb_cauchy_norm(REF, 0.5) == pytest.approx(5 / 3)

    def test_at_origin(self):
        pair = pythagorean_mate(MoebiusSymbol(0, A_HALF, B_HALF))
        assert hb_cauchy_norm(pair, 0) == pytest.approx(1.0)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            hb_cauchy_norm(REF, 1.0)

    def test_agrees_with_truncated_kernels(self):
        rng = np.random.default_rng(24)
        pair = pythagorean_mate(MoebiusSymbol(0, A_HALF, B_HALF))
        for _ in range(6):
            w = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            k = truncated_cauchy_kernel(w, 300)
            direct = hb_inner(k, k, pair).real
            assert direct == pytest.approx(hb_cauchy_norm(pair, w), rel=1e-8)


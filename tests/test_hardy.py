import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbrlab import hardy

from oracles import (
    difference_quotient_loop,
    difference_quotient_mp,
    exact_powers,
    moebius_taylor,
    poly_eval,
)

EPS = np.finfo(float).eps


def random_poly(rng, deg):
    return rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)


class TestH2Inner:
    def test_orthonormal_monomials(self):
        assert hardy.h2_inner(hardy.monomial(2), hardy.monomial(2)) == 1

    def test_coefficient_pairing(self):
        assert hardy.h2_inner([1, 2], [0, 3]) == 6

    def test_truncated_kernel_geometric_series(self):
        # ||k_w||^2 truncated at degree M is the partial geometric sum
        for M in (10, 40):
            k = np.conj(0.5) ** np.arange(M + 1)
            expected = sum(4.0**-j for j in range(M + 1))
            assert hardy.h2_inner(k, k).real == pytest.approx(expected, abs=1e-15)
        assert hardy.h2_inner(k, k).real == pytest.approx(4 / 3, abs=1e-12)

    def test_positive_definite(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_poly(rng, rng.integers(0, 12))
            assert hardy.h2_inner(f, f).real > 0
        assert hardy.h2_inner([], []) == 0

    def test_conjugate_symmetry_and_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = random_poly(rng, 8)
            g = random_poly(rng, 6)
            h = random_poly(rng, 8)
            a = complex(*rng.standard_normal(2))
            assert hardy.h2_inner(f, g) == pytest.approx(
                np.conj(hardy.h2_inner(g, f)), abs=1e-14
            )
            lhs = hardy.h2_inner(a * f + h, g)
            rhs = a * hardy.h2_inner(f, g) + hardy.h2_inner(h, g)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPolyEval:
    def test_sum_at_one(self):
        assert poly_eval([1, 1, 1], 1) == 3

    def test_cube_at_i(self):
        assert poly_eval(hardy.monomial(3), 1j) == pytest.approx(-1j)

    def test_constant_term(self):
        f = [2.5 + 1j, 3, 4]
        assert poly_eval(f, 0) == 2.5 + 1j

    def test_zero_poly(self):
        assert poly_eval([], 0.7) == 0


class TestDifferenceQuotient:
    def test_linear(self):
        q = hardy.difference_quotient([0, 1], 0.3 + 0.2j)
        assert np.allclose(q, [1])

    def test_square_at_half(self):
        # synthetic division oracle: z^2 = 1/4 + (z - 1/2)(z + 1/2)
        q = hardy.difference_quotient(hardy.monomial(2), 0.5)
        assert np.allclose(q, [0.5, 1])

    def test_monomial_geometric_sum(self):
        lam = 0.4 - 0.3j
        for n in (1, 3, 7):
            q = hardy.difference_quotient(hardy.monomial(n), lam)
            expected = [lam ** (n - 1 - j) for j in range(n)]
            assert np.allclose(q, expected, atol=1e-14)

    def test_constant_gives_zero(self):
        assert len(hardy.difference_quotient([5.0], 0.2)) == 0

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            f = random_poly(rng, int(rng.integers(1, 20)))
            zeta = 0.99 * (rng.standard_normal() + 1j * rng.standard_normal()) / 2
            if abs(zeta) > 1:
                zeta /= abs(zeta)
            q = hardy.difference_quotient(f, zeta)
            # f(z) - f(zeta) - (z - zeta) q(z) must vanish coefficientwise
            rebuilt = np.zeros(len(f), dtype=complex)
            rebuilt[0] = poly_eval(f, zeta) - zeta * q[0]
            rebuilt[1 : len(q) + 1] += q
            rebuilt[1 : len(q)] -= zeta * q[1:]
            assert np.abs(f - rebuilt).max() <= 1e-14 * np.linalg.norm(f)


def sparse_poly(deg, seed, zeros):
    """Random complex coefficients of degree <= deg, a fraction `zeros` of them 0."""
    rng = np.random.default_rng(seed)
    f = random_poly(rng, deg)
    f[rng.uniform(size=deg + 1) < zeros] = 0
    return f


disk_point = st.one_of(
    st.just(0j),
    st.floats(0, 2 * np.pi).map(lambda t: complex(np.exp(1j * t))),  # |zeta| = 1
    st.tuples(st.floats(0, 1), st.floats(0, 2 * np.pi)).map(
        lambda rt: complex(rt[0] * np.exp(1j * rt[1]))
    ),
)


def difference_quotient_error_bound(f, zeta):
    """The forward-error bound of `hardy.difference_quotient`'s docstring, per
    coefficient: with n = deg f, S_k = sum_j |zeta|^j |f_(k+1+j)| and
    L = ceil(log2 n), |q_k - fl(q_k)| <= K eps S_k for
    K = sqrt(2) (n - 1) + (sqrt(2) + 1/2) L. The reference's own rounding to a
    double adds eps / 2 of |q_k| <= S_k. S runs on floats, and the first-order
    K eps becomes K eps / (1 - K eps), which covers its rounding and the
    products of (1 + delta) factors (Higham 2002, lemma 3.1). Underflow adds
    the absolute 2 n (2 + L max S) 2^-1074 on top."""
    f = hardy.as_poly(f)
    n = max(len(f) - 1, 0)
    eta = np.finfo(float).smallest_subnormal
    a = abs(zeta)
    S = np.zeros(n + 1)
    for k in range(n - 1, -1, -1):
        S[k] = abs(f[k + 1]) + a * S[k + 1]
    L = int(np.ceil(np.log2(n))) if n > 1 else 0
    K = np.sqrt(2) * (n - 1) + (np.sqrt(2) + 0.5) * L
    gamma_K = K * EPS / (1 - K * EPS)
    return (gamma_K + EPS / 2) * S[:-1] + 2 * n * (2 + L * S.max()) * eta


# zeta rounding to 0 or to a subnormal, or whose powers underflow
tiny_point = st.tuples(
    st.sampled_from([5e-324, 1e-310, 1e-160, 1e-100]), st.floats(0, 2 * np.pi)
).map(lambda rt: complex(rt[0] * np.exp(1j * rt[1])))


@settings(max_examples=150, deadline=None)
@given(
    deg=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    zeta=st.one_of(disk_point, tiny_point),
    scale=st.sampled_from([1.0, 1e-310]),
)
def test_difference_quotient_is_within_its_forward_error_bound_of_mpmath(
    deg, seed, zeros, zeta, scale
):
    f = sparse_poly(deg, seed, zeros)
    if scale != 1:
        # subnormal coefficients below a unit leading one: with a tiny zeta the
        # products underflow where eps S_k < 2^-1074, and only the absolute
        # term of the bound holds
        f[:-1] *= scale
        f[-1] = 1
    f = hardy.normalize(f)
    got = hardy.difference_quotient(f, zeta)
    want = difference_quotient_mp(f, zeta)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= difference_quotient_error_bound(f, zeta)).all()


@settings(max_examples=50, deadline=None)
@given(
    deg=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    zeta=st.sampled_from([0j, 1, -1, 1j, -1j]),
)
def test_difference_quotient_is_the_loop_where_arithmetic_is_exact(deg, seed, zeta):
    # Gaussian integers below 2^8 and zeta in {0, +-1, +-i}: every power of
    # zeta and every partial sum, below 601 * 2^8 < 2^18, is exact, so the
    # scan's order of summation gives the loop's coefficients
    rng = np.random.default_rng(seed)
    f = rng.integers(-255, 256, deg + 1) + 1j * rng.integers(-255, 256, deg + 1)
    assert np.array_equal(hardy.difference_quotient(f, zeta), difference_quotient_loop(f, zeta))


class TestMoebiusTaylor:
    def test_identity_symbol(self):
        assert np.allclose(moebius_taylor(0, 1, 0, 4), [0, 1, 0, 0])

    def test_geometric(self):
        assert np.allclose(
            moebius_taylor(0, 0.5, 0.5, 4), [0, 0.5, 0.25, 0.125]
        )

    def test_constant(self):
        assert np.allclose(moebius_taylor(1, 0, 0, 2), [1, 0])

    def test_recurrence(self):
        c, g, b = 0.3 + 0.1j, -0.2j, 0.6 * np.exp(0.4j)
        coeffs = moebius_taylor(c, g, b, 12)
        assert np.allclose(coeffs[2:], b * coeffs[1:-1], atol=1e-15)

    def test_rejects_large_beta(self):
        with pytest.raises(ValueError):
            moebius_taylor(0, 1, 1.0, 4)


class TestNormalize:
    def test_strips_trailing_zeros(self):
        assert len(hardy.normalize([1, 2, 0, 0])) == 2

    def test_zero_poly_empty(self):
        assert len(hardy.normalize([0, 0])) == 0


class TestPowers:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.95, 1.0])
    def test_against_mpmath(self, r):
        # the error of z^l is a sum of l local roundings, O(sqrt(l) eps): below
        # sqrt(l) eps on these points, where z ** np.arange(512) reaches 40 sqrt(l) eps
        z = r * np.exp(1j * np.array([0.5, 1.0, 2.0, 2.5, 4.0]))
        got = hardy.powers(z, 512)
        assert got.shape == (5, 512)
        l = np.arange(512)
        for zk, row in zip(z, got):
            assert np.array_equal(hardy.powers(zk, 512), row)
            want = exact_powers(zk, 512)
            assert np.all(np.abs(row - want) <= 2 * np.sqrt(l) * EPS * np.abs(want))

    def test_shapes(self):
        assert hardy.powers(0.5, 0).shape == (0,)
        assert hardy.powers([], 3).shape == (0, 3)
        assert np.array_equal(hardy.powers(2j, 3), [1, 2j, -4])

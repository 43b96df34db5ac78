import numpy as np
import pytest

from dbrlab import hardy

from oracles import moebius_taylor, poly_eval


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

import json

import numpy as np
import pytest

from dbrlab import dirichlet, hardy
from dbrlab.dirichlet import (
    GramMatrix,
    PointMassMeasure,
    dmu_cauchy_norm,
    dmu_gram,
    dmu_inner,
    moment_matrix,
    truncated_cauchy_kernel,
)

from oracles import local_dirichlet, moment_matrix_outer, validate_gram


def random_measure(rng, max_atoms=4, boundary_ok=True):
    k = int(rng.integers(0, max_atoms + 1))
    atoms = []
    while len(atoms) < k:
        r = rng.uniform(0, 1) if not boundary_ok else rng.uniform(0, 1.0001)
        z = min(r, 1.0) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - z0) > 1e-3 for z0, _ in atoms):
            atoms.append((z, float(rng.uniform(0.1, 3))))
    return PointMassMeasure(atoms=tuple(atoms))


class TestPointMassMeasure:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            PointMassMeasure(atoms=((0.5, 0.0),))

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            PointMassMeasure(atoms=((1.5, 1.0),))

    @pytest.mark.parametrize(
        "z", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(np.inf, np.nan)]
    )
    def test_rejects_non_finite_location(self, z):
        # abs(nan) > 1 is False, so a plain comparison lets a NaN through
        with pytest.raises(ValueError, match="not a point of the closed disk"):
            PointMassMeasure(atoms=((z, 1.0),))

    def test_rejects_duplicate_locations(self):
        with pytest.raises(ValueError):
            PointMassMeasure(atoms=((0.5, 1.0), (0.5, 2.0)))

    def test_boundary_atom_allowed(self):
        mu = PointMassMeasure.single(np.exp(1j * np.pi / 4), 0.7)
        assert len(mu) == 1

    def test_json_roundtrip(self):
        mu = PointMassMeasure(atoms=((0.3 + 0.4j, 1.5), (-0.2, 0.5)))
        text = json.dumps(mu.to_json_dict(), sort_keys=True)
        assert PointMassMeasure.from_json_dict(json.loads(text)) == mu

    def test_json_field_names(self):
        d = PointMassMeasure.single(0.5j, 2.0).to_json_dict()
        assert d == {"atoms": [{"re": 0.0, "im": 0.5, "weight": 2.0}]}


class TestLocalDirichlet:
    def test_linear(self):
        assert local_dirichlet([0, 1], 0.7j) == pytest.approx(1.0)

    def test_square_at_half(self):
        # || z + 1/2 ||^2 = 1 + 1/4 by the coefficient oracle
        assert local_dirichlet(hardy.monomial(2), 0.5) == pytest.approx(1.25)

    def test_constant_is_smooth(self):
        assert local_dirichlet([3.0 + 1j], 0.2) == 0.0


class TestDmuInner:
    def test_empty_measure_is_h2(self):
        mu = PointMassMeasure.empty()
        f, g = [1, 2j, 3], [0.5, 1]
        assert dmu_inner(f, g, mu) == hardy.h2_inner(f, g)

    def test_z_with_delta0(self):
        mu = PointMassMeasure.single(0, 1.0)
        assert dmu_inner([0, 1], [0, 1], mu) == pytest.approx(2.0)

    def test_cross_term_delta_half(self):
        mu = PointMassMeasure.single(0.5, 1.0)
        val = dmu_inner(hardy.monomial(2), hardy.monomial(1), mu)
        assert val == pytest.approx(0.5)

    def test_expansive(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            mu = random_measure(rng)
            f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            assert dmu_inner(f, f, mu).real >= hardy.h2_inner(f, f).real - 1e-12

    def test_adding_atom_never_decreases(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mu = random_measure(rng, max_atoms=3)
            extra = PointMassMeasure(atoms=mu.atoms + ((0.123 + 0.456j, 0.8),))
            f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            assert dmu_inner(f, f, extra).real >= dmu_inner(f, f, mu).real - 1e-12

    def test_norm_makes_one_quotient_per_atom(self, monkeypatch):
        calls = []
        quotient = hardy.difference_quotient

        def counting_quotient(f, zeta):
            calls.append(zeta)
            return quotient(f, zeta)

        mu = PointMassMeasure(atoms=((0.5, 1.0), (np.exp(0.3j), 0.4), (-0.2j, 2.0)))
        k = truncated_cauchy_kernel(0.3 - 0.4j, 300)
        monkeypatch.setattr(hardy, "difference_quotient", counting_quotient)
        norm = dmu_inner(k, k, mu)
        assert calls == [z for z, _ in mu.atoms]
        assert dmu_inner(k, k.copy(), mu) == norm
        assert len(calls) == 3 * len(mu)


class TestDmuGram:
    def test_delta0(self):
        G = dmu_gram(PointMassMeasure.single(0, 1.0), 4).entries
        assert np.allclose(G, np.diag([1, 2, 2, 2]))

    def test_empty_measure_identity(self):
        G = dmu_gram(PointMassMeasure.empty(), 3).entries
        assert np.allclose(G, np.eye(3))

    def test_delta_half_2x2(self):
        # confirmed by the dmu_inner oracle: off-diagonal entries vanish
        G = dmu_gram(PointMassMeasure.single(0.5, 1.0), 2).entries
        assert np.allclose(G, [[1, 0], [0, 2]])

    def test_matches_dmu_inner(self):
        rng = np.random.default_rng(12)
        mu = random_measure(rng, max_atoms=3)
        G = dmu_gram(mu, 6).entries
        for n in range(6):
            for m in range(6):
                val = dmu_inner(hardy.monomial(n), hardy.monomial(m), mu)
                assert G[n, m] == pytest.approx(val, abs=1e-12)

    def test_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            validate_gram(dmu_gram(random_measure(rng), 16).entries)

    def test_shift_identity(self):
        # <zf, zg> - <f, g> = integral of f conj(g) d(mu), at Gram level
        rng = np.random.default_rng(14)
        for _ in range(10):
            mu = random_measure(rng)
            N = 9
            G = dmu_gram(mu, N + 1).entries
            M = moment_matrix(mu, N)
            assert np.abs(G[1:, 1:] - G[:-1, :-1] - M).max() <= 1e-12


class TestGramMatrix:
    def test_entries_built_only_when_read(self, monkeypatch):
        # the entries are an output format: dmu_gram keeps only the generator
        # rows, and each read of the entries builds them afresh
        builds = []
        build = dirichlet._toeplitz_gram

        def counting_build(U):
            builds.append(U.shape)
            return build(U)

        monkeypatch.setattr(dirichlet, "_toeplitz_gram", counting_build)
        G = dmu_gram(PointMassMeasure(atoms=((0.5, 1.0), (-0.3j, 2.0))), 6)
        assert builds == [] and G.generators.shape == (2, 6)
        A = np.asarray(G)
        assert builds == [(2, 6)]
        assert np.array_equal(A, G.entries) and A.shape == (6, 6)
        assert builds == [(2, 6)] * 2

    def test_generators_are_flushed_and_read_only(self):
        u = np.array([1.0, 1e-17, 0.5j, -1e-300])
        G = GramMatrix(u)
        assert G.generators.shape == (1, 4)
        assert np.array_equal(G.generators[0], [1.0, 0, 0.5j, 0])
        assert u[1] == 1e-17  # the caller's array is not touched
        with pytest.raises(ValueError):
            G.generators[0, 0] = 2

    @pytest.mark.parametrize("shape", [(2, 0), (2, 3, 4)])
    def test_rejects_bad_generator_shape(self, shape):
        with pytest.raises(ValueError):
            GramMatrix(np.ones(shape))


class TestMomentMatrix:
    def test_single_real_atom(self):
        M = moment_matrix(PointMassMeasure.single(0.5, 1.0), 3)
        expected = [[0.5 ** (n + m) for m in range(3)] for n in range(3)]
        assert np.allclose(M, expected)

    def test_complex_atom(self):
        M = moment_matrix(PointMassMeasure.single(0.5j, 2.0), 2)
        assert np.allclose(M, [[2, -1j], [1j, 0.5]])

    def test_empty(self):
        assert np.all(moment_matrix(PointMassMeasure.empty(), 2) == 0)

    def test_rank_equals_atom_count(self):
        rng = np.random.default_rng(15)
        mu = random_measure(rng, max_atoms=3)
        M = moment_matrix(mu, 8)
        ranks = np.linalg.matrix_rank(M, tol=1e-10)
        assert ranks == len(mu)

    def test_matches_outer_product_sum(self):
        # one Vandermonde product against one outer product per atom: each entry
        # sums the same k terms of modulus <= w_k, each route with a complex
        # product, a real scaling and k - 1 additions, so within (k + 4) eps sum(w)
        rng = np.random.default_rng(16)
        eps = np.finfo(float).eps
        for _ in range(20):
            mu = random_measure(rng, max_atoms=6)
            n = int(rng.integers(1, 40))
            total = sum(w for _, w in mu.atoms)
            got, want = moment_matrix(mu, n), moment_matrix_outer(mu, n)
            assert got.shape == want.shape == (n, n)
            assert np.abs(got - want).max() <= (len(mu) + 4) * eps * total


class TestDmuCauchyNorm:
    def test_origin_atom(self):
        assert dmu_cauchy_norm(1, 0, 0.5) == pytest.approx(1 / 3)

    def test_kernel_at_zero_is_constant(self):
        assert dmu_cauchy_norm(0.7 + 0.1j, 0.3, 0) == 0.0

    def test_boundary_atom(self):
        assert dmu_cauchy_norm(1, 1, 0.5) == pytest.approx(4 / 3)

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            dmu_cauchy_norm(1, 0, 1.0)

    def test_agrees_with_truncated_kernels(self):
        rng = np.random.default_rng(16)
        for _ in range(8):
            alpha = complex(*rng.standard_normal(2))
            lam = np.exp(2j * np.pi * rng.uniform()) * rng.uniform(0, 1)
            w = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            k = truncated_cauchy_kernel(w, 300)
            mu = PointMassMeasure.single(lam, abs(alpha) ** 2)
            direct = (dmu_inner(k, k, mu) - hardy.h2_inner(k, k)).real
            closed = dmu_cauchy_norm(alpha, lam, w)
            assert direct == pytest.approx(closed, rel=1e-8)

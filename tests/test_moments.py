import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dbrlab import hardy
from dbrlab.dirichlet import GramMatrix, PointMassMeasure, dmu_gram, moment_matrix
from dbrlab.operators import defect_matrix
from dbrlab.moments import (
    RecoveryError,
    certify_measure,
    match_atoms,
    recover_atoms,
    roundtrip_check,
)
from dbrlab.symbols import TOLERANCES


def separated_measure(rng, k, min_dist=0.1, boundary=False):
    atoms = []
    while len(atoms) < k:
        r = 1.0 if boundary and not atoms else np.sqrt(rng.uniform())
        z = r * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - z0) >= min_dist for z0, _ in atoms):
            atoms.append((z, float(rng.uniform(0.1, 10))))
    return PointMassMeasure(atoms=tuple(atoms))


class TestRecoverAtoms:
    def test_single_atom(self):
        M = moment_matrix(PointMassMeasure.single(0.5, 1.0), 6)
        result = recover_atoms(M)
        ((z, w),) = result.measure.atoms
        assert z == pytest.approx(0.5, abs=1e-12)
        assert w == pytest.approx(1.0, abs=1e-12)
        assert result.residual <= 1e-12

    def test_two_atoms(self):
        mu = PointMassMeasure(atoms=((0.5, 1.0), (0.3 + 0.4j, 2.0)))
        result = recover_atoms(moment_matrix(mu, 8))
        assert match_atoms(mu, result.measure) <= 1e-8

    def test_zero_matrix(self):
        result = recover_atoms(np.zeros((5, 5)))
        assert len(result.measure) == 0 and result.residual == 0

    def test_requested_rank_too_large(self):
        M = moment_matrix(PointMassMeasure.single(0.5, 1.0), 6)
        with pytest.raises(RecoveryError):
            recover_atoms(M, k=3)

    def test_negative_count_rejected(self):
        M = moment_matrix(PointMassMeasure.single(0.5, 1.0), 4)
        with pytest.raises(RecoveryError, match=">= 0"):
            recover_atoms(M, -1)

    def test_rejects_nonsquare(self):
        with pytest.raises(RecoveryError):
            recover_atoms(np.zeros((3, 4)))

    def test_boundary_atom(self):
        mu = PointMassMeasure(atoms=((np.exp(1j * np.pi / 4), 0.7), (0.2, 1.3)))
        result = recover_atoms(moment_matrix(mu, 8))
        assert match_atoms(mu, result.measure) <= 1e-8
        for z, _ in result.measure.atoms:
            assert abs(z) <= 1

    # one residual block (N <= 64) and several, the last one full or not
    @pytest.mark.parametrize("N", [8, 64, 65, 200])
    def test_self_consistent_residual(self, N):
        mu = PointMassMeasure(atoms=((0.5, 1.0), (-0.3j, 0.4)))
        # noise in every row, so that every block adds to the residual
        rng = np.random.default_rng(N)
        E = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        M = moment_matrix(mu, N) + 1e-10 * E
        result = recover_atoms(M, 2)
        rebuilt = moment_matrix(result.measure, N)
        assert result.residual == pytest.approx(np.linalg.norm(M - rebuilt), rel=1e-13)
        assert result.residual > 1e-10 * N

    def test_heavy_atom_residual_is_finite(self):
        # weight 1e306: squares of residual entries near 1e290 would overflow
        # unscaled, on the dense route and on the factor's core
        mu = PointMassMeasure.single(0.5, 1e306)
        for M in (moment_matrix(mu, 8), defect_matrix(dmu_gram(mu, 9))):
            result = recover_atoms(M)
            assert np.isfinite(result.residual) and result.residual <= 1e-12 * 1e306
            assert match_atoms(mu, result.measure) <= 1e-12 * 1e306

    def test_signed_dominant_weight_rejected(self):
        # a negated weight dominates |eigenvalue|; the recovery basis follows
        # |eigenvalue|, so the fit finds that weight and rejects it. A basis of
        # the top algebraic eigenvectors returned a positive measure here, with
        # residual 0.999 ||M||.
        mu_pos = moment_matrix(PointMassMeasure.single(0.5, 0.5), 3)
        mu_neg = moment_matrix(PointMassMeasure.single(np.exp(2j), 4.0), 3)
        with pytest.raises(RecoveryError, match="nonpositive"):
            recover_atoms(mu_pos - mu_neg)

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        mu = separated_measure(rng, 3, boundary=True)
        M = moment_matrix(mu, 12)
        M = M + 1e-9 * (rng.standard_normal(M.shape) + 1j * rng.standard_normal(M.shape))
        a, b = recover_atoms(M), recover_atoms(M)
        assert np.array(a.measure.atoms).tobytes() == np.array(b.measure.atoms).tobytes()
        assert (a.residual, a.condition) == (b.residual, b.condition)

    def test_well_separated_random(self):
        rng = np.random.default_rng(40)
        for k in range(1, 6):
            for _ in range(4):
                mu = separated_measure(rng, k)
                result = recover_atoms(moment_matrix(mu, 2 * k + 2))
                assert match_atoms(mu, result.measure) <= 1e-10


class TestRoundtrip:
    def test_delta0(self):
        assert roundtrip_check(PointMassMeasure.single(0, 1.0), 4).passed

    def test_boundary_plus_interior(self):
        mu = PointMassMeasure(atoms=((np.exp(1j * np.pi / 4), 0.7), (0.2, 1.3)))
        assert roundtrip_check(mu, 8).passed

    def test_three_atoms_with_boundary(self):
        mu = PointMassMeasure(
            atoms=((np.exp(2.2j), 0.5), (0.4 + 0.1j, 1.0), (-0.5j, 2.0))
        )
        assert roundtrip_check(mu, 10).passed

    def test_reports_vandermonde_condition(self):
        # the condition recover_atoms computes reaches the certificate
        mu = PointMassMeasure(atoms=((0.5, 1.0), (0.5 + 1e-3j, 2.0)))
        cert = roundtrip_check(mu, 12)
        want = recover_atoms(moment_matrix(mu, 12)).condition
        assert cert.context["condition"] == pytest.approx(want, rel=1e-6)
        assert cert.context["condition"] > 1e3

    def test_empty_measure(self):
        cert = roundtrip_check(PointMassMeasure.empty(), 3)
        assert cert.passed and cert.context["recovered"] == 0

    def test_rejects_small_n(self):
        mu = PointMassMeasure(atoms=((0.5, 1.0), (0.2, 1.0)))
        with pytest.raises(ValueError):
            roundtrip_check(mu, 2)


class TestMatchAtoms:
    def test_permutation_invariant(self):
        a = PointMassMeasure(atoms=((0.5, 1.0), (0.2j, 2.0)))
        b = PointMassMeasure(atoms=((0.2j, 2.0), (0.5, 1.0)))
        assert match_atoms(a, b) == 0

    def test_count_mismatch_is_inf(self):
        a = PointMassMeasure(atoms=((0.5, 1.0),))
        assert match_atoms(a, PointMassMeasure.empty()) == float("inf")


# ---- weight fit: least squares + positivity check against an NNLS oracle ----


def recovered_weights(M):
    """The recovered weights, or the RecoveryError message."""
    try:
        return np.array([w for _, w in recover_atoms(M).measure.atoms])
    except RecoveryError as e:
        return str(e)


def recovered_weights_nnls(M):
    """Same, with scipy's NNLS as the weight fit (the only real, 1-D lstsq call)."""
    lstsq = np.linalg.lstsq

    def fit(a, b, rcond=None):
        if b.ndim == 1:
            return scipy.optimize.nnls(a, b)[0], None, None, None
        return lstsq(a, b, rcond=rcond)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", fit)
        return recovered_weights(M)


atom = st.tuples(
    st.one_of(st.just(1.0), st.floats(0, 1)),  # radius, boundary allowed
    st.floats(0, 2 * np.pi),
    st.floats(0.1, 5),
)


@settings(max_examples=200, deadline=None)
@given(
    atoms=st.lists(atom, min_size=1, max_size=4),
    negate=st.one_of(st.none(), st.integers(0, 3)),
    noise=st.one_of(st.none(), st.floats(-14, -3)),
    extra_rows=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_weight_fit_matches_nnls(atoms, negate, noise, extra_rows, seed):
    atoms = [(r * np.exp(1j * t), w) for r, t, w in atoms]
    assume(all(abs(a - b) >= 0.1 for i, (a, _) in enumerate(atoms) for b, _ in atoms[:i]))
    if negate is not None:
        i = negate % len(atoms)
        atoms[i] = (atoms[i][0], -atoms[i][1])
    n = len(atoms) + 1 + extra_rows
    M = sum(w * moment_matrix(PointMassMeasure.single(z, 1.0), n) for z, w in atoms)
    if noise is not None:
        rng = np.random.default_rng(seed)
        M = M + 10**noise * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    got, want = recovered_weights(M), recovered_weights_nnls(M)
    assert isinstance(got, str) == isinstance(want, str)
    if not isinstance(want, str):
        # weights are in the units of M's entries: M[0][0] is the total mass
        assert np.abs(got - want).max() <= 1e-8 * np.abs(M).max()


# ---- the eigenvector-free route against the dense routes it replaced ----


def vandermonde(locs, n):
    return np.asarray(locs)[np.newaxis, :] ** np.arange(n)[:, np.newaxis]


def full_weight_fit(M, locs):
    """Least squares on all 2 N^2 real entries of M - sum_i w_i v_i v_i^H."""
    V = vandermonde(locs, M.shape[0])
    basis = np.stack([np.outer(v, v.conj()).ravel() for v in V.T], axis=1)
    A = np.vstack([basis.real, basis.imag])
    rhs = np.concatenate([M.ravel().real, M.ravel().imag])
    return np.linalg.lstsq(A, rhs, rcond=None)[0]


def eigh_route(M, k):
    """Locations from the top-k eigenvectors of eigh, weights by full_weight_fit."""
    w, U = np.linalg.eigh((M + M.conj().T) / 2)
    U = U[:, np.argsort(np.abs(w))[::-1][:k]]
    Phi = np.linalg.lstsq(U[:-1], U[1:], rcond=None)[0]
    locs = np.linalg.eigvals(Phi)
    locs = np.where(np.abs(locs) > 1, locs / np.abs(locs), locs)
    return PointMassMeasure(atoms=tuple(zip(locs, full_weight_fit(M, locs))))


@settings(max_examples=100, deadline=None)
@given(
    atoms=st.lists(atom, min_size=1, max_size=4),
    noise=st.one_of(st.none(), st.floats(-14, -6)),
    extra_rows=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduced_weight_fit_matches_full_lstsq(atoms, noise, extra_rows, seed):
    atoms = [(r * np.exp(1j * t), w) for r, t, w in atoms]
    assume(all(abs(a - b) >= 0.2 for i, (a, _) in enumerate(atoms) for b, _ in atoms[:i]))
    n = len(atoms) + 1 + extra_rows
    M = sum(w * moment_matrix(PointMassMeasure.single(z, 1.0), n) for z, w in atoms)
    if noise is not None:
        rng = np.random.default_rng(seed)
        M = M + 10**noise * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    try:
        result = recover_atoms(M, k=len(atoms))
    except RecoveryError:
        return
    locs = [z for z, _ in result.measure.atoms]
    got = np.array([w for _, w in result.measure.atoms])
    assert np.abs(got - full_weight_fit(M, locs)).max() <= 1e-12 * np.abs(M).max()
    rebuilt = moment_matrix(result.measure, n)
    want = np.linalg.norm(M - rebuilt)
    assert result.residual == pytest.approx(want, rel=1e-9, abs=1e-13 * np.linalg.norm(M))


def test_matches_eigh_route():
    rng = np.random.default_rng(42)
    for k in range(1, 5):
        for boundary in (False, True):
            for extra in (1, 6, 40):
                mu = separated_measure(rng, k, min_dist=0.3, boundary=boundary)
                M = moment_matrix(mu, k + extra)
                got = recover_atoms(M).measure
                want = eigh_route(M, k)
                assert match_atoms(want, got) <= 1e-10
                assert match_atoms(mu, got) <= 1e-10



# ---- the factor route of a measure against the dense route on its moments ----

ROUNDTRIP_TOL = 1e-8  # roundtrip_check's default tolerance

# radius and weight as the benchmark draws them: boundary atoms, interior
# atoms up to radius 0.95, weights in [0.1, 1]
bench_atom = st.tuples(
    st.one_of(st.just(1.0), st.floats(0, 0.95)),
    st.floats(0, 2 * np.pi),
    st.floats(0.1, 1),
)


@settings(max_examples=150, deadline=None)
@given(atoms=st.lists(bench_atom, min_size=1, max_size=4), N=st.integers(2, 128))
def test_factor_route_recovers_whatever_the_dense_route_recovers(atoms, N):
    # the dense route on the N x N moment matrix is the oracle: whenever it
    # recovers mu, the defect factor of the Gram of size N + 1 (the route of
    # `recover --measure`) gives the same atom count and the same atoms. The
    # atoms are kept 0.05 apart: in closer clusters near the origin the dense
    # route can still pass at 9e-9 from mu, while the factor route stays near
    # 1e-12, so the two would agree within ROUNDTRIP_TOL only by luck
    atoms = [(r * np.exp(1j * t), w) for r, t, w in atoms]
    assume(all(abs(a - b) >= 0.05 for i, (a, _) in enumerate(atoms) for b, _ in atoms[:i]))
    mu = PointMassMeasure(atoms=tuple(atoms))
    try:
        dense = recover_atoms(moment_matrix(mu, N)).measure
    except RecoveryError:
        dense = None
    assume(dense is not None and match_atoms(mu, dense) <= ROUNDTRIP_TOL)
    factor = recover_atoms(defect_matrix(dmu_gram(mu, N + 1))).measure
    assert len(factor) == len(dense)
    assert match_atoms(dense, factor) <= ROUNDTRIP_TOL
    assert match_atoms(mu, factor) <= ROUNDTRIP_TOL


# ---- detection power of `moment-identity`: mutated generator rows ----

# the README's measure: interior atoms and one on the circle
README_MU = PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.4j, 0.5), (1j, 0.2)))


def mutated_rows(mu, N, mutation):
    """dmu_gram's generator rows sqrt(w) (0, 1, z, ..., z^(N-2)) of mu, or a mutation of them."""
    z = np.array([loc for loc, _ in mu.atoms])
    w = np.array([wt for _, wt in mu.atoms])
    U = np.zeros((len(mu), N), dtype=complex)
    if mutation == "shift dropped":
        U[:] = np.sqrt(w)[:, np.newaxis] * hardy.powers(z, N)
    elif mutation == "conj powers":
        U[:, 1:] = np.sqrt(w)[:, np.newaxis] * hardy.powers(np.conj(z), N - 1)
    elif mutation == "w for sqrt(w)":
        U[:, 1:] = w[:, np.newaxis] * hardy.powers(z, N - 1)
    else:
        U[:, 1:] = np.sqrt(w)[:, np.newaxis] * hardy.powers(z, N - 1)
    return U


def test_unmutated_rows_pass_the_moment_identity():
    G = GramMatrix(mutated_rows(README_MU, 64, None))
    assert np.array_equal(G.generators, dmu_gram(README_MU, 64).generators)
    cert = certify_measure(README_MU, G, 5, TOLERANCES)[5]
    assert cert.kind == "moment-identity" and cert.passed


@pytest.mark.parametrize(
    "mutation, witness",
    [
        # D - M = sum w (|z|^2 - 1) z^i conj(z)^j, largest at (0, 0)
        ("shift dropped", 1.125),
        # D - M = sum w (conj(z)^i z^j - z^i conj(z)^j), largest at (0, 1)
        ("conj powers", 0.8),
        # D - M = sum (w^2 - w) z^i conj(z)^j, largest at (0, 0)
        ("w for sqrt(w)", 0.41),
    ],
)
def test_mutated_rows_fail_the_moment_identity(mutation, witness):
    # the true mu against a Gram of mutated generator rows: D and M no longer
    # share their rows, and the difference is far above roundoff
    G = GramMatrix(mutated_rows(README_MU, 64, mutation))
    cert = certify_measure(README_MU, G, 5, TOLERANCES)[5]
    assert cert.kind == "moment-identity" and not cert.passed
    assert cert.witness == pytest.approx(witness, rel=1e-9)

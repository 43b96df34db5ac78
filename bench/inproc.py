"""The in-process workloads: one op, its verdicts and its correctness gate.

Every dbrlab call goes through a module attribute (`dirichlet.dmu_gram`,
not an imported name) so a traced run sees it through the span wrappers.
An op returns (verdicts, output): verdicts are (kind, passed) pairs for
certificates of statements the paper proves true, so every FAIL is a false
FAIL; output is what the gate checks, outside the timed region. The gate
also feeds the certificates false statements, so a certificate that passes
whatever it is given fails the gate.
"""

import math

import numpy as np

from dbrlab import debranges, dirichlet, hardy, moments, operators, synthesis

import checks
import gen

NSD_ORDERS = range(1, 6)
RATIO_N_MAX = 8
KERNEL_DEGREE = 300
# the tolerances the `dbrlab` CLI applies by default
MOMENT_TOL = 1e-12
KERNEL_TOL = 1e-8
GRAM_TOL = 1e-9  # relative; the Gram's forward error is about N * eps


def certify_op(atoms, n=gen.N):
    """D(mu) side: Gram, NSD forms, defect vs moments, rank, recovery."""
    mu = dirichlet.PointMassMeasure(atoms=tuple(atoms))
    G = dirichlet.dmu_gram(mu, n)
    verdicts = [
        ("nsd", operators.certify_nsd(operators.hyperexpansive_form(G, k)).passed)
        for k in NSD_ORDERS
    ]
    D = operators.defect_matrix(G)
    M = dirichlet.moment_matrix(mu, n - 1)
    verdicts.append(("moment-identity", float(np.abs(D - M).max()) <= MOMENT_TOL))
    verdicts.append(("defect-rank", operators.numerical_rank(D) == len(mu)))
    try:
        got = moments.recover_atoms(D).measure
        worst = moments.match_atoms(mu, got)
    except moments.RecoveryError:
        # the package declining to recover a valid measure is a FAIL verdict
        got, worst = None, math.inf
    verdicts.append(("roundtrip", worst <= checks.ROUNDTRIP_TOL))
    return verdicts, (G.entries, got, worst)


def dmu_gram_closed_form(atoms, n):
    """G[i][j] = delta_ij + sum_k w_k g_k(min(i,j)) * (conj(z_k)^(j-i) or z_k^(i-j)).

    g(m) = sum_{l<m} |z|^(2l) is the local Dirichlet integral of z^m at z;
    summed directly, so boundary atoms need no special case.
    """
    i, j = np.indices((n, n))
    lo = np.minimum(i, j)
    G = np.eye(n, dtype=complex)
    for z, w in atoms:
        g = np.concatenate([[0.0], np.cumsum(abs(z) ** (2 * np.arange(n - 1)))])
        up = np.conj(z) ** np.arange(n)
        down = z ** np.arange(n)
        G += w * g[lo] * np.where(j >= i, up[np.abs(j - i)], down[np.abs(i - j)])
    return G


def certify_gate(atoms, out):
    """Gram vs closed form, a negative NSD control, recovery vs an independent match."""
    gram, got, worst = out
    n = gram.shape[0]
    want = dmu_gram_closed_form(atoms, n)
    errors = []
    dev = float(np.abs(gram - want).max())
    if dev > GRAM_TOL * float(np.abs(want).max()):
        errors.append(f"dmu_gram deviates from its closed form by {dev:.3e}")
    # Negating every weight turns G into 2I - G and the defect into -M, so
    # the order-1 form is M^T: PSD, with top eigenvalue >= M[0][0], the total
    # weight. Its NSD certificate must FAIL.
    flipped = operators.hyperexpansive_form(2 * np.eye(n) - want, 1)
    if operators.certify_nsd(flipped).passed:
        errors.append("certify_nsd passed the order-1 form of a measure with negated weights")
    if got is not None:
        mine = checks.match_atoms(atoms, got.atoms)
        if (mine <= checks.ROUNDTRIP_TOL) != (worst <= checks.ROUNDTRIP_TOL):
            errors.append(f"match_atoms reports {worst:.3e}, an independent pairing {mine:.3e}")
    return errors


def correspond_op(inp, n=gen.N):
    """H(b) side: synthesis + norm equality, a general symbol's identities, kernels."""
    alpha, lam = inp["alpha"], inp["lam"]
    syn = synthesis.synthesize_symbol(alpha, lam)
    verdicts = [("norm-equality", synthesis.verify_norm_equality(alpha, lam, n).passed)]
    pair = debranges.pythagorean_mate(debranges.MoebiusSymbol(*inp["symbol"]))
    Gb = debranges.hb_gram(pair, n)
    verdicts.append(
        ("ratio-identity", operators.ratio_identity_check(Gb, pair, RATIO_N_MAX).passed)
    )
    verdicts.append(("rank1-defect", operators.rank1_defect_check(Gb, pair).passed))
    spair = debranges.pythagorean_mate(syn.symbol())
    mu = dirichlet.PointMassMeasure.single(lam, abs(alpha) ** 2)
    for w in inp["points"]:
        k = dirichlet.truncated_cauchy_kernel(w, KERNEL_DEGREE)
        direct = (dirichlet.dmu_inner(k, k, mu) - hardy.h2_inner(k, k)).real
        closed = dirichlet.dmu_cauchy_norm(alpha, lam, w)
        verdicts.append(("dmu-kernel-norm", abs(direct - closed) <= KERNEL_TOL * closed))
        direct = debranges.hb_inner(k, k, spair).real
        closed = debranges.hb_cauchy_norm(spair, w)
        verdicts.append(("hb-kernel-norm", abs(direct - closed) <= KERNEL_TOL * closed))
    return verdicts, (syn, pair, spair)


def correspond_gate(inp, out):
    syn, pair, spair = out
    b = spair.b
    return (
        checks.synthesis_errors(inp["alpha"], inp["lam"], syn.A, syn.B)
        + checks.mate_errors(inp["symbol"], pair.rho, pair.sigma)
        + checks.mate_errors((b.c, b.gamma, b.beta), spair.rho, spair.sigma)
    )


# workload -> (input for op i at worker position j, op, gate)
WORKLOADS = {
    "certify": (gen.certify_input, certify_op, certify_gate),
    "correspond": (gen.correspond_input, correspond_op, correspond_gate),
}

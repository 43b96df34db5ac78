"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are pinned here and never loosened.
"""

import time

import numpy as np
import pytest

from dbrlab.debranges import (
    hb_cauchy_norm,
    hb_gram,
    hb_inner,
)
from dbrlab.dirichlet import (
    PointMassMeasure,
    dmu_cauchy_norm,
    dmu_gram,
    dmu_inner,
    moment_matrix,
    truncated_cauchy_kernel,
)
from dbrlab.hardy import h2_inner
from dbrlab.moments import match_atoms, recover_atoms, roundtrip_check
from dbrlab.operators import (
    certify_nsd,
    defect_matrix,
    hyperexpansive_form,
    numerical_rank,
    rank1_defect_check,
    ratio_identity_check,
)
from dbrlab.synthesis import (
    synthesize_symbol,
    synthesized_pair,
    verify_norm_equality,
)

from oracles import corollary_params

# (alpha, lambda) parameter set shared by criteria 3, 9, 10
PAIR_SET = [
    (1.0, 0.0),
    (1.0, 0.5),
    (0.8, 0.3 + 0.4j),
    (2.0, -0.7),
    (1.0, np.exp(1j * np.pi / 3)),
]


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def random_separated_measure(rng, k, max_weight=10.0):
    atoms = []
    while len(atoms) < k:
        z = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - z0) >= 0.1 for z0, _ in atoms):
            atoms.append((z, float(rng.uniform(0.1, max_weight))))
    return PointMassMeasure(atoms=tuple(atoms))


def test_criterion_1_origin_synthesis():
    t0 = time.perf_counter()
    out = synthesize_symbol(1, 0)
    elapsed = time.perf_counter() - t0
    dev = max(abs(out.A - 0.7071067811865476), abs(out.B))
    report(
        1,
        dev <= 1e-12 and elapsed < 1e-3,
        f"A={out.A!r}, B={out.B!r}, dev={dev:.2e}, {elapsed * 1e6:.0f}us",
    )


def test_criterion_2_half_synthesis():
    out = synthesize_symbol(1, 0.5)
    dev_a = abs(out.A**2 - (9 - np.sqrt(65)) / 2)
    dev_b = abs(out.B - (9 - np.sqrt(65)) / 4)
    report(2, dev_a <= 1e-12 and dev_b <= 1e-12, f"devA2={dev_a:.2e}, devB={dev_b:.2e}")


def test_criterion_3_norm_equality():
    worst = 0.0
    slowest = 0.0
    for alpha, lam in PAIR_SET:
        t0 = time.perf_counter()
        cert = verify_norm_equality(alpha, lam, 24, tol=1e-9)
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, cert.witness)
    report(
        3,
        worst <= 1e-9 and slowest < 1.0,
        f"max entrywise dev={worst:.2e}, slowest case {slowest * 1e3:.0f}ms",
    )


def test_criterion_4_two_isometry_dichotomy():
    # forms on monomials of degree <= 16
    boundary = hyperexpansive_form(
        hb_gram(synthesized_pair(1, np.exp(1j * np.pi / 3)), 19), 2
    )
    interior = np.asarray(hyperexpansive_form(hb_gram(synthesized_pair(1, 0.5), 19), 2))
    max_entry = float(np.abs(boundary).max())
    min_eig = float(np.linalg.eigvalsh((interior + interior.conj().T) / 2)[0])
    report(
        4,
        max_entry <= 1e-10 and min_eig <= -1e-3,
        f"boundary max|B2|={max_entry:.2e}, interior min eig={min_eig:.3e}",
    )


def test_criterion_5_complete_hyperexpansivity():
    mu = PointMassMeasure(
        atoms=((0, 1.0), (0.6, 0.5), (np.exp(1j * np.pi / 4), 0.7))
    )
    t0 = time.perf_counter()
    G = dmu_gram(mu, 32)
    worst = max(
        certify_nsd(hyperexpansive_form(G, n), 1e-10).witness for n in range(1, 7)
    )
    elapsed = time.perf_counter() - t0
    report(
        5,
        worst <= 1e-10 and elapsed < 2.0,
        f"max NSD witness over B1..B6 = {worst:.2e}, {elapsed * 1e3:.0f}ms",
    )


def test_criterion_6_moment_identity():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        mu = random_separated_measure(rng, int(rng.integers(0, 5)))
        D = defect_matrix(dmu_gram(mu, 16))
        worst = max(worst, float(np.abs(D - moment_matrix(mu, 15)).max()))
    report(6, worst <= 1e-12, f"max entrywise defect-moment dev={worst:.2e}")


def test_criterion_7_rank_correspondence():
    rng = np.random.default_rng(2027)
    ok = True
    for i in range(20):
        k = i % 5 + 1
        mu = random_separated_measure(rng, k)
        D = defect_matrix(dmu_gram(mu, 2 * k + 4))
        ok = ok and numerical_rank(D, 1e-8) == k
    report(7, ok, "numerical rank of the defect equals the atom count, k=1..5")


def test_criterion_8_recovery_roundtrip():
    rng = np.random.default_rng(2027)  # same 20 measures as criterion 7
    worst = 0.0
    slowest = 0.0
    for i in range(20):
        k = i % 5 + 1
        mu = random_separated_measure(rng, k)
        t0 = time.perf_counter()
        result = recover_atoms(moment_matrix(mu, 2 * k + 4))
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, match_atoms(mu, result.measure))
    report(
        8,
        worst <= 1e-8 and slowest < 0.1,
        f"worst atom/weight dev={worst:.2e}, slowest {slowest * 1e3:.1f}ms",
    )


def test_criterion_9_ratio_identity():
    worst_ratio = 0.0
    ok = True
    for alpha, lam in PAIR_SET:
        pair = synthesized_pair(alpha, lam)
        cert = ratio_identity_check(hb_gram(pair, 24), pair, 5, tol=1e-8)
        ok = ok and cert.passed
        worst_ratio = max(worst_ratio, cert.witness / max(cert.tolerance / 1e-8, 1))
    report(9, ok, f"worst ||B_n - r^(n-2) B_2||_F = {worst_ratio:.2e}")


def test_criterion_10_rank1_defect_eigenvalue():
    worst = 0.0
    ok = True
    for alpha, lam in PAIR_SET:
        pair = synthesized_pair(alpha, lam)
        cert = rank1_defect_check(hb_gram(pair, 24), pair, tol=1e-8)
        ok = ok and cert.passed
        worst = max(worst, cert.witness)
    report(10, ok, f"worst relative eigenvalue deviation={worst:.2e}")


def test_criterion_11_cauchy_kernel_closed_forms():
    rng = np.random.default_rng(2028)
    worst = 0.0
    for alpha, lam in [(1.0, 0.5), (0.8, 0.3 + 0.4j), (1.0, np.exp(1j * np.pi / 3))]:
        mu = PointMassMeasure.single(lam, abs(alpha) ** 2)
        pair = synthesized_pair(alpha, lam)
        for _ in range(10):
            w = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            k = truncated_cauchy_kernel(w, 300)
            direct_dmu = float(np.real(dmu_inner(k, k, mu) - h2_inner(k, k)))
            closed_dmu = dmu_cauchy_norm(alpha, lam, w)
            worst = max(worst, abs(direct_dmu - closed_dmu) / closed_dmu)
            direct_hb = float(np.real(hb_inner(k, k, pair)))
            closed_hb = hb_cauchy_norm(pair, w)
            worst = max(worst, abs(direct_hb - closed_hb) / closed_hb)
    report(11, worst <= 1e-8, f"worst relative closed-form dev={worst:.2e}")


def test_criterion_12_circle_corollary():
    lam = np.exp(1j * np.pi / 3)
    worst = 0.0
    for alpha in (0.1, 0.5, 1.0, 2.0, 3.0):
        out = synthesize_symbol(alpha, lam)
        worst = max(worst, abs(out.A + abs(out.B) - 1))
        weight, lam2 = corollary_params(out.B, out.A)
        worst = max(worst, abs(weight - out.A**2 / abs(out.B)))
        worst = max(worst, abs(weight - alpha**2))
        worst = max(worst, abs(lam2 - np.conj(out.B) / abs(out.B)))
        worst = max(worst, abs(lam2 - lam))
    report(12, worst <= 1e-10, f"worst circle-consistency dev={worst:.2e}")

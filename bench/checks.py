"""Correctness checks on outputs, against truths the paper states directly.

Pure Python, shared by the in-process workloads and the cli workload. A
check here failing means the output is wrong, not that a certificate was
too strict: the tolerances sit far above roundoff, so they flag broken
arithmetic and never a verdict. Verdicts are judged separately, by the
certificate's own tolerance, as `false_fail_ratio`.
"""

import cmath
import math

ROUNDTRIP_TOL = 1e-8  # moments.roundtrip_check default
QUADRATIC_TOL = 1e-10
CIRCLE_TOL = 1e-6
CIRCLE_SAMPLES = 64


def synthesis_errors(alpha, lam, A, B):
    """Symbol constants must solve the defining equations of the synthesis.

    x = A^2 is the root of |lam|^2 x^2 - S |alpha|^2 x + |alpha|^4 = 0,
    S = 1 + |alpha|^2 + |lam|^2, that gives |B| <= 1, and
    B = x conj(lam) / |alpha|^2.
    """
    a = abs(alpha) ** 2
    ll = abs(lam) ** 2
    x = A * A
    errors = []
    residual = ll * x * x - (1 + a + ll) * a * x + a * a
    if not (A >= 0 and abs(residual) <= QUADRATIC_TOL * max(a * a, 1e-300)):
        errors.append(f"synthesis: A = {A!r} does not solve the quadratic (residual {residual:.3e})")
    if a and abs(B - x * lam.conjugate() / a) > 1e-12 * max(1.0, abs(B)):
        errors.append(f"synthesis: B = {B!r} != A^2 conj(lambda) / |alpha|^2")
    if abs(B) > 1 + 1e-12:
        errors.append(f"synthesis: |B| = {abs(B)!r} > 1")
    return errors


def mate_errors(symbol, rho, sigma):
    """The mate a = (rho - sigma z)/(1 - beta z) must give |a|^2 + |b|^2 = 1 on the circle."""
    c, gamma, beta = symbol
    worst = 0.0
    for k in range(CIRCLE_SAMPLES):
        z = cmath.exp(2j * math.pi * k / CIRCLE_SAMPLES)
        b = (c + gamma * z) / (1 - beta * z)
        a = (rho - sigma * z) / (1 - beta * z)
        worst = max(worst, abs(abs(a) ** 2 + abs(b) ** 2 - 1))
    if rho > 0 and worst <= CIRCLE_TOL:
        return []
    return [f"mate: rho = {rho!r}, max | |a|^2 + |b|^2 - 1 | = {worst:.3e}"]


def match_atoms(expected, got):
    """Greedy nearest pairing as moments.match_atoms; inf when counts differ."""
    exp = list(expected)
    rec = list(got)
    if len(exp) != len(rec):
        return math.inf
    worst = 0.0
    while exp:
        dist, i, j = min(
            (abs(ze - zr), i, j) for i, (ze, _) in enumerate(exp) for j, (zr, _) in enumerate(rec)
        )
        worst = max(worst, dist, abs(exp[i][1] - rec[j][1]))
        exp.pop(i)
        rec.pop(j)
    return worst

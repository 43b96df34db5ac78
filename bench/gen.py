"""Seeded input generators, pure Python so the cli worker never imports numpy.

Every input of op i of a workload is drawn from its own stream
`random.Random(f"{seed}/{workload}/{i}")`, so one (seed, i) always gives
the same input whatever ran before it. Inputs are stratified by the op's
position j within its worker (j % 4): atom count 1..4 on `certify`, one
boundary lambda in four on `correspond`. That fixes the mix of hard and
easy ops in every run, so medians do not move with the luck of the draw.
"""

import cmath
import math
import random

N = 512  # Gram size of the in-process ops
STRATA = 4
MAX_INTERIOR_RADIUS = 0.95
KERNEL_RADIUS = 0.8
KERNEL_POINTS = 10


def rng_for(seed, workload, i):
    return random.Random(f"{seed}/{workload}/{i}")


def _polar(rng, radius):
    return cmath.rect(radius, 2 * math.pi * rng.random())


def _interior(rng, rmax=MAX_INTERIOR_RADIUS):
    # sqrt makes the point uniform in area on the disk of radius rmax
    return _polar(rng, rmax * math.sqrt(rng.random()))


def measure_atoms(rng, k):
    """k atoms (location, weight); atom 0 lies on the unit circle when k >= 2.

    Nothing keeps atoms apart: near-collisions are rare but real inputs,
    and their verdicts count like any other.
    """
    atoms = [(_polar(rng, 1.0), rng.uniform(0.1, 1.0))] if k >= 2 else []
    while len(atoms) < k:
        atoms.append((_interior(rng), rng.uniform(0.1, 1.0)))
    return atoms


def certify_input(seed, i, j):
    """Atomic measure for op i at worker position j: 1 + j % 4 atoms."""
    return measure_atoms(rng_for(seed, "certify", i), 1 + j % STRATA)


def symbol_valid(c, gamma, beta):
    """||b||_inf <= 1 for b = (c + gamma z)/(1 - beta z): s >= 2 sqrt(p)."""
    s = 1 + abs(beta) ** 2 - abs(c) ** 2 - abs(gamma) ** 2
    return abs(beta) < 1 and s >= 2 * abs(beta + c.conjugate() * gamma)


def general_symbol(rng):
    """A nonextreme Moebius symbol with c != 0, strictly inside the unit ball.

    (c, gamma) is scaled to between 0.3 and 0.95 of the largest valid
    scale, found by bisection, so the symbol is never inner.
    """
    beta = _interior(rng, 0.9)
    c0 = _polar(rng, rng.uniform(0.1, 1.0))
    g0 = _polar(rng, rng.uniform(0.1, 1.0))
    lo, hi = 0.0, 1.0 / math.hypot(abs(c0), abs(g0))
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if symbol_valid(mid * c0, mid * g0, beta) else (lo, mid)
    t = lo * rng.uniform(0.3, 0.95)
    return t * c0, t * g0, beta


def alpha_lambda(rng, boundary):
    alpha = _polar(rng, rng.uniform(0.2, 2.0))
    lam = _polar(rng, 1.0) if boundary else _interior(rng)
    return alpha, lam


def kernel_points(rng, n=KERNEL_POINTS):
    return [_interior(rng, KERNEL_RADIUS) for _ in range(n)]


def correspond_input(seed, i, j):
    """(alpha, lambda), a general symbol and kernel points for op i.

    lambda lies on the unit circle at one position in four.
    """
    rng = rng_for(seed, "correspond", i)
    alpha, lam = alpha_lambda(rng, boundary=j % STRATA == STRATA - 1)
    return {
        "alpha": alpha,
        "lam": lam,
        "symbol": general_symbol(rng),
        "points": kernel_points(rng),
    }


def cli_input(seed):
    """One input set per run, shared by every cli invocation of that run.

    lambda stays interior here: this workload measures cold start, and the
    boundary case is exercised per op on `correspond`.
    """
    rng = rng_for(seed, "cli", 0)
    alpha, lam = alpha_lambda(rng, boundary=False)
    return {
        "alpha": alpha,
        "lam": lam,
        "atoms": measure_atoms(rng, 1 + rng.randrange(STRATA)),
        "symbol": general_symbol(rng),
        "kernel_seed": rng.randrange(2**31),
    }

"""Command-line driver: every verification as a reproducible batch command.

Subcommands
    mate             Pythagorean mate of a symbol + roots-of-unity certificate
    synthesize       symbol constants from (alpha, lambda)
    verify-equality  entrywise Gram comparison of D(mu) and H(b)
    certify          hyperexpansivity / defect-rank / moment certificates
    recover          atomic measure from a moment matrix
    kernel-norms     closed-form vs truncated Cauchy-kernel norms

All JSON output is deterministic (sorted keys, shortest round-trip
floats); exit status is 0 exactly when every emitted certificate passes.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .debranges import (
    CIRCLE_SAMPLES,
    MoebiusSymbol,
    SymbolError,
    hb_cauchy_norm,
    hb_inner,
    pythagorean_mate,
)
from .dirichlet import (
    DISK_TOL,
    PointMassMeasure,
    dmu_cauchy_norm,
    dmu_gram,
    dmu_inner,
    moment_matrix,
    truncated_cauchy_kernel,
)
from .hardy import h2_inner
from .moments import RecoveryError, recover_atoms
from .operators import (
    NSD_TOL,
    RANK_TOL,
    Certificate,
    certify_nsd,
    defect_matrix,
    hyperexpansive_forms,
    numerical_rank,
)
from .synthesis import (
    _equality_certificate,
    _equality_grams,
    point_mass,
    synthesize_symbol,
    synthesized_pair,
)

DEFAULT_TOLS = {
    "mate": 1e-12,
    "equality": 1e-9,
    "nsd": NSD_TOL,
    "moment": 1e-12,
    "rank": RANK_TOL,
    "kernel": 1e-8,
}


def parse_complex(s):
    """Accept 're' or 're+imi' strings ('i' or 'j' imaginary suffix)."""
    try:
        return complex(s.strip().replace("i", "j"))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {s!r}") from e


def _complex_json(z):
    return {"re": z.real, "im": z.imag}


def _finite_json(x):
    """x with each non-finite float replaced by the string "inf", "-inf" or
    "nan": strict JSON has no such numbers, and json.dumps would write the
    non-standard Infinity and NaN."""
    if isinstance(x, dict):
        return {k: _finite_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_json(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def _dump(payload, out_path):
    payload = _finite_json(payload)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


class InputFileError(Exception):
    """An input file that cannot be read or parsed: a usage error (exit 2)."""


def _read_input(path, parse):
    """parse(text of the file at path). A file that cannot be read, or text
    that parse rejects, raises InputFileError. A SymbolError passes through:
    `mate` reports an invalid symbol as a failed check (exit 1)."""
    try:
        return parse(Path(path).read_text())
    except SymbolError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise InputFileError(f"cannot read {path}: {detail}") from e


def _load_measure(path):
    return _read_input(path, lambda t: PointMassMeasure.from_json_dict(json.loads(t)))


def _load_symbol(path):
    return _read_input(path, lambda t: MoebiusSymbol.from_json_dict(json.loads(t)))


def _tol(args, key):
    return args.tol_overrides.get(key, DEFAULT_TOLS[key])


def gram_to_csv_text(M):
    """Row-major CSV dump with 're,im' cell pairs."""
    A = np.asarray(M, dtype=complex)
    lines = []
    for row in A:
        cells = []
        for z in row:
            cells.append(repr(float(z.real)))
            cells.append(repr(float(z.imag)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def gram_from_csv_text(text):
    """Parse the 're,im' pair CSV back into a complex matrix."""
    rows = []
    for line in text.strip().splitlines():
        vals = [float(v) for v in line.split(",")]
        if len(vals) % 2 != 0:
            raise ValueError("expected an even number of columns (re,im pairs)")
        rows.append([complex(vals[2 * i], vals[2 * i + 1]) for i in range(len(vals) // 2)])
    M = np.asarray(rows, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    return M


def cmd_mate(args):
    try:
        b = _load_symbol(args.symbol)
        pair = pythagorean_mate(b)
    except SymbolError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    tol = _tol(args, "mate")
    dev = pair.unit_circle_deviation()
    cert = Certificate(
        kind="unit-circle-sum",
        passed=dev <= tol,
        witness=dev,
        tolerance=tol,
        context={"samples": CIRCLE_SAMPLES},
    )
    payload = pair.to_json_dict()
    payload["certificate"] = cert.to_json_dict()
    _dump(payload, args.out)
    return 0 if cert.passed else 1


def cmd_synthesize(args):
    out = synthesize_symbol(args.alpha, args.lam)
    _dump(out.symbol().to_json_dict(), args.out)
    return 0


def cmd_verify_equality(args):
    if args.measure:
        mu = _load_measure(args.measure)
        if len(mu) != 1:
            print(
                "error: norm equality holds only for single-atom measures "
                "(the H(b) defect has rank 1)",
                file=sys.stderr,
            )
            return 1
        (lam, weight), = mu.atoms
        alpha = complex(np.sqrt(weight))
    else:
        alpha, lam = args.alpha, args.lam
    G, G_b = _equality_grams(alpha, lam, args.size)
    prefix = Path(args.out) if args.out else None
    if prefix:
        # the CSVs first: the certificate overwrites G with the difference
        prefix.with_suffix(".dmu.csv").write_text(gram_to_csv_text(G))
        prefix.with_suffix(".hb.csv").write_text(gram_to_csv_text(G_b))
    cert = _equality_certificate(alpha, lam, G, G_b, _tol(args, "equality"))
    _dump(cert.to_json_dict(), prefix and prefix.with_suffix(".json"))
    return 0 if cert.passed else 1


def cmd_certify(args):
    mu = _load_measure(args.measure)
    G = dmu_gram(mu, args.size)
    nsd_tol = _tol(args, "nsd")
    certs = [
        certify_nsd(B, tol=nsd_tol, order=n)
        for n, B in enumerate(hyperexpansive_forms(G, args.n_max), 1)
    ]
    D = defect_matrix(G)
    M = moment_matrix(mu, args.size - 1)
    dev = float(np.abs(D - M).max())
    moment_tol = _tol(args, "moment")
    certs.append(
        Certificate(
            kind="moment-identity",
            passed=dev <= moment_tol,
            witness=dev,
            tolerance=moment_tol,
            context={"N": args.size},
        )
    )
    rank = numerical_rank(D, _tol(args, "rank"))
    certs.append(
        Certificate(
            kind="defect-rank",
            passed=rank == len(mu),
            witness=float(rank),
            tolerance=float(len(mu)),
            context={"atoms": len(mu)},
        )
    )
    _dump({"certificates": [c.to_json_dict() for c in certs]}, args.out)
    return 0 if all(c.passed for c in certs) else 1


def cmd_recover(args):
    if args.moments:
        M = _read_input(args.moments, gram_from_csv_text)
    else:
        mu = _load_measure(args.measure)
        M = moment_matrix(mu, args.size)
    try:
        result = recover_atoms(M, k=args.atoms, rank_tol=_tol(args, "rank"))
    except RecoveryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _dump(result.to_json_dict(), args.out)
    return 0


def cmd_kernel_norms(args):
    pair = synthesized_pair(args.alpha, args.lam)
    mu = point_mass(args.alpha, args.lam)
    rng = np.random.default_rng(args.seed)
    tol = _tol(args, "kernel")
    certs = []
    for _ in range(args.points):
        w = args.radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        k = truncated_cauchy_kernel(w, args.degree)
        direct_dmu = float(np.real(dmu_inner(k, k, mu) - h2_inner(k, k)))
        closed_dmu = dmu_cauchy_norm(args.alpha, args.lam, w)
        rel_dmu = abs(direct_dmu - closed_dmu) / closed_dmu if closed_dmu else 0.0
        direct_hb = float(np.real(hb_inner(k, k, pair)))
        closed_hb = hb_cauchy_norm(pair, w)
        rel_hb = abs(direct_hb - closed_hb) / closed_hb
        context = {"w": _complex_json(complex(w)), "degree": args.degree}
        certs.append(
            Certificate("dmu-kernel-norm", rel_dmu <= tol, rel_dmu, tol, context)
        )
        certs.append(
            Certificate("hb-kernel-norm", rel_hb <= tol, rel_hb, tol, context)
        )
    _dump({"certificates": [c.to_json_dict() for c in certs]}, args.out)
    return 0 if all(c.passed for c in certs) else 1


def _at_least(lo):
    """argparse type: an int >= lo, so an out-of-range count exits 2."""

    def parse(s):
        try:
            value = int(s)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"invalid int value: {s!r}") from e
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _atom_count(s):
    """argparse type: 'auto' (None: the numerical rank decides) or an int >= 0."""
    return None if s == "auto" else _at_least(0)(s)


def _radius(s):
    """argparse type: a float in [0, 1), the radius of an open subdisk."""
    try:
        r = float(s)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"invalid float value: {s!r}") from e
    if not 0 <= r < 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {r}")
    return r


def _disk_point(s):
    """argparse type: a complex value in the closed unit disk, up to DISK_TOL."""
    z = parse_complex(s)
    if abs(z) > 1 + DISK_TOL:
        raise argparse.ArgumentTypeError(f"{s!r} lies outside the closed unit disk")
    return z


def _parse_tols(pairs):
    """KEY=VALUE overrides: a known key, a finite value >= 0; rank in (0, 1)."""
    out = {}
    for item in pairs or []:
        key, _, value = item.partition("=")
        if key not in DEFAULT_TOLS:
            raise argparse.ArgumentTypeError(f"unknown tolerance key {key!r}")
        try:
            tol = float(value)
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"tolerance {key} needs a number, got {value!r}") from e
        if key == "rank" and not 0 < tol < 1:
            raise argparse.ArgumentTypeError(f"tolerance rank must lie in (0, 1), got {tol}")
        if not 0 <= tol < math.inf:
            raise argparse.ArgumentTypeError(f"tolerance {key} must be finite and >= 0, got {tol}")
        out[key] = tol
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dbrlab", description="Dirichlet / de Branges-Rovnyak verification suite"
    )
    parser.add_argument(
        "--tol",
        action="append",
        metavar="KEY=VALUE",
        dest="tols",
        help=f"override a tolerance; keys: {', '.join(sorted(DEFAULT_TOLS))}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mate", help="Pythagorean mate of a symbol")
    p.add_argument("--symbol", required=True, help="symbol JSON file")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_mate)

    p = sub.add_parser("synthesize", help="symbol from (alpha, lambda)")
    p.add_argument("--alpha", type=parse_complex, required=True)
    p.add_argument("--lambda", dest="lam", type=_disk_point, required=True)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify-equality", help="Gram equality of D(mu) and H(b)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--measure", help="single-atom measure JSON file")
    g.add_argument("--alpha", type=parse_complex)
    p.add_argument("--lambda", dest="lam", type=_disk_point, default=0j)
    p.add_argument("--size", type=_at_least(2), default=24, metavar="N")
    p.add_argument("--out", help="output prefix (.json + two Gram CSVs)")
    p.set_defaults(func=cmd_verify_equality)

    p = sub.add_parser("certify", help="hyperexpansivity and defect certificates")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--size", type=_at_least(2), default=24, metavar="N")
    p.add_argument("--n-max", type=_at_least(0), default=5)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("recover", help="atomic measure from moments")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--moments", help="moment matrix CSV (re,im cell pairs)")
    g.add_argument("--measure", help="measure JSON file (forward oracle)")
    p.add_argument("--atoms", type=_atom_count, default="auto", help="atom count or 'auto'")
    p.add_argument("--size", type=_at_least(1), default=24, metavar="N")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("kernel-norms", help="closed-form vs truncated kernels")
    p.add_argument("--alpha", type=parse_complex, required=True)
    p.add_argument("--lambda", dest="lam", type=_disk_point, required=True)
    p.add_argument("--points", type=_at_least(0), default=10)
    p.add_argument("--degree", type=_at_least(0), default=300)
    p.add_argument("--radius", type=_radius, default=0.8)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_kernel_norms)

    return parser


def _join_signed_values(argv):
    """`--alpha -0.3+0.2i` as `--alpha=-0.3+0.2i`, which argparse takes for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--alpha", "--lambda") and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        args.tol_overrides = _parse_tols(args.tols)
    except argparse.ArgumentTypeError as e:
        parser.error(str(e))
    if args.command == "certify" and args.n_max > args.size - 1:
        parser.error(f"--n-max {args.n_max} exceeds --size - 1 = {args.size - 1}")
    try:
        return args.func(args)
    except InputFileError as e:
        parser.error(str(e))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: every verification as a reproducible batch command.

Subcommands
    mate             Pythagorean mate of a symbol + roots-of-unity certificate
    synthesize       symbol constants from (alpha, lambda)
    verify-equality  Gram comparison of D(mu) and H(b) on their generator rows
    certify          hyperexpansivity / defect-rank / moment certificates
    recover          atomic measure from a moment matrix
    kernel-norms     closed-form vs truncated Cauchy-kernel norms

Each command parses its arguments, makes one library call for its
certificates and dumps them. All JSON output is deterministic (sorted keys,
shortest round-trip floats); exit status is 0 exactly when every emitted
certificate passes.

`mate` and `synthesize` run on the numpy-free `symbols` module alone, so
this module imports numpy and the numeric modules inside the commands and
helpers that use them.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

from .symbols import (
    DISK_TOL,
    TOLERANCES,
    MoebiusSymbol,
    SymbolError,
    pythagorean_mate,
    synthesize_symbol,
)


def parse_complex(s):
    """Accept 're' or 're+imi' strings ('i' or 'j' imaginary suffix) of a
    finite value: nan, inf and literals beyond the float range are rejected."""
    try:
        z = complex(re.sub(r"i(\)?)$", r"j\1", s.strip()))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {s!r}") from e
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise argparse.ArgumentTypeError(f"non-finite complex value {s!r}")
    return z


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


def _dump_certificates(certs, out_path):
    """Dump {"certificates": [...]}; the exit status, 0 exactly when all pass."""
    _dump({"certificates": [c.to_json_dict() for c in certs]}, out_path)
    return 0 if all(c.passed for c in certs) else 1


class InputFileError(Exception):
    """An input file that cannot be read or parsed: a usage error (exit 2)."""


def _read_input(path, parse):
    """parse(text of the file at path). A file that cannot be read, or text
    that parse rejects (OverflowError for an integer beyond the float range),
    raises InputFileError. A SymbolError passes through: `mate` reports an
    invalid symbol as a failed check (exit 1)."""
    try:
        return parse(Path(path).read_text())
    except SymbolError:
        raise
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise InputFileError(f"cannot read {path}: {detail}") from e


def _load_measure(path):
    from .dirichlet import PointMassMeasure

    return _read_input(path, lambda t: PointMassMeasure.from_json_dict(json.loads(t)))


def _measure_gram(path, N):
    """(mu, dmu_gram(mu, N)) for the measure file at path; a usage error
    when the Gram's largest entry 1 + sum_r w_r sum_(l<N-1) |z_r|^(2l) overflows."""
    import numpy as np

    from .dirichlet import dmu_gram

    mu = _load_measure(path)
    G = dmu_gram(mu, N)
    with np.errstate(over="ignore"):
        if not np.isfinite(1 + np.sum(np.abs(G.generators) ** 2)):
            raise InputFileError(f"{path}: weights too large, a Gram entry overflows")
    return mu, G


def _load_symbol(path):
    return _read_input(path, lambda t: MoebiusSymbol.from_json_dict(json.loads(t)))


def gram_to_csv_text(M):
    """Row-major CSV dump with 're,im' cell pairs."""
    import numpy as np

    rows = np.asarray(M, dtype=complex).tolist()
    return "".join(",".join(f"{z.real!r},{z.imag!r}" for z in row) + "\n" for row in rows)


def gram_from_csv_text(text):
    """Parse the 're,im' pair CSV back into a complex matrix of finite cells."""
    import numpy as np

    rows = []
    for line in text.strip().splitlines():
        vals = [float(v) for v in line.split(",")]
        if len(vals) % 2 != 0:
            raise ValueError("expected an even number of columns (re,im pairs)")
        rows.append([complex(vals[2 * i], vals[2 * i + 1]) for i in range(len(vals) // 2)])
    M = np.asarray(rows, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(M).all():
        raise ValueError("expected finite cells, got nan or inf")
    return M


def cmd_mate(args):
    try:
        pair = pythagorean_mate(_load_symbol(args.symbol))
    except SymbolError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    cert = pair.circle_certificate(args.tols["mate"])
    _dump({**pair.to_json_dict(), "certificate": cert.to_json_dict()}, args.out)
    return 0 if cert.passed else 1


def cmd_synthesize(args):
    out = synthesize_symbol(args.alpha, args.lam)
    _dump(out.symbol().to_json_dict(), args.out)
    return 0


def cmd_verify_equality(args):
    from .debranges import hb_gram
    from .dirichlet import dmu_gram
    from .synthesis import equality_certificate, point_mass, synthesized_pair

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
        alpha = complex(math.sqrt(weight))
    else:
        alpha, lam = args.alpha, args.lam
    G = dmu_gram(point_mass(alpha, lam), args.size)
    G_b = hb_gram(synthesized_pair(alpha, lam), args.size)
    prefix = Path(args.out) if args.out else None
    if prefix:
        prefix.with_suffix(".dmu.csv").write_text(gram_to_csv_text(G))
        prefix.with_suffix(".hb.csv").write_text(gram_to_csv_text(G_b))
    cert = equality_certificate(alpha, lam, G, G_b, args.tols["equality"])
    _dump(cert.to_json_dict(), prefix and prefix.with_suffix(".json"))
    return 0 if cert.passed else 1


def cmd_certify(args):
    from .moments import certify_measure

    mu, G = _measure_gram(args.measure, args.size)
    return _dump_certificates(certify_measure(mu, G, args.n_max, args.tols), args.out)


def cmd_recover(args):
    from .moments import RecoveryError, _frobenius, recover_atoms
    from .operators import defect_matrix

    if args.moments:
        M = _read_input(args.moments, gram_from_csv_text)
        if _frobenius(M) == math.inf:
            raise InputFileError(f"{args.moments}: entries too large, the matrix norm overflows")
    else:
        # the N x N moment matrix is the defect of the Gram of size N + 1
        M = defect_matrix(_measure_gram(args.measure, args.size + 1)[1])
    try:
        result = recover_atoms(M, k=args.atoms, rank_tol=args.tols["rank"])
    except RecoveryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _dump(result.to_json_dict(), args.out)
    return 0


def cmd_kernel_norms(args):
    from .synthesis import kernel_norm_certificates

    certs = kernel_norm_certificates(
        args.alpha, args.lam, args.points, args.degree, args.radius, args.seed, args.tols["kernel"]
    )
    return _dump_certificates(certs, args.out)


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


def _alpha(s):
    """argparse type: a complex alpha whose weight |alpha|^2 is a finite float."""
    z = parse_complex(s)
    a = math.hypot(z.real, z.imag)
    if not math.isfinite(a * a):
        raise argparse.ArgumentTypeError(f"|alpha|^2 of {s!r} exceeds the float range")
    return z


def _disk_point(s):
    """argparse type: a complex value in the closed unit disk, up to DISK_TOL."""
    z = parse_complex(s)
    if abs(z) > 1 + DISK_TOL:
        raise argparse.ArgumentTypeError(f"{s!r} lies outside the closed unit disk")
    return z


def _parse_tols(pairs):
    """`TOLERANCES` with the KEY=VALUE overrides merged in: a known key, a
    finite value >= 0; rank in (0, 1)."""
    out = dict(TOLERANCES)
    for item in pairs or []:
        key, _, value = item.partition("=")
        if key not in TOLERANCES:
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
        help=f"override a tolerance; keys: {', '.join(sorted(TOLERANCES))}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mate", help="Pythagorean mate of a symbol")
    p.add_argument("--symbol", required=True, help="symbol JSON file")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_mate)

    p = sub.add_parser("synthesize", help="symbol from (alpha, lambda)")
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--lambda", dest="lam", type=_disk_point, required=True)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify-equality", help="Gram equality of D(mu) and H(b)")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--measure", help="single-atom measure JSON file")
    g.add_argument("--alpha", type=_alpha)
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
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--lambda", dest="lam", type=_disk_point, required=True)
    p.add_argument("--points", type=_at_least(0), default=10)
    p.add_argument("--degree", type=_at_least(0), default=300)
    p.add_argument("--radius", type=_radius, default=0.8)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_kernel_norms)

    return parser


def _join_signed_values(argv):
    """`--alpha -0.3+0.2i` or `--lambda -i` as `--alpha=-0.3+0.2i` or
    `--lambda=-i`, which argparse takes for an option: a value that
    parse_complex accepts is joined to the flag before it, also for the
    abbreviations argparse accepts, such as `--lam`."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and ("--alpha".startswith(flag) or "--lambda".startswith(flag)):
            try:
                parse_complex(arg)
                out[-1] += "=" + arg
                continue
            except argparse.ArgumentTypeError:
                pass
        out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        args.tols = _parse_tols(args.tols)
    except argparse.ArgumentTypeError as e:
        parser.error(str(e))
    if args.command == "certify" and args.n_max > args.size - 1:
        parser.error(f"--n-max {args.n_max} exceeds --size - 1 = {args.size - 1}")
    try:
        return args.func(args)
    except (InputFileError, SymbolError) as e:
        # a SymbolError here is an (alpha, lambda) whose symbol no double holds;
        # `mate` reports an invalid symbol file itself, as a failed check
        parser.error(str(e))


if __name__ == "__main__":
    sys.exit(main())

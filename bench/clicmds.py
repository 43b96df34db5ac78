"""The cli workload: the six README commands, each a fresh `python -m dbrlab.cli`.

Pure Python on purpose: the worker that launches the commands imports
neither numpy nor dbrlab, so nothing it does competes with the command
it times.
"""

import json
import subprocess
import sys

import checks

# (command, README size arguments); the order is the cycle each worker runs
COMMANDS = (
    ("synthesize", []),
    ("mate", []),
    ("certify", ["--size", "16", "--n-max", "5"]),
    ("recover", ["--size", "8"]),
    ("verify-equality", ["--size", "24"]),
    ("kernel-norms", ["--points", "10"]),
)
CERTIFICATES = {"certify": 7, "verify-equality": 1, "kernel-norms": 20, "mate": 1}


def _cx(z):
    return f"{z.real!r}{z.imag:+}i"


def write_inputs(inp, workdir):
    """Input files for the commands that read them."""
    workdir.mkdir(parents=True, exist_ok=True)
    atoms = [{"re": z.real, "im": z.imag, "weight": w} for z, w in inp["atoms"]]
    (workdir / "mu.json").write_text(json.dumps({"atoms": atoms}))
    c, gamma, beta = inp["symbol"]
    sym = {k: {"re": v.real, "im": v.imag} for k, v in zip(("c", "gamma", "beta"), (c, gamma, beta))}
    (workdir / "b.json").write_text(json.dumps(sym))


def argv(index, inp, workdir):
    name, extra = COMMANDS[index]
    # "--flag=value" keeps argparse from reading a leading minus as a flag
    pair = [f"--alpha={_cx(inp['alpha'])}", f"--lambda={_cx(inp['lam'])}"]
    args = {
        "synthesize": pair,
        "mate": ["--symbol", str(workdir / "b.json")],
        "certify": ["--measure", str(workdir / "mu.json")],
        "recover": ["--measure", str(workdir / "mu.json")],
        "verify-equality": pair,
        "kernel-norms": pair + ["--seed", str(inp["kernel_seed"])],
    }[name]
    return [sys.executable, "-m", "dbrlab.cli", name] + args + extra


def run(index, inp, workdir, env=None):
    """One command; returns the completed process (stdout, stderr as bytes).

    dbrlab must be importable under `env` (run.py puts src/ on PYTHONPATH).
    """
    return subprocess.run(argv(index, inp, workdir), env=env, capture_output=True, timeout=120)


def _cx_json(d):
    return complex(d["re"], d["im"])


def check(index, inp, proc):
    """(verdicts, errors) for one completed command."""
    name = COMMANDS[index][0]
    if name == "recover" and proc.returncode == 1 and proc.stderr.startswith(b"error: recovered"):
        # recover_atoms declined a valid measure: a FAIL verdict, as in certify
        return [("roundtrip", False)], []
    if proc.returncode not in (0, 1):
        return [], [f"{name}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}"]
    try:
        out = json.loads(proc.stdout)
    except ValueError:
        return [], [f"{name}: stdout is not JSON (exit {proc.returncode})"]
    errors = []
    if name == "synthesize":
        c, gamma = _cx_json(out["c"]), _cx_json(out["gamma"])
        if c != 0 or gamma.imag != 0:
            errors.append(f"synthesize: expected c = 0 and real gamma, got {out}")
        errors += checks.synthesis_errors(inp["alpha"], inp["lam"], gamma.real, _cx_json(out["beta"]))
        verdicts = []
    elif name == "recover":
        got = [(complex(a["re"], a["im"]), a["weight"]) for a in out["atoms"]]
        verdicts = [("roundtrip", checks.match_atoms(inp["atoms"], got) <= checks.ROUNDTRIP_TOL)]
    else:
        certs = [out["certificate"]] if name == "mate" else out.get("certificates", [out])
        verdicts = [(c["kind"], c["pass"]) for c in certs]
        if len(verdicts) != CERTIFICATES[name]:
            errors.append(f"{name}: {len(verdicts)} certificates, expected {CERTIFICATES[name]}")
        if name == "mate":
            errors += checks.mate_errors(inp["symbol"], out["rho"], _cx_json(out["sigma"]))
    # exit status is 0 exactly when every emitted certificate passes
    if proc.returncode != (0 if all(p for _, p in verdicts) else 1):
        errors.append(f"{name}: exit {proc.returncode} disagrees with its verdicts")
    return verdicts, errors

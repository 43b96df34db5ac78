"""Self-tests of the benchmark itself (not of dbrlab).

    python3 -m pytest -q bench/selftest.py

Small sizes throughout, so the whole file runs in a few seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import checks
import clicmds
import gen
import run
import spans
import worker

worker.import_dbrlab()
import inproc  # noqa: E402  (needs dbrlab on sys.path first)
from dbrlab import debranges, dirichlet, operators, synthesis  # noqa: E402

SMALL_N = 24
worker.OUT.mkdir(exist_ok=True)  # scratch space stays inside the checkout


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for make in (gen.certify_input, gen.correspond_input):
        for j in range(gen.STRATA):
            assert make(7, 100 + j, j) == make(7, 100 + j, j)
            assert make(7, 100 + j, j) != make(8, 100 + j, j)
    assert gen.cli_input(7) == gen.cli_input(7)
    assert gen.cli_input(7) != gen.cli_input(8)


def test_inputs_follow_their_strata():
    for j in range(2 * gen.STRATA):
        atoms = gen.certify_input(3, j, j)
        assert len(atoms) == 1 + j % gen.STRATA
        assert (abs(abs(atoms[0][0]) - 1) < 1e-15) == (len(atoms) >= 2)
        assert all(abs(z) <= 1 + 1e-15 and w > 0 for z, w in atoms)
        inp = gen.correspond_input(3, j, j)
        assert (abs(abs(inp["lam"]) - 1) < 1e-15) == (j % gen.STRATA == gen.STRATA - 1)
        c, gamma, beta = inp["symbol"]
        assert c != 0 and gen.symbol_valid(c, gamma, beta)
        assert debranges.validate_symbol(c, gamma, beta).nonextreme


def traced(op, inp):
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        result = tracer.root(op, inp)
    finally:
        spans.uninstall(undo)
    return tracer.spans, result


def test_span_self_times_are_nonnegative_and_fit_in_the_op():
    for op, inp in ((lambda a: inproc.certify_op(a, SMALL_N), gen.certify_input(1, 3, 3)),
                    (lambda i: inproc.correspond_op(i, SMALL_N), gen.correspond_input(1, 3, 3))):
        recorded, _ = traced(op, inp)
        selfs = spans.self_times(recorded)
        root = recorded[0]
        assert root[0] == spans.ROOT and root[1] is None
        # float rounding of the subtraction is the only slack allowed
        assert min(selfs) >= -1e-12
        assert sum(selfs) <= (root[3] - root[2]) + 1e-9


def test_linalg_calls_are_counted_on_the_span_that_made_them():
    recorded, _ = traced(lambda a: inproc.certify_op(a, SMALL_N), gen.certify_input(1, 1, 1))
    work = {}
    for name, _, _, _, w in recorded:
        work.setdefault(name, []).append(w)
    # one eigvalsh of the order-k form, of size N - k, per certify_nsd
    assert work["operators.certify_nsd"] == [[("eig", SMALL_N - k)] for k in inproc.NSD_ORDERS]
    assert all(w == [("svd", SMALL_N - 1)] for w in work["operators.numerical_rank"])
    assert ("eig", SMALL_N - 1) in work["moments.recover_atoms"][0]
    assert work["dirichlet.dmu_gram"] == [[("gram", SMALL_N, 2)]]


def test_cross_layer_calls_nest_as_child_spans():
    recorded, _ = traced(lambda i: inproc.correspond_op(i, SMALL_N), gen.correspond_input(1, 0, 0))

    def chain(k):
        names = []
        while k is not None:
            names.append(recorded[k][0])
            k = recorded[k][1]
        return names

    chains = [chain(k) for k in range(len(recorded))]
    assert any(c[:3] == ["hardy.normalize", "debranges.fplus", "debranges.hb_gram"] for c in chains)
    under_equality = {c[0] for c in chains if "synthesis.verify_norm_equality" in c[1:]}
    assert {"dirichlet.dmu_gram", "debranges.hb_gram"} <= under_equality


def test_untraced_runs_install_no_wrappers():
    w = worker.InProcess("certify", seed=1, trace=False)
    w.op = lambda atoms: inproc.certify_op(atoms, SMALL_N)
    w.run(w.input(0, 0), traced=False)
    assert spans.wrapped_names() == []
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        names = spans.wrapped_names()
        assert "dbrlab.synthesis.hb_gram" in names and "dbrlab.moments.numerical_rank" in names
        assert "numpy.linalg.eigvalsh" in names and "scipy.linalg.eigh" in names
    finally:
        spans.uninstall(undo)
    assert spans.wrapped_names() == []


def test_gate_flags_a_perturbed_gram_entry():
    atoms = gen.certify_input(5, 3, 3)
    _, (gram, got, worst) = inproc.certify_op(atoms, SMALL_N)
    assert inproc.certify_gate(atoms, (gram, got, worst)) == []
    bad = gram.copy()
    bad[5, 7] += 1e-6 * abs(bad[5, 7])
    assert inproc.certify_gate(atoms, (bad, got, worst))


def test_gate_flags_a_certificate_that_always_passes(monkeypatch):
    atoms = gen.certify_input(5, 2, 2)
    _, out = inproc.certify_op(atoms, SMALL_N)
    certify_nsd = operators.certify_nsd
    monkeypatch.setattr(operators, "certify_nsd",
                        lambda B: dataclasses.replace(certify_nsd(B), passed=True))
    assert any("negated weights" in e for e in inproc.certify_gate(atoms, out))


def test_gate_flags_a_match_that_misses_wrong_atoms():
    atoms = gen.certify_input(5, 2, 2)
    _, (gram, got, worst) = inproc.certify_op(atoms, SMALL_N)
    assert got is not None and worst <= checks.ROUNDTRIP_TOL
    (z, w), *rest = got.atoms
    moved = dirichlet.PointMassMeasure(atoms=((z * 0.9, w), *rest))
    assert inproc.certify_gate(atoms, (gram, moved, worst))


def test_gate_flags_wrong_symbol_constants_and_mates():
    inp = gen.correspond_input(5, 0, 0)
    _, (syn, pair, spair) = inproc.correspond_op(inp, SMALL_N)
    assert inproc.correspond_gate(inp, (syn, pair, spair)) == []
    wrong = synthesis.SynthesisOutput(A=syn.A * (1 + 1e-6), B=syn.B)
    assert inproc.correspond_gate(inp, (wrong, pair, spair))
    assert checks.mate_errors(inp["symbol"], pair.rho * (1 + 1e-4), pair.sigma)


def fake_proc(returncode, payload, stderr=b""):
    stdout = json.dumps(payload).encode() if payload is not None else b""
    return subprocess.CompletedProcess([], returncode, stdout, stderr)


def test_cli_checks_flag_wrong_outputs():
    inp = gen.cli_input(4)
    recover = [n for n, _ in clicmds.COMMANDS].index("recover")
    atoms = [{"re": z.real, "im": z.imag, "weight": w} for z, w in inp["atoms"]]
    assert clicmds.check(recover, inp, fake_proc(0, {"atoms": atoms})) == ([("roundtrip", True)], [])
    atoms[0]["re"] += 1e-6
    verdicts, errors = clicmds.check(recover, inp, fake_proc(0, {"atoms": atoms}))
    assert verdicts == [("roundtrip", False)] and errors  # and exit 0 disagrees
    certify = [n for n, _ in clicmds.COMMANDS].index("certify")
    certs = [{"kind": "nsd", "pass": True}] * 6 + [{"kind": "defect-rank", "pass": False}]
    verdicts, errors = clicmds.check(certify, inp, fake_proc(1, {"certificates": certs}))
    assert ("defect-rank", False) in verdicts and errors == []
    _, errors = clicmds.check(certify, inp, fake_proc(2, None, b"usage: ..."))
    assert errors


def test_cli_command_runs_and_passes_its_checks():
    inp = gen.cli_input(4)
    env = run.bench_env()
    with tempfile.TemporaryDirectory(dir=worker.OUT) as tmp:
        clicmds.write_inputs(inp, Path(tmp))
        for index in (0, 1):
            proc = clicmds.run(index, inp, Path(tmp), env)
            verdicts, errors = clicmds.check(index, inp, proc)
            assert errors == [] and all(p for _, p in verdicts)


def test_timing_tail_leaves_ten_samples_beyond():
    t = run.timing([float(x) for x in range(30)])
    assert t["tail"] == 19.0 and sum(1 for x in range(30) if x > t["tail"]) == 10
    assert t["p50"] == 14.5


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_checkout_without_sources():
    with tempfile.TemporaryDirectory(dir=worker.OUT) as tmp:
        shutil.copytree(worker.HERE, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(worker.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, timeout=60,
        )
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

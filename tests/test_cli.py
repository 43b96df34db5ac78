import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dbrlab
from dbrlab import cli, synthesis
from dbrlab.cli import gram_from_csv_text, gram_to_csv_text, main, parse_complex
from dbrlab.debranges import MoebiusSymbol
from dbrlab.dirichlet import PointMassMeasure, dmu_gram, moment_matrix
from dbrlab.debranges import hb_gram
from dbrlab.synthesis import point_mass, synthesized_pair


def write_measure(tmp_path, mu, name="mu.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mu.to_json_dict(), sort_keys=True))
    return str(path)


def write_symbol(tmp_path, b, name="b.json"):
    path = tmp_path / name
    path.write_text(json.dumps(b.to_json_dict(), sort_keys=True))
    return str(path)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy would add ~0.5 s to every CLI call
    env = dict(os.environ, PYTHONPATH=str(Path(dbrlab.__file__).parents[1]))
    code = "import sys, dbrlab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_recover_loads_no_numpy_random(tmp_path):
    # the rank, the NSD bound and the recovery basis need no random start:
    # numpy.random would add ~13 ms and ~6 MB to every CLI call; neither
    # command may pull in scipy
    env = dict(os.environ, PYTHONPATH=str(Path(dbrlab.__file__).parents[1]))
    path = write_measure(tmp_path, PointMassMeasure(atoms=((0.5, 1.0), (0.3 + 0.4j, 2.0))))
    code = (
        "import sys; from dbrlab.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(code, 'numpy.random' in sys.modules, "
        "any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    for argv in (
        ["recover", "--measure", path, "--size", "8"],
        ["certify", "--measure", path, "--size", "16", "--n-max", "5"],
    ):
        out = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip().splitlines()[-1] == "0 False False"


# input files that cannot be parsed: usage errors, like out-of-range arguments
BAD_FILES = {
    "odd": "1.0,0.0,2.0\n",
    "nonsquare": "1.0,0.0,2.0,0.0\n",
    "ragged": "1.0,0.0,2.0,0.0\n1.0,0.0\n",
    "negative": '{"atoms": [{"re": 0.5, "im": 0.0, "weight": -1.0}]}',
    "duplicate": (
        '{"atoms": [{"re": 0.5, "im": 0.0, "weight": 1.0},'
        ' {"re": 0.5, "im": 0.0, "weight": 2.0}]}'
    ),
    "malformed": '{"atoms": [',
    "no_atoms": '{"atom": []}',
    "bad_atom": '{"atoms": [0.5]}',
    "no_beta": '{"c": {"re": 0.1, "im": 0.0}, "gamma": {"re": 0.2, "im": 0.0}}',
}


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--measure", "{mu}", "--size", "4", "--n-max", "5"],
        ["certify", "--measure", "{mu}", "--size", "0"],
        ["certify", "--measure", "{mu}", "--size", "1", "--n-max", "0"],
        ["certify", "--measure", "{mu}", "--n-max", "-1"],
        ["recover", "--measure", "{mu}", "--size", "0"],
        ["verify-equality", "--alpha", "1", "--size", "1"],
        ["kernel-norms", "--alpha", "1", "--lambda", "0.5", "--points", "-1"],
        ["--tol", "nsd=abc", "certify", "--measure", "{mu}"],
        ["--tol", "nsd", "certify", "--measure", "{mu}"],
        ["--tol", "nsd=-1", "certify", "--measure", "{mu}"],
        ["--tol", "nsd=inf", "certify", "--measure", "{mu}"],
        ["--tol", "rank=2", "certify", "--measure", "{mu}"],
        ["--tol", "rank=0", "recover", "--measure", "{mu}"],
        ["recover", "--measure", "{mu}", "--atoms", "abc"],
        ["recover", "--measure", "{mu}", "--atoms", "-1"],
        ["kernel-norms", "--alpha", "1", "--lambda", "0.5", "--radius", "1.5"],
        ["kernel-norms", "--alpha", "1", "--lambda", "0.5", "--radius", "-0.1"],
        ["kernel-norms", "--alpha", "1", "--lambda", "0.5", "--degree", "-1"],
        ["kernel-norms", "--alpha", "1", "--lambda", "0.5", "--seed", "-1"],
        ["synthesize", "--alpha", "1", "--lambda", "2"],
        ["verify-equality", "--alpha", "1", "--lambda", "1.5i"],
        ["kernel-norms", "--alpha", "1", "--lambda", "2"],
        ["recover", "--moments", "{odd}"],
        ["recover", "--moments", "{nonsquare}"],
        ["recover", "--moments", "{ragged}"],
        ["recover", "--moments", "{missing}"],
        ["certify", "--measure", "{negative}"],
        ["certify", "--measure", "{duplicate}"],
        ["certify", "--measure", "{missing}"],
        ["certify", "--measure", "{malformed}"],
        ["certify", "--measure", "{no_atoms}"],
        ["certify", "--measure", "{bad_atom}"],
        ["recover", "--measure", "{negative}"],
        ["verify-equality", "--measure", "{malformed}"],
        ["mate", "--symbol", "{malformed}"],
        ["mate", "--symbol", "{no_beta}"],
        ["mate", "--symbol", "{missing}"],
    ],
)
def test_out_of_range_input_exits_2(tmp_path, capsys, argv):
    files = {"mu": write_measure(tmp_path, PointMassMeasure.single(0.5, 1.0))}
    for name, text in BAD_FILES.items():
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    files["missing"] = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as exc:
        main([a.format(**files) for a in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, alpha, lam, rest",
    [
        ("synthesize", "1", "-0.3+0.2i", []),
        ("synthesize", "-1-0.5i", "-0.6j", []),
        ("verify-equality", "-1+0.5i", "-0.3+0.2i", ["--size", "8"]),
        ("kernel-norms", "-0.5+1i", "-.2-0.4j", ["--points", "2"]),
    ],
)
def test_negative_real_part_as_separate_argument(capsys, command, alpha, lam, rest):
    # argparse takes '-0.3+0.2i' for an option; the value may follow its flag
    # as a separate argument, with the output of the '--flag=value' form
    assert main([command, "--alpha", alpha, "--lambda", lam, *rest]) == 0
    separate = capsys.readouterr().out
    assert main([command, f"--alpha={alpha}", f"--lambda={lam}", *rest]) == 0
    assert capsys.readouterr().out == separate


class TestParseComplex:
    def test_real(self):
        assert parse_complex("0.5") == 0.5

    def test_i_suffix(self):
        assert parse_complex("0.3+0.4i") == 0.3 + 0.4j

    def test_j_suffix(self):
        assert parse_complex("-2j") == -2j


class TestSynthesize:
    def test_origin(self, tmp_path, capsys):
        assert main(["synthesize", "--alpha", "1", "--lambda", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma"]["re"] == 0.7071067811865476
        assert out["beta"] == {"re": 0.0, "im": 0.0}

    def test_half(self, capsys):
        assert main(["synthesize", "--alpha", "1", "--lambda", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma"]["re"] == pytest.approx(0.6847409, abs=1e-6)
        assert out["beta"]["re"] == pytest.approx(0.2344355, abs=1e-6)

    def test_zero_alpha(self, capsys):
        assert main(["synthesize", "--alpha", "0", "--lambda", "0.3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma"] == {"re": 0.0, "im": 0.0}

    def test_rejects_outside_disk(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--alpha", "1", "--lambda", "2"])
        assert exc.value.code == 2

    def test_disk_rule_is_dirichlet_disk_tol(self, capsys):
        # |lambda| up to 1 + DISK_TOL is on the circle, as for measure atoms
        assert main(["synthesize", "--alpha", "1", "--lambda", "1.0000000000001"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--alpha", "1", "--lambda", "1.00000000001"])
        assert exc.value.code == 2

    def test_deterministic_output(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            main(["synthesize", "--alpha", "0.8", "--lambda", "0.3+0.4i", "--out", str(p)])
        assert p1.read_bytes() == p2.read_bytes()


class TestMate:
    def test_scaled_shift(self, tmp_path, capsys):
        path = write_symbol(tmp_path, MoebiusSymbol(0, 1 / np.sqrt(2), 0))
        assert main(["mate", "--symbol", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho"] == pytest.approx(0.70710678)
        assert out["sigma"] == {"re": 0.0, "im": 0.0}
        assert out["certificate"]["pass"] is True

    def test_inner_symbol_fails(self, tmp_path, capsys):
        path = write_symbol(tmp_path, MoebiusSymbol(0, 1, 0))
        assert main(["mate", "--symbol", path]) == 1
        assert "inner" in capsys.readouterr().err

    def test_symbol_outside_the_ball_fails(self, tmp_path, capsys):
        # a readable symbol file whose symbol is invalid is a failed check, not
        # a usage error
        path = tmp_path / "b.json"
        zero = {"re": 0.0, "im": 0.0}
        path.write_text(json.dumps({"c": zero, "gamma": {"re": 2.0, "im": 0.0}, "beta": zero}))
        assert main(["mate", "--symbol", str(path)]) == 1
        assert "unit ball" in capsys.readouterr().err

    def test_example_symbol(self, tmp_path, capsys):
        b = MoebiusSymbol(0, np.sqrt((9 - np.sqrt(65)) / 2), (9 - np.sqrt(65)) / 4)
        assert main(["mate", "--symbol", write_symbol(tmp_path, b)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certificate"]["witness"] <= 1e-12


class TestVerifyEquality:
    def test_alpha_lambda(self, tmp_path):
        prefix = tmp_path / "eq"
        code = main(
            ["verify-equality", "--alpha", "1", "--lambda", "0.5",
             "--size", "24", "--out", str(prefix)]
        )
        assert code == 0
        cert = json.loads(prefix.with_suffix(".json").read_text())
        assert cert["pass"] and cert["witness"] <= 1e-9
        Gd = gram_from_csv_text(prefix.with_suffix(".dmu.csv").read_text())
        Gb = gram_from_csv_text(prefix.with_suffix(".hb.csv").read_text())
        assert Gd.shape == (24, 24)
        assert np.abs(Gd - Gb).max() <= 1e-9

    def test_out_builds_each_gram_once(self, tmp_path, monkeypatch):
        calls = {"dmu_gram": 0, "hb_gram": 0}
        for name, real in (("dmu_gram", dmu_gram), ("hb_gram", hb_gram)):
            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)
            for mod in (cli, synthesis):
                monkeypatch.setattr(mod, name, counted, raising=False)
        prefix = tmp_path / "eq"
        args = ["verify-equality", "--alpha", "1", "--lambda", "0.5", "--size", "24"]
        assert main(args + ["--out", str(prefix)]) == 0
        assert calls == {"dmu_gram": 1, "hb_gram": 1}
        # the CSVs hold the Grams themselves, not the certificate's difference
        want = dmu_gram(point_mass(1, 0.5), 24).entries
        assert prefix.with_suffix(".dmu.csv").read_text() == gram_to_csv_text(want)
        want = hb_gram(synthesized_pair(1, 0.5), 24).entries
        assert prefix.with_suffix(".hb.csv").read_text() == gram_to_csv_text(want)

    def test_measure_file(self, tmp_path, capsys):
        path = write_measure(tmp_path, PointMassMeasure.single(0.5, 1.0))
        assert main(["verify-equality", "--measure", path, "--size", "12"]) == 0

    def test_rejects_multi_atom(self, tmp_path, capsys):
        mu = PointMassMeasure(atoms=((0.5, 1.0), (0.2, 1.0)))
        assert main(["verify-equality", "--measure", write_measure(tmp_path, mu)]) == 1
        assert "rank 1" in capsys.readouterr().err


class TestCertify:
    def test_delta0_all_pass(self, tmp_path, capsys):
        path = write_measure(tmp_path, PointMassMeasure.single(0, 1.0))
        code = main(["certify", "--measure", path, "--size", "16", "--n-max", "5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        kinds = [c["kind"] for c in out["certificates"]]
        assert kinds.count("nsd") == 5
        assert "moment-identity" in kinds and "defect-rank" in kinds
        assert all(c["pass"] for c in out["certificates"])

    def test_boundary_atom(self, tmp_path, capsys):
        path = write_measure(tmp_path, PointMassMeasure.single(np.exp(1j), 1.0))
        assert main(["certify", "--measure", path, "--size", "12"]) == 0

    def test_empty_measure(self, tmp_path, capsys):
        path = write_measure(tmp_path, PointMassMeasure.empty())
        assert main(["certify", "--measure", path, "--size", "8"]) == 0

    def test_n_max_zero_keeps_moment_and_rank(self, tmp_path, capsys):
        path = write_measure(tmp_path, PointMassMeasure.single(0.5, 1.0))
        assert main(["certify", "--measure", path, "--size", "8", "--n-max", "0"]) == 0
        certs = json.loads(capsys.readouterr().out)["certificates"]
        assert [c["kind"] for c in certs] == ["moment-identity", "defect-rank"]

    def test_nsd_context_names_the_order(self, tmp_path, capsys):
        mu = PointMassMeasure(atoms=((0.5, 1.0), (-0.3j, 0.5)))
        path = write_measure(tmp_path, mu)
        assert main(["certify", "--measure", path, "--size", "16", "--n-max", "7"]) == 0
        certs = json.loads(capsys.readouterr().out)["certificates"]
        orders = [c["context"]["order"] for c in certs if c["kind"] == "nsd"]
        assert orders == list(range(1, 8))

    def test_nsd_context_names_the_route(self, tmp_path, capsys):
        mu = PointMassMeasure(atoms=((0.5, 1.0), (-0.3j, 0.5)))
        path = write_measure(tmp_path, mu)
        assert main(["certify", "--measure", path, "--size", "16", "--n-max", "5"]) == 0
        certs = json.loads(capsys.readouterr().out)["certificates"]
        for c in (c for c in certs if c["kind"] == "nsd"):
            assert c["context"]["route"] == "sketch"
            assert c["context"]["bound"] <= c["tolerance"]
            assert c["context"]["witness"] == "diagonal"

    def test_overflowing_bound_is_strict_json(self, tmp_path, capsys):
        # weight 1e200 overflows the factor's bound of both forms (its residual,
        # ~1e185, has squares beyond the float range); strict JSON has no
        # Infinity, so the bound is written as the string "inf"
        path = write_measure(tmp_path, PointMassMeasure.single(0.5, 1e200))
        with np.errstate(over="ignore"):
            main(["certify", "--measure", path, "--size", "16", "--n-max", "2"])

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        certs = json.loads(capsys.readouterr().out, parse_constant=reject)["certificates"]
        assert [c["context"]["bound"] for c in certs if c["kind"] == "nsd"] == ["inf", "inf"]


def test_dump_writes_non_finite_floats_as_strings(capsys):
    cli._dump({"a": [float("-inf"), float("nan"), 1.5], "b": {"c": float("inf")}}, None)
    assert json.loads(capsys.readouterr().out) == {"a": ["-inf", "nan", 1.5], "b": {"c": "inf"}}


class TestRecover:
    def test_from_measure_forward(self, tmp_path, capsys):
        mu = PointMassMeasure(atoms=((0.5, 1.0), (0.3 + 0.4j, 2.0)))
        path = write_measure(tmp_path, mu)
        assert main(["recover", "--measure", path, "--size", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["atoms"]) == 2 and out["residual"] <= 1e-10

    def test_from_moment_csv(self, tmp_path, capsys):
        mu = PointMassMeasure.single(0.5, 1.0)
        csv = tmp_path / "m.csv"
        csv.write_text(gram_to_csv_text(moment_matrix(mu, 6)))
        assert main(["recover", "--moments", str(csv)]) == 0
        out = json.loads(capsys.readouterr().out)
        ((atom,),) = (out["atoms"],)
        assert atom["re"] == pytest.approx(0.5, abs=1e-10)

    def test_zero_matrix(self, tmp_path, capsys):
        csv = tmp_path / "z.csv"
        csv.write_text(gram_to_csv_text(np.zeros((4, 4))))
        assert main(["recover", "--moments", str(csv)]) == 0
        assert json.loads(capsys.readouterr().out)["atoms"] == []

    def test_rank_too_large_fails(self, tmp_path, capsys):
        mu = PointMassMeasure.single(0.5, 1.0)
        path = write_measure(tmp_path, mu)
        assert main(["recover", "--measure", path, "--atoms", "3"]) == 1
        assert "rank" in capsys.readouterr().err


class TestKernelNorms:
    def test_interior_atom(self, capsys):
        code = main(
            ["kernel-norms", "--alpha", "1", "--lambda", "0.5", "--points", "4"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["certificates"]) == 8
        assert all(c["pass"] for c in out["certificates"])

    def test_zero_alpha(self, capsys):
        # mu = 0 and b = 0: both spaces are H^2 and every check passes
        code = main(["kernel-norms", "--alpha", "0", "--lambda", "0.5", "--points", "3"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["certificates"]) == 6
        assert all(c["pass"] for c in out["certificates"])

    def test_tol_override_can_fail(self, capsys):
        code = main(
            ["--tol", "kernel=1e-18", "kernel-norms", "--alpha", "1",
             "--lambda", "0.5", "--points", "2"]
        )
        assert code == 1


class TestTolerances:
    @pytest.mark.parametrize("key", ["recover", "bogus"])
    def test_unknown_key_rejected(self, tmp_path, capsys, key):
        path = write_measure(tmp_path, PointMassMeasure.single(0, 1.0))
        with pytest.raises(SystemExit) as exc:
            main(["--tol", f"{key}=5", "certify", "--measure", path])
        assert exc.value.code == 2
        assert f"unknown tolerance key {key!r}" in capsys.readouterr().err


class TestGramCsv:
    def test_roundtrip(self):
        rng = np.random.default_rng(33)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(gram_from_csv_text(gram_to_csv_text(M)), M)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            gram_from_csv_text("1.0,0.0,2.0,0.0\n")

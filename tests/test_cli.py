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
    # the rank sketch and the recovery basis start from SplitMix64 phases,
    # not numpy.random (~13 ms and ~6 MB more per CLI call)
    env = dict(os.environ, PYTHONPATH=str(Path(dbrlab.__file__).parents[1]))
    path = write_measure(tmp_path, PointMassMeasure(atoms=((0.5, 1.0), (0.3 + 0.4j, 2.0))))
    code = (
        "import sys; from dbrlab.cli import main; "
        "code = main(['recover', '--measure', sys.argv[1], '--size', '8']); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, path], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "0 False"


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
        assert main(["synthesize", "--alpha", "1", "--lambda", "2"]) == 1

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

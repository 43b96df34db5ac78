import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dbrlab
from dbrlab import cli, debranges, dirichlet, synthesis
from dbrlab.cli import gram_from_csv_text, gram_to_csv_text, main, parse_complex
from dbrlab.debranges import MoebiusSymbol
from dbrlab.dirichlet import PointMassMeasure, dmu_gram, moment_matrix
from dbrlab.debranges import hb_gram
from dbrlab.moments import certify_measure, recover_atoms
from dbrlab.operators import certify_nsd, defect_matrix, numerical_rank
from dbrlab.symbols import (
    CIRCLE_SAMPLES,
    TOLERANCES,
    PythagoreanPair,
    pythagorean_mate,
    synthesize_symbol,
)
from dbrlab.synthesis import (
    kernel_norm_certificates,
    point_mass,
    synthesized_pair,
    verify_norm_equality,
)


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


def test_scalar_commands_load_no_numpy(tmp_path):
    # synthesize and mate are closed-form scalars on `dbrlab.symbols`; the
    # numpy import would be most of each call's start-up time
    env = dict(os.environ, PYTHONPATH=str(Path(dbrlab.__file__).parents[1]))
    for argv in (
        ["synthesize", "--alpha", "1", "--lambda", "0.5", "--out", str(tmp_path / "b.json")],
        ["mate", "--symbol", str(tmp_path / "b.json")],
    ):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "dbrlab.cli", *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()]
        assert "dbrlab.symbols" in imported
        assert [m for m in imported if m.split(".")[0] == "numpy"] == []


def test_package_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(dbrlab.__file__).parents[1]))
    code = "import sys, dbrlab; print([m for m in sys.modules if m.split('.')[0] == 'numpy'])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", dbrlab.__all__)
def test_public_name_resolves(name):
    namespace = {}
    exec(f"from dbrlab import {name}", namespace)
    assert namespace[name] is getattr(dbrlab, name) is not None


def test_public_names_are_the_37_of_the_api():
    assert len(set(dbrlab.__all__)) == 37
    with pytest.raises(AttributeError):
        dbrlab.no_such_name


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
    # Python's json reads NaN, Infinity and 1e400 (as inf)
    "nan_location": '{"atoms": [{"re": NaN, "im": 0.0, "weight": 1.0}]}',
    "inf_location": '{"atoms": [{"re": 0.0, "im": -Infinity, "weight": 1.0}]}',
    "huge_location": '{"atoms": [{"re": 1e400, "im": 0.0, "weight": 1.0}]}',
    "nan_cell": "1.0,0.0,nan,0.0\n0.5,0.0,1.0,0.0\n",
    "inf_cell": "1.0,0.0,0.5,inf\n0.5,0.0,1.0,0.0\n",
    "huge_cell": "1e400,0.0\n",
    # json reads true as a bool and "2" as a string; neither is a number,
    # though bool is a subclass of int and float("2") is 2.0
    "str_weight": '{"atoms": [{"re": 0.5, "im": 0.0, "weight": "2"}]}',
    "bool_atom": '{"atoms": [{"re": true, "im": false, "weight": true}]}',
    "bool_symbol": (
        '{"c": {"re": false, "im": 0.0}, "gamma": {"re": 0.5, "im": false},'
        ' "beta": {"re": 0.0, "im": 0.0}}'
    ),
    # an integer of 400 digits: float() of it overflows
    "long_weight": '{"atoms": [{"re": 0.5, "im": 0.0, "weight": 1%s}]}' % ("0" * 400),
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
        ["certify", "--measure", "{nan_location}", "--size", "8"],
        ["certify", "--measure", "{inf_location}", "--size", "8"],
        ["certify", "--measure", "{huge_location}", "--size", "8"],
        ["recover", "--measure", "{nan_location}"],
        ["verify-equality", "--measure", "{nan_location}"],
        ["recover", "--moments", "{nan_cell}"],
        ["recover", "--moments", "{inf_cell}"],
        ["recover", "--moments", "{huge_cell}"],
        ["verify-equality", "--measure", "{malformed}"],
        ["mate", "--symbol", "{malformed}"],
        ["mate", "--symbol", "{no_beta}"],
        ["mate", "--symbol", "{missing}"],
        ["certify", "--measure", "{str_weight}"],
        ["certify", "--measure", "{bool_atom}"],
        ["recover", "--measure", "{str_weight}", "--size", "4"],
        ["recover", "--measure", "{bool_atom}", "--size", "4"],
        ["verify-equality", "--measure", "{str_weight}"],
        ["verify-equality", "--measure", "{bool_atom}"],
        ["mate", "--symbol", "{bool_symbol}"],
        ["certify", "--measure", "{long_weight}"],
        # |alpha|^2 beyond the float range
        ["synthesize", "--alpha", "1.35e154", "--lambda", "0.5"],
        ["synthesize", "--alpha", "1e200", "--lambda", "0.5"],
        ["synthesize", "--alpha", "1e308+1e308i", "--lambda", "0.5"],
        ["verify-equality", "--alpha", "1e200", "--lambda", "0.5"],
        ["kernel-norms", "--alpha", "-1e200i", "--lambda", "0.5"],
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
    "argv",
    [
        ["synthesize", "--alpha", "1e-17", "--lambda", "1"],
        ["verify-equality", "--alpha", "1e-17", "--lambda", "1", "--size", "8"],
        ["kernel-norms", "--alpha", "1e-17i", "--lambda", "-1", "--points", "1"],
        ["verify-equality", "--measure", "{tiny}", "--size", "8"],
    ],
)
def test_unrepresentable_symbol_exits_2(tmp_path, capsys, argv):
    # on the circle |B| = 1 / h < 1 rounds to 1 for |alpha| below about eps / 2
    tiny = write_measure(tmp_path, PointMassMeasure.single(1, 1e-34))
    with pytest.raises(SystemExit) as exc:
        main([a.format(tiny=tiny) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "double precision cannot hold the symbol" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, alpha, lam, rest",
    [
        ("synthesize", "1", "-0.3+0.2i", []),
        ("synthesize", "-1-0.5i", "-0.6j", []),
        ("verify-equality", "-1+0.5i", "-0.3+0.2i", ["--size", "8"]),
        ("kernel-norms", "-0.5+1i", "-.2-0.4j", ["--points", "2"]),
        ("synthesize", "1", "-i", []),
        ("synthesize", "-j", "-j", []),
        ("verify-equality", "-.5j", "-i", ["--size", "8"]),
        ("kernel-norms", "1", "-.5j", ["--points", "2"]),
    ],
)
def test_negative_real_part_as_separate_argument(capsys, command, alpha, lam, rest):
    # argparse takes '-0.3+0.2i' for an option; the value may follow its flag,
    # or any abbreviation of it argparse accepts, as a separate argument, with
    # the output of the '--flag=value' form
    assert main([command, "--alpha", alpha, "--lambda", lam, *rest]) == 0
    separate = capsys.readouterr().out
    assert main([command, f"--alpha={alpha}", f"--lambda={lam}", *rest]) == 0
    assert capsys.readouterr().out == separate
    for a, l in [("--alph", "--lam"), ("--a", "--l")]:
        assert main([command, a, alpha, l, lam, *rest]) == 0
        assert capsys.readouterr().out == separate


class TestParseComplex:
    def test_real(self):
        assert parse_complex("0.5") == 0.5

    def test_i_suffix(self):
        assert parse_complex("0.3+0.4i") == 0.3 + 0.4j

    def test_j_suffix(self):
        assert parse_complex("-2j") == -2j


# each spelling of a non-finite value; `inf` is refused as non-finite, not
# for its letter i
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["synthesize", "--alpha", "nan", "--lambda", "0.5"], id="nan"),
        pytest.param(["synthesize", "--alpha", "1e400", "--lambda", "0.5"], id="1e400"),
        pytest.param(["synthesize", "--alpha", "1", "--lambda", "nan"], id="lambda-nan"),
        pytest.param(["verify-equality", "--alpha", "nan", "--lambda", "0.5"], id="equality-nan"),
        pytest.param(["synthesize", "--alpha", "inf", "--lambda", "0.5"], id="inf"),
        pytest.param(["synthesize", "--alpha=-inf", "--lambda", "0.5"], id="-inf"),
        pytest.param(["synthesize", "--alpha", "infinity", "--lambda", "0.5"], id="infinity"),
        pytest.param(["synthesize", "--alpha", "1+infi", "--lambda", "0.5"], id="1+infi"),
        pytest.param(["synthesize", "--alpha", "1e400j", "--lambda", "0.5"], id="1e400j"),
        pytest.param(["kernel-norms", "--alpha", "1", "--lambda", "0.5-nanj"], id="0.5-nanj"),
    ],
)
def test_non_finite_complex_value_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "non-finite complex value" in capsys.readouterr().err


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
        # the numpy commands too, each from two fresh processes
        heavy = PointMassMeasure(atoms=((0.6 + 0.8j, 50.0), (0.3 + 0.1j, 0.5)))
        mu = PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.4j, 0.5), (1j, 0.2)))
        env = dict(os.environ, PYTHONPATH=str(Path(dbrlab.__file__).parents[1]))
        for argv in (
            ["certify", "--measure", write_measure(tmp_path, heavy, "heavy.json"), "--size", "512", "--n-max", "5"],
            ["kernel-norms", "--alpha", "1", "--lambda", "0.5", "--points", "10"],
            ["verify-equality", "--alpha", "1", "--lambda", "0.5", "--size", "24"],
            ["recover", "--measure", write_measure(tmp_path, mu), "--size", "8"],
        ):
            first, second = (
                subprocess.run(
                    [sys.executable, "-m", "dbrlab.cli", *argv], env=env, capture_output=True, check=True
                ).stdout
                for _ in range(2)
            )
            assert first and first == second


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
            # the command imports each builder from its module when it runs
            for mod in (dirichlet, debranges, synthesis):
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

    def test_out_builds_each_gram_entries_once(self, tmp_path, monkeypatch, capsys):
        # the certificate reads the generator rows only; each N x N Gram is
        # built once, for its CSV, and only under --out
        builds = []
        build = dirichlet._toeplitz_gram

        def counted(U):
            builds.append(U.shape)
            return build(U)

        monkeypatch.setattr(dirichlet, "_toeplitz_gram", counted)
        prefix = tmp_path / "eq"
        args = ["verify-equality", "--alpha", "1", "--lambda", "0.5", "--size", "24"]
        assert main(args) == 0 and builds == []
        assert main(args + ["--out", str(prefix)]) == 0
        assert builds == [(1, 24), (1, 24)]
        assert prefix.with_suffix(".json").read_text() == capsys.readouterr().out

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
        for n, c in enumerate((c for c in certs if c["kind"] == "nsd"), 1):
            assert c["context"]["route"] == "factor"
            assert c["context"]["core"] == 2 * n and c["context"]["size"] == 16 - n
            assert c["context"]["witness"] == "eigenvalue"
            assert "bound" not in c["context"]
        assert certs[-1]["kind"] == "defect-rank" and certs[-1]["context"]["route"] == "factor"

    def test_heavy_boundary_atom_forms_pass_on_the_factor(self, tmp_path, capsys):
        # weight 50 on the circle: the forms come from the generator rows, so
        # no 2^n-amplified Pascal difference of the heavy Gram is taken, and
        # every order passes on the factor's core
        mu = PointMassMeasure(atoms=((0.6 + 0.8j, 50.0), (0.3 + 0.1j, 0.5)))
        path = write_measure(tmp_path, mu)
        assert main(["certify", "--measure", path, "--size", "512", "--n-max", "5"]) == 0
        certs = json.loads(capsys.readouterr().out)["certificates"]
        nsd = [c for c in certs if c["kind"] == "nsd"]
        assert [c["context"]["order"] for c in nsd] == [1, 2, 3, 4, 5]
        assert all(c["pass"] and c["context"]["route"] == "factor" for c in nsd)
        assert len(certs) == 7 and all(c["pass"] for c in certs)

    @pytest.mark.parametrize(
        "atoms, size, n_max, nsd_fails",
        [
            (((0.6 + 0.8j, 1000.0), (0.3 + 0.1j, 0.5)), 512, 5, [5]),
            (((0.5, 1e160),), 16, 2, []),
            (((0.5, 1e200),), 16, 2, []),
        ],
    )
    def test_heavy_atom_passes_the_moment_identity(
        self, tmp_path, capsys, atoms, size, n_max, nsd_fails
    ):
        # the defect is the order-1 product on the generator rows, without the
        # roundoff of the Gram's cumulative sums that failed the identity here
        # (4.0e-11 and 6.8e143 against 1e-12). The forms are NSD: the nsd FAIL
        # at order 5 of w = 1000 is roundoff of its core against the absolute
        # `nsd` tolerance. Dense Cholesky also failed order 4 of w = 1000 and orders
        # 1-2 of the single interior atom, whose rank-1 forms have on the
        # factor the exact top eigenvalue 0 of the complement
        path = write_measure(tmp_path, PointMassMeasure(atoms=atoms))
        argv = ["certify", "--measure", path, "--size", str(size), "--n-max", str(n_max)]
        assert main(argv) == (1 if nsd_fails else 0)
        certs = json.loads(capsys.readouterr().out)["certificates"]
        failed = [c["context"]["order"] for c in certs if not c["pass"]]
        assert failed == nsd_fails
        assert [c["kind"] for c in certs[-2:]] == ["moment-identity", "defect-rank"]

    def test_unimodular_heavy_atom_still_fails(self, tmp_path, capsys):
        # one atom at 0.6+0.8i of weight 1e160: the order-2 form is ~0 and
        # the defect equals the moments, but roundoff at scale 1e160 exceeds
        # the absolute `nsd` and `moment` tolerances (ROADMAP item 1)
        path = write_measure(tmp_path, PointMassMeasure.single(0.6 + 0.8j, 1e160))
        assert main(["certify", "--measure", path, "--size", "16", "--n-max", "2"]) == 1
        certs = json.loads(capsys.readouterr().out)["certificates"]
        assert [c["pass"] for c in certs] == [True, False, False, True]
        assert [c["kind"] for c in certs[1:3]] == ["nsd", "moment-identity"]

    def test_overflowing_bound_is_strict_json(self, tmp_path, capsys):
        # weight 1e304 at 0.99: from order 14 the binomials (up to C(19, 9))
        # overflow the forms' cores, whose eigenvalues are then NaN; strict
        # JSON has no NaN, so those witnesses are written as the string "nan"
        path = write_measure(tmp_path, PointMassMeasure.single(0.99, 1e304))
        with np.errstate(over="ignore", invalid="ignore"):
            main(["certify", "--measure", path, "--size", "64", "--n-max", "20"])

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        certs = json.loads(capsys.readouterr().out, parse_constant=reject)["certificates"]
        witnesses = [c["witness"] for c in certs if c["kind"] == "nsd"]
        assert witnesses[19] == "nan"
        assert all(isinstance(w, float) or w == "nan" for w in witnesses)


@pytest.mark.parametrize("weight", [1e300, 1e306, 1e307, 1e308])
@pytest.mark.parametrize(
    "argv, N",
    # recover's 8 x 8 moment matrix is the defect of the Gram of size 9
    [(["certify", "--size", "16", "--n-max", "2"], 16), (["recover", "--size", "8"], 9)],
    ids=["certify", "recover"],
)
def test_overflowing_gram_entry_is_a_usage_error(tmp_path, capsys, weight, argv, N):
    # one atom at 0.9: the Gram's largest entry 1 + w sum_(l<N-1) 0.81^l is
    # about 4.3 w at N = 9 and 5.2 w at N = 16, so only w = 1e308 overflows,
    # and no route can decide on that Gram
    entry = 1 + weight * sum(0.81**l for l in range(N - 1))
    assert np.isinf(entry) == (weight == 1e308)
    path = write_measure(tmp_path, PointMassMeasure.single(0.9, weight))
    args = [argv[0], "--measure", path, *argv[1:]]
    if np.isinf(entry):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    else:
        assert main(args) in (0, 1)
        assert json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("weight", [1e300, 1e307, 4e307, 5e307, 1e308])
def test_overflowing_moment_norm_is_a_usage_error(tmp_path, capsys, weight):
    # one atom at 0.9, size 8: every cell is finite, but from 5e307 on the
    # matrix's Frobenius norm (about 4.3 w) and its top eigenvalue overflow
    M = np.asarray(moment_matrix(PointMassMeasure.single(0.9, weight), 8))
    assert np.isfinite(M).all()
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(M / weight) * weight
    assert np.isinf(norm) == (weight >= 5e307)
    csv = tmp_path / "m.csv"
    csv.write_text(gram_to_csv_text(M))
    args = ["recover", "--moments", str(csv)]
    if np.isinf(norm):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
    else:
        assert main(args) == 0
        ((atom,),) = (json.loads(capsys.readouterr().out)["atoms"],)
        assert atom["re"] == pytest.approx(0.9, abs=1e-12)
        assert atom["weight"] == pytest.approx(weight, rel=1e-12)


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

    @pytest.mark.parametrize("N", [8, 64])
    def test_measure_recovers_from_the_defect_factor(self, tmp_path, capsys, N):
        # the N x N moment matrix is the defect of the Gram of size N + 1,
        # and `recover --measure` takes its factor, as roundtrip_check does
        mu = PointMassMeasure(atoms=((0.5, 1.0), (-0.3 + 0.4j, 0.5), (1j, 0.2)))
        path = write_measure(tmp_path, mu)
        assert main(["recover", "--measure", path, "--size", str(N)]) == 0
        out = capsys.readouterr().out
        cli._dump(recover_atoms(defect_matrix(dmu_gram(mu, N + 1))).to_json_dict(), None)
        assert out == capsys.readouterr().out

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


def dumped(capsys, certs):
    """What `dbrlab certify` or `kernel-norms` prints for these certificates."""
    cli._dump({"certificates": [c.to_json_dict() for c in certs]}, None)
    return capsys.readouterr().out


@pytest.mark.parametrize("n_max", [0, 5])
@pytest.mark.parametrize("N", [16, 512])
@pytest.mark.parametrize(
    "atoms",
    # the CI's heavy.json, and the one-atom measure whose nsd and
    # moment-identity certificates FAIL at scale 1e160 (ROADMAP item 1)
    [((0.6 + 0.8j, 50.0), (0.3 + 0.1j, 0.5)), ((0.6 + 0.8j, 1e160),)],
    ids=["heavy", "unimodular-1e160"],
)
def test_certify_prints_certify_measure(tmp_path, capsys, atoms, N, n_max):
    mu = PointMassMeasure(atoms=atoms)
    argv = ["certify", "--measure", write_measure(tmp_path, mu), "--size", str(N)]
    code = main(argv + ["--n-max", str(n_max)])
    out = capsys.readouterr().out
    certs = certify_measure(mu, dmu_gram(mu, N), n_max, TOLERANCES)
    assert out == dumped(capsys, certs)
    assert code == (0 if all(c.passed for c in certs) else 1)
    assert [c.kind for c in certs] == ["nsd"] * n_max + ["moment-identity", "defect-rank"]
    assert [c.context["order"] for c in certs[:-2]] == list(range(1, n_max + 1))
    assert certs[-2].context == {"N": N}
    assert certs[-1].context == {"atoms": len(mu), "route": "factor"}


def test_certify_applies_each_tol_override(tmp_path, capsys):
    # the heavy measure's defect at size 64 has singular values 3150 and 0.54, so a
    # rank tolerance of 0.5 counts one atom of two
    mu = PointMassMeasure(atoms=((0.6 + 0.8j, 50.0), (0.3 + 0.1j, 0.5)))
    tols = ["--tol", "nsd=1e-30", "--tol", "moment=0", "--tol", "rank=0.5"]
    argv = ["certify", "--measure", write_measure(tmp_path, mu), "--size", "64", "--n-max", "2"]
    assert main(tols + argv) == 1
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert [c["tolerance"] for c in certs[:3]] == [1e-30, 1e-30, 0.0]
    assert certs[-1]["witness"] == 1.0 and not certs[-1]["pass"]


@pytest.mark.parametrize(
    "argv, args",
    [
        (["--points", "10"], (1, 0.5, 10, 300, 0.8, 0)),
        (["--points", "3", "--degree", "40", "--radius", "0.5", "--seed", "7"], (1, 0.5, 3, 40, 0.5, 7)),
        # the mate re-derived from the rounded symbol raised SymbolError here
        (["--alpha", "1e7", "--points", "3"], (1e7, 0.5, 3, 300, 0.8, 0)),
        (["--alpha", "1e100", "--points", "3"], (1e100, 0.5, 3, 300, 0.8, 0)),
    ],
)
def test_kernel_norms_prints_kernel_norm_certificates(capsys, argv, args):
    code = main(["kernel-norms", "--alpha", "1", "--lambda", "0.5", *argv])
    out = capsys.readouterr().out
    certs = kernel_norm_certificates(*args, TOLERANCES["kernel"])
    assert out == dumped(capsys, certs)
    assert code == 0 and all(c.passed for c in certs) and len(certs) == 2 * args[2]
    for c in certs:
        w = complex(c.context["w"]["re"], c.context["w"]["im"])
        assert c.context["degree"] == args[3] and abs(w) <= args[4]


@pytest.mark.parametrize("tol", [None, "0"])
@pytest.mark.parametrize(
    "b", [synthesize_symbol(1, 0.5).symbol(), MoebiusSymbol(0.3, 0.4 + 0.2j, -0.5j)]
)
def test_mate_prints_the_circle_certificate(tmp_path, capsys, b, tol):
    argv = ["mate", "--symbol", write_symbol(tmp_path, b)]
    code = main(argv if tol is None else ["--tol", f"mate={tol}", *argv])
    pair = pythagorean_mate(b)
    cert = pair.circle_certificate() if tol is None else pair.circle_certificate(float(tol))
    out = json.loads(capsys.readouterr().out)
    assert out == {**pair.to_json_dict(), "certificate": cert.to_json_dict()}
    assert code == (0 if cert.passed else 1) and cert.kind == "unit-circle-sum"
    assert cert.witness == pair.unit_circle_deviation()
    assert cert.context == {"samples": CIRCLE_SAMPLES}


@pytest.mark.parametrize(
    "alpha, lam",
    [("1e3", "0.9"), ("1e3", "1"), ("1e4", "0.5"), ("1e6", "0.5"), ("1e7", "0.5"),
     ("1e12", "0.5"), ("1e100", "0.5")],
)
def test_norm_equality_holds_at_large_alpha(capsys, alpha, lam):
    # the mate re-derived from the rounded symbol FAILed these true
    # statements (witness 0.0129 against 0.00522 at alpha 1e3, lambda 0.9;
    # 1.3e9 against 1333 at 1e6) and raised SymbolError from 1e7 on
    assert main(["verify-equality", "--alpha", alpha, "--lambda", lam, "--size", "24"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"]


class TestTolerances:
    def test_the_table_holds_the_six_tol_keys(self, capsys):
        assert sorted(TOLERANCES) == ["equality", "kernel", "mate", "moment", "nsd", "rank"]
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "keys: equality, kernel, mate, moment, nsd, rank" in help_text

    def test_overrides_merge_into_a_copy_of_the_table(self):
        before = dict(TOLERANCES)
        assert cli._parse_tols(["nsd=1e-9", "rank=0.5"]) == {**before, "nsd": 1e-9, "rank": 0.5}
        assert cli._parse_tols(None) == TOLERANCES == before

    @pytest.mark.parametrize(
        "fn, param, key",
        [
            (certify_nsd, "tol", "nsd"),
            (numerical_rank, "tau", "rank"),
            (recover_atoms, "rank_tol", "rank"),
            (verify_norm_equality, "tol", "equality"),
            (kernel_norm_certificates, "tol", "kernel"),
            (PythagoreanPair.circle_certificate, "tol", "mate"),
        ],
    )
    def test_library_defaults_read_the_table(self, fn, param, key):
        assert inspect.signature(fn).parameters[param].default == TOLERANCES[key]

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

"""Command-line interface: output formats, file handling, exit codes."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gce
import gce.cli as cli
import gce.oracle as oracle
from gce.cli import SweepSpec, main, run_sweep
from gce.core import from_standard_form, to_json
from gce.errors import MalformedInputError
from gce.estimator import estimate
from gce.extremal import gmemms, gmems
from gce.oracle import SampleConfig, crosscheck_closed_forms, validate_bounds
from gce.param import check_purity_constraints

EN_MAX_ANCHOR = 0.7497709337957678
EN_MIN_ANCHOR = 0.7312341491618387


def parse_pairs(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestClassify:
    def test_text_output(self, capsys):
        assert main(["classify", "--mu1", "0.5", "--mu2", "0.5", "--mu", "0.6"]) == 0
        pairs = parse_pairs(capsys.readouterr().out)
        assert pairs["region"] == "entangled"
        assert float(pairs["en_max"]) == pytest.approx(EN_MAX_ANCHOR, abs=1e-10)
        assert float(pairs["en_min"]) == pytest.approx(EN_MIN_ANCHOR, abs=1e-10)
        assert float(pairs["rel_err"]) == pytest.approx(0.0125163544995, abs=1e-10)

    def test_json_output(self, capsys):
        assert main(["classify", "--mu1", "0.5", "--mu2", "0.5", "--mu", "0.3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["region"] == "separable"
        assert payload["en_max"] == 0.0
        assert payload["en_min"] == 0.0

    def test_log_base_2(self, capsys):
        assert main(["classify", "--mu1", "0.5", "--mu2", "0.5", "--mu", "0.6",
                     "--log-base", "2"]) == 0
        pairs = parse_pairs(capsys.readouterr().out)
        assert float(pairs["en_max"]) == pytest.approx(
            EN_MAX_ANCHOR / math.log(2.0), abs=1e-10
        )

    def test_region_violation_exits_1(self, capsys):
        assert main(["classify", "--mu1", "0.5", "--mu2", "0.5", "--mu", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "mu >= mu1*mu2" in err

    def test_malformed_input_exits_3(self, capsys):
        assert main(["classify", "--mu1", "1.5", "--mu2", "0.5", "--mu", "0.5"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_purities_below_the_floor_exit_3(self, capsys):
        # mu1*mu2 underflows to 0 here; this used to end in ZeroDivisionError.
        assert main(["classify", "--mu1", "1e-200", "--mu2", "1e-200",
                     "--mu", "1e-300"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "purity floor" in err
        assert "Traceback" not in err


class TestBounds:
    def test_text_output(self, capsys):
        assert main(["bounds", "--mu1", "0.5", "--mu2", "0.5", "--mu", "0.6"]) == 0
        pairs = parse_pairs(capsys.readouterr().out)
        assert float(pairs["delta_min"]) == pytest.approx(5.0 / 6.0, abs=1e-10)
        assert float(pairs["delta_max"]) == pytest.approx(17.0 / 18.0, abs=1e-10)
        assert float(pairs["separable_threshold"]) == pytest.approx(1.0 / 3.0,
                                                                    abs=1e-10)
        assert float(pairs["coexistence_threshold"]) == pytest.approx(
            0.3779644730092272, abs=1e-10
        )
        assert pairs["region"] == "entangled"


class TestConstruct:
    def test_gmems_to_stdout(self, capsys):
        assert main(["construct", "gmems", "--mu1", "0.5", "--mu2", "0.5",
                     "--mu", "0.6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["convention"] == "vacuum=1/2"
        expected = gmems(0.5, 0.5, 0.6).matrix()
        assert np.allclose(payload["matrix"], expected, atol=1e-12)

    def test_gmemms(self, capsys):
        assert main(["construct", "gmemms", "--mu1", "0.8", "--mu2", "0.4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["matrix"], gmemms(0.8, 0.4).matrix(), atol=1e-12)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "state.json"
        assert main(["construct", "sqth", "--r", "1", "--n-minus", "0.5",
                     "--n-plus", "0.5", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert payload["matrix"][0][0] == pytest.approx(0.5 * math.cosh(2.0),
                                                        rel=1e-12)

    def test_invalid_purities_exit_1(self, capsys):
        assert main(["construct", "gmems", "--mu1", "0.5", "--mu2", "0.5",
                     "--mu", "0.2"]) == 1

    def test_invalid_squeezing_exits_3(self, capsys):
        assert main(["construct", "sqth", "--r", "-1", "--n-minus", "0.5",
                     "--n-plus", "0.5"]) == 3


class TestAnalyze:
    def test_squeezed_vacuum_report(self, tmp_path, capsys):
        target = tmp_path / "tmsv.json"
        main(["construct", "sqth", "--r", "1", "--n-minus", "0.5",
              "--n-plus", "0.5", "--output", str(target)])
        capsys.readouterr()
        assert main(["analyze", str(target)]) == 0
        pairs = parse_pairs(capsys.readouterr().out)
        assert float(pairs["log_negativity"]) == pytest.approx(2.0, abs=1e-9)
        assert float(pairs["mu"]) == pytest.approx(1.0, abs=1e-9)
        assert pairs["containment"] == "ok"
        assert pairs["region"] == "entangled"

    def test_bounds_match_exact_value_for_extremal_input(self, tmp_path, capsys):
        target = tmp_path / "gmems.json"
        target.write_text(to_json(from_standard_form(gmems(0.5, 0.5, 0.6))))
        assert main(["analyze", str(target)]) == 0
        pairs = parse_pairs(capsys.readouterr().out)
        assert float(pairs["log_negativity"]) == pytest.approx(EN_MAX_ANCHOR,
                                                               abs=1e-9)
        assert float(pairs["en_max"]) == pytest.approx(EN_MAX_ANCHOR, abs=1e-9)
        assert float(pairs["delta"]) == pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "gmems.json"
        target.write_text(to_json(from_standard_form(gmems(0.5, 0.5, 0.6))))
        assert main(["analyze", str(target), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["containment"] == "ok"
        assert payload["region"] == "entangled"

    def test_checks_physicality_once_per_matrix(self, monkeypatch):
        # purities and standard form both read the one checked matrix.
        original = gce.core.is_physical
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (gce, gce.core, gce.param, gce.entangle, gce.estimator,
                       gce.extremal, oracle, cli):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)
        paths = sorted((pathlib.Path(__file__).parent / "data" / "analyze").glob("*.json"))
        for path in paths:
            cli.run_analyze(str(path))
        assert len(calls) == len(paths) > 0

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main(["analyze", str(bad)]) == 3

    def test_unphysical_matrix_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "unphysical.json"
        matrix = [[0.1 if i == j else 0.0 for j in range(4)] for i in range(4)]
        bad.write_text(json.dumps({"convention": "vacuum=1/2", "matrix": matrix}))
        assert main(["analyze", str(bad)]) == 4
        assert "n_minus" in capsys.readouterr().err


class TestSweep:
    def test_grid_layout(self, capsys):
        assert main(["sweep", "--mu-i", "0.5", "0.5", "0.1",
                     "--mu", "0.2", "1.0", "0.2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mu_i,mu,region,en_min,en_max,en_avg,rel_err"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[:3] == ["0.5", "0.2", "unphysical"]
        assert first[3:] == ["nan"] * 4
        last = lines[-1].split(",")
        assert last[2] == "entangled"
        assert float(last[3]) == pytest.approx(float(last[4]), abs=1e-9)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "grid.csv"
        assert main(["sweep", "--mu-i", "0.5", "0.5", "0.1",
                     "--mu", "0.3", "0.6", "0.1", "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        text = target.read_text()
        assert text.endswith("\n")
        assert text.splitlines()[0] == "mu_i,mu,region,en_min,en_max,en_avg,rel_err"

    def test_rejects_reversed_range(self, capsys):
        assert main(["sweep", "--mu-i", "0.5", "0.4", "0.1",
                     "--mu", "0.3", "0.6", "0.1"]) == 3

    def test_spec_validation(self):
        with pytest.raises(MalformedInputError, match="must be positive"):
            SweepSpec(0.5, 0.5, 0.0, 0.3, 0.6, 0.1)
        with pytest.raises(MalformedInputError, match="must not precede"):
            SweepSpec(0.5, 0.5, 0.1, 0.6, 0.3, 0.1)
        with pytest.raises(MalformedInputError, match="mu_stop must be finite"):
            SweepSpec(0.5, 0.5, 0.1, 0.3, float("inf"), 0.1)
        with pytest.raises(MalformedInputError, match="mu_i_step must be a real number"):
            SweepSpec(0.5, 0.5, "x", 0.3, 0.6, 0.1)

    def test_purities_below_the_floor_are_unphysical(self, capsys):
        assert main(["sweep", "--mu-i", "1e-200", "1e-200", "1",
                     "--mu", "1e-300", "1e-300", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["1e-200,1e-300,unphysical,nan,nan,nan,nan"]

    @pytest.mark.parametrize("log_base", ["e", "2"])
    @pytest.mark.parametrize(
        "grid",
        [
            # a single global purity (degenerate range)
            (0.105, 0.495, 0.005, 0.5, 0.5, 1.0),
            # both ranges start at 0, outside the domain
            (0.0, 1.0, 0.05, 0.0, 1.0, 0.05),
            # mu_i^2 and mu = 1 fall exactly on grid points: the strip edges
            (0.25, 1.0, 0.25, 0.0625, 1.0, 0.0625),
            # across the lower strip edge and its tolerance band
            (0.5, 0.5, 1.0, 0.249999998, 0.250000002, 5e-10),
            # across the tolerance collars of the two region thresholds
            (0.5, 0.5, 1.0, 1.0 / 3.0 - 2e-9, 1.0 / 3.0 + 2e-9, 5e-10),
            (0.5, 0.5, 1.0, 0.5 / math.sqrt(1.75) - 2e-9,
             0.5 / math.sqrt(1.75) + 2e-9, 5e-10),
            # outside (0, 1] on both sides
            (-0.2, 1.2, 0.07, -0.1, 1.3, 0.05),
        ],
    )
    def test_rows_match_scalar_path(self, grid, log_base):
        scale = 1.0 / math.log(2.0) if log_base == "2" else 1.0
        expected = ["mu_i,mu,region,en_min,en_max,en_avg,rel_err"]
        for mu_i in cli._grid(*grid[:3]):
            for mu in cli._grid(*grid[3:]):
                if check_purity_constraints(mu_i, mu_i, mu):
                    r = estimate(mu_i, mu_i, mu)
                    row = ["%.12g" % mu_i, "%.12g" % mu, r.region.value,
                           "%.12g" % (r.en_min * scale), "%.12g" % (r.en_max * scale),
                           "%.12g" % (r.en_avg * scale), "%.12g" % r.rel_err]
                else:
                    row = ["%.12g" % mu_i, "%.12g" % mu, "unphysical"] + ["nan"] * 4
                expected.append(",".join(row))
        assert run_sweep(SweepSpec(*grid), log_base) == "\n".join(expected) + "\n"

    def test_row_values_match_library(self):
        text = run_sweep(SweepSpec(0.5, 0.5, 0.1, 0.6, 0.6, 0.1))
        row = text.strip().splitlines()[1].split(",")
        assert float(row[4]) == pytest.approx(EN_MAX_ANCHOR, abs=1e-10)
        assert float(row[3]) == pytest.approx(EN_MIN_ANCHOR, abs=1e-10)


class TestValidate:
    def test_all_checks_pass(self, capsys):
        assert main(["validate", "--seed", "3", "--count", "2000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"bounds", "closed_forms"}
        assert payload["bounds"]["total_violations"] == 0
        assert payload["closed_forms"]["total_violations"] == 0

    def test_single_check_selection(self, capsys):
        assert main(["validate", "--seed", "3", "--count", "1000",
                     "--check", "bounds"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"bounds"}

    def test_violations_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_validate_batch",
                            lambda cfg, batch: {"total_violations": 3})
        assert main(["validate", "--check", "bounds"]) == 1

    def test_all_checks_sample_once(self, capsys, monkeypatch):
        calls = []
        sample = cli.sample_standard_forms

        def counting(cfg):
            calls.append(cfg)
            return sample(cfg)

        monkeypatch.setattr(cli, "sample_standard_forms", counting)
        monkeypatch.setattr(oracle, "sample_standard_forms", counting)
        assert main(["validate", "--seed", "3", "--count", "1000", "--check", "all"]) == 0
        assert len(calls) == 1
        cfg = SampleConfig(seed=3, count=1000)
        expected = {"bounds": validate_bounds(cfg),
                    "closed_forms": crosscheck_closed_forms(cfg)}
        assert capsys.readouterr().out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_bad_config_exits_2(self, capsys):
        assert main(["validate", "--seed", "-1", "--count", "10"]) == 2
        assert "error:" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--mu1", "0.5"])
        assert info.value.code == 2

    def test_bad_tolerance_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("GCE_TOLERANCE", "-1")
        assert main(["classify", "--mu1", "0.5", "--mu2", "0.5", "--mu", "0.6"]) == 2
        assert "GCE_TOLERANCE" in capsys.readouterr().err


CLASSIFY_ARGS = ["classify", "--mu1", "0.5", "--mu2", "0.5", "--mu", "0.6"]


def child_env(bin_dir=None):
    """Environment for subprocesses that run the ``gce`` under test.

    PYTHONPATH starts with the parent directory of the imported ``gce``
    package, so the child imports the same code as the in-process tests, not
    whatever an ambient PYTHONPATH or a stale install would provide.
    ``bin_dir``, if given, goes first on PATH.
    """
    env = dict(os.environ)
    src = str(pathlib.Path(gce.__file__).resolve().parents[1])
    for var, first in (("PYTHONPATH", src), ("PATH", bin_dir)):
        if first is not None:
            env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))
    return env


@pytest.fixture
def console_scripts(tmp_path):
    """Install the ``[project.scripts]`` executables into a temporary bin dir.

    An offline ``pip install`` needs setuptools>=68 and ``wheel`` already
    present, so the scripts are written here by the distlib ``ScriptMaker``
    that pip itself uses when it installs a wheel, from the entry points
    declared in ``pyproject.toml``.
    """
    tomllib = pytest.importorskip("tomllib")
    scripts = pytest.importorskip("pip._vendor.distlib.scripts")
    with open(pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        entry_points = tomllib.load(fh)["project"]["scripts"]
    maker = scripts.ScriptMaker(None, str(tmp_path))
    maker.variants = {""}  # as pip: no "gce-3.11" alongside "gce"
    maker.make_multiple([f"{name} = {target}"
                         for name, target in entry_points.items()])
    return tmp_path


class TestInstalledEntryPoints:
    def test_console_script(self, console_scripts):
        result = subprocess.run(
            ["gce", *CLASSIFY_ARGS],
            capture_output=True, text=True, env=child_env(console_scripts),
        )
        assert result.returncode == 0, result.stderr
        assert "region = entangled" in result.stdout, result.stderr

    @pytest.mark.skipif(shutil.which("gce") is None,
                        reason="gce console script not on PATH "
                               "(package not installed)")
    def test_installed_console_script(self):
        result = subprocess.run(
            ["gce", *CLASSIFY_ARGS], capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "region = entangled" in result.stdout, result.stderr

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "gce", "bounds",
             "--mu1", "0.5", "--mu2", "0.5", "--mu", "0.6"],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0
        assert "delta_min = 0.833333333333" in result.stdout

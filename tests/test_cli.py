"""End-to-end tests for the command-line interface."""

import csv
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import halfspace
from halfspace import verify
from halfspace.cli import ConfigError, main, parse_config

# the verify.check_* names, in definition order
CHECKS = [name for name in vars(verify) if name.startswith("check_")]

SOLVE_CFG = """\
[torus]
n = 1
length = 6.283185307179586
points = 64

[coefficients]
family = smooth_symmetric
seed = 3

[problem]
kind = neumann
data = gaussian
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_sections_and_types(tmp_path):
    path = _write(tmp_path, "ok.cfg", SOLVE_CFG)
    cfg = parse_config(path)
    assert cfg.get("problem", "kind") == "neumann"
    assert cfg.get_int("torus", "points") == 64
    assert abs(cfg.get_float("torus", "length") - 2 * np.pi) < 1e-12
    assert cfg.get("problem", "missing", default="x") == "x"


def test_parse_config_line_numbered_errors(tmp_path):
    path = _write(tmp_path, "bad.cfg", "[torus]\nn = 1\npoints = oops\n")
    cfg = parse_config(path)
    with pytest.raises(ConfigError) as err:
        cfg.get_int("torus", "points")
    assert "bad.cfg:3" in str(err.value)

    path2 = _write(tmp_path, "dup.cfg", "[a]\nx = 1\nx = 2\n")
    with pytest.raises(ConfigError) as err2:
        parse_config(path2)
    assert "dup.cfg:3" in str(err2.value)

    path3 = _write(tmp_path, "stray.cfg", "x = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path3)


def test_solve_command_writes_outputs(tmp_path):
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG)
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    for name in ("report.txt", "trace.csv", "samples.csv", "norms.csv"):
        assert (out / name).exists(), name
    report = (out / "report.txt").read_text()
    assert "boundary_residual" in report
    resid = float([ln.split("=")[1] for ln in report.splitlines()
                   if ln.startswith("boundary_residual")][0])
    assert resid <= 1e-10


def test_solve_command_deterministic(tmp_path):
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "trace.csv").read_text() == (out2 / "trace.csv").read_text()
    assert (out1 / "norms.csv").read_text() == (out2 / "norms.csv").read_text()


def test_solve_command_evaluates_its_sample_grid_once(tmp_path, monkeypatch):
    # sup_t, nontangential and the samples.csv norms share one height block
    from halfspace import bvp, calculus
    calls = []
    real = calculus.apply_to_vector

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(calculus, "apply_to_vector", counting)
    monkeypatch.setattr(bvp, "apply_to_vector", counting)
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    assert len(calls) == 1


def test_config_error_exit_code(tmp_path):
    bad = _write(tmp_path, "bad.cfg", "[torus]\nn = 1\npoints = oops\n")
    rc = main(["solve", "--config", bad, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2
    rc2 = main(["solve", "--config", str(tmp_path / "absent.cfg"),
                "--out", str(tmp_path / "o"), "--quiet"])
    assert rc2 == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_numbers_are_config_errors(tmp_path, value):
    # SOLVE_CFG has 12 lines; the three keys land on lines 13-15
    text = SOLVE_CFG + (f"tol = {value}\nalpha = {value}+1j\n"
                        f"eps_list = 0.1, {value}\n")
    cfg = parse_config(_write(tmp_path, "nf.cfg", text))
    for line, key, get in ((13, "tol", cfg.get_float),
                           (14, "alpha", cfg.get_complex),
                           (15, "eps_list", cfg.get_list)):
        with pytest.raises(ConfigError, match="finite") as err:
            get("problem", key)
        assert f"nf.cfg:{line}" in str(err.value)


@pytest.mark.parametrize("length", ["nan", "inf"])
def test_non_finite_torus_length_exits_2(tmp_path, length):
    text = SOLVE_CFG.replace("length = 6.283185307179586",
                             f"length = {length}")
    cfg = _write(tmp_path, "nf.cfg", text)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2


def test_nan_invariance_tol_exits_2(tmp_path):
    # nan would switch the invariance gate off: defect > nan is never true
    cfg = _write(tmp_path, "nf.cfg",
                 SOLVE_CFG + "\n[tolerances]\ninvariance_tol = nan\n")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2


def test_missing_problem_section_exit_code(tmp_path):
    cfg = _write(tmp_path, "nop.cfg",
                 "[torus]\nn = 1\nlength = 6.0\npoints = 32\n")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2


def test_unknown_coefficient_family_exit_code(tmp_path):
    text = SOLVE_CFG.replace("smooth_symmetric", "nonsense")
    cfg = _write(tmp_path, "fam.cfg", text)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2


# SOLVE_CFG has 12 lines; the appended keys land on lines 13 and 14
@pytest.mark.parametrize("keys,line", [
    pytest.param("degree = 5", 13, id="degree-5"),
    pytest.param("degree = 0", 13, id="degree-0"),
    pytest.param("degree = 2", 13, id="degree-2"),
    pytest.param("alpha_plus = 1.5\nalpha_minus = 1.5", 14,
                 id="equal-weights"),
    pytest.param("alpha_plus = 1", 13, id="alpha_plus-equals-default")])
def test_transmission_config_errors_exit_2_with_their_line(tmp_path, capsys,
                                                            keys, line):
    text = SOLVE_CFG.replace("kind = neumann", "kind = transmission")
    cfg = _write(tmp_path, "tr.cfg", text + keys + "\n")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2
    assert f"tr.cfg:{line}: " in capsys.readouterr().err


# a value the family builder rejects names its key's line: `family` is on
# line 7 of this config and the key after it on line 8
@pytest.mark.parametrize("n,keys,line", [
    pytest.param(2, "family = skew\nk = 1", 7, id="skew-on-n2"),
    pytest.param(1, "family = block\nseed = -1", 8, id="negative-seed"),
    pytest.param(1, "family = smooth_symmetric\nkappa_min = 5", 8,
                 id="kappa_min-above-1"),
    pytest.param(1, "family = smooth_symmetric\nkappa_min = -5", 8,
                 id="smooth-not-accretive"),
    pytest.param(1, "family = constant\nentries = 1 0 0 0 0 0 -1 0", 8,
                 id="constant-not-accretive")])
def test_coefficient_builder_errors_exit_2_with_their_line(tmp_path, capsys,
                                                           n, keys, line):
    text = (f"[torus]\nn = {n}\nlength = 6.0\npoints = 8\n\n"
            f"[coefficients]\n{keys}\n\n"
            "[problem]\nkind = neumann\ndata = gaussian\n")
    cfg = _write(tmp_path, "coef.cfg", text)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2
    assert f"coef.cfg:{line}: " in capsys.readouterr().err


def test_negative_seed_exits_2_naming_the_option(tmp_path, capsys):
    text = ("[torus]\nn = 1\nlength = 6.0\npoints = 16\n\n"
            "[coefficients]\nfamily = identity\n\n[campaign]\nid = hodge\n")
    cfg = _write(tmp_path, "camp.cfg", text)
    with pytest.raises(SystemExit) as exit_:
        main(["campaign", "--config", cfg, "--out", str(tmp_path / "o"),
              "--seed", "-3", "--quiet"])
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_campaign_command(tmp_path):
    text = """\
[torus]
n = 1
length = 6.283185307179586
points = 32

[coefficients]
family = smooth_symmetric
seed = 5

[campaign]
id = rellich
"""
    cfg = _write(tmp_path, "camp.cfg", text)
    out = tmp_path / "camp"
    rc = main(["campaign", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    with open(out / "campaign.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1
    assert "overall: pass" in (out / "summary.txt").read_text()


def test_unknown_campaign_exit_code(tmp_path):
    text = ("[torus]\nn = 1\nlength = 6.0\npoints = 32\n\n"
            "[coefficients]\nfamily = identity\n\n[campaign]\nid = bogus\n")
    cfg = _write(tmp_path, "camp.cfg", text)
    rc = main(["campaign", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2


@pytest.mark.parametrize("n_points", ["", "0", "64, 100"])
def test_skew_campaign_bad_n_points_exit_code(tmp_path, capsys, n_points):
    text = ("[torus]\nn = 1\nlength = 6.0\npoints = 32\n\n"
            "[coefficients]\nfamily = identity\n\n[campaign]\nid = skew\n"
            f"n_points = {n_points}\n")
    cfg = _write(tmp_path, "camp.cfg", text)
    rc = main(["campaign", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2
    assert "camp.cfg:11: " in capsys.readouterr().err


@pytest.mark.parametrize("cid,key", [("skew", "k_list"),
                                     ("perturbation", "eps_list")])
def test_empty_campaign_list_names_its_line(tmp_path, capsys, cid, key):
    text = ("[torus]\nn = 1\nlength = 6.0\npoints = 32\n\n"
            "[coefficients]\nfamily = identity\n\n[campaign]\n"
            f"id = {cid}\n{key} =\n")
    cfg = _write(tmp_path, "camp.cfg", text)
    rc = main(["campaign", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2
    assert f"camp.cfg:11: empty {key}" in capsys.readouterr().err


def test_oracle_command(tmp_path):
    text = ("[torus]\nn = 1\nlength = 6.283185307179586\npoints = 64\n\n"
            "[coefficients]\nfamily = identity\n\n[problem]\ndata = mode\n")
    cfg = _write(tmp_path, "oracle.cfg", text)
    out = tmp_path / "oracle"
    rc = main(["oracle", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    with open(out / "oracle.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    dev_col = header.index("relative_deviation")
    assert all(float(r[dev_col]) <= 1e-9 for r in body)


def _stub_checks(monkeypatch, failing=None):
    """Replace every ``verify.check_*`` by a stub that records its call and
    returns one row named after it, failed for the family ``failing``."""
    calls = []
    for name in CHECKS:
        def stub(*args, name=name, **kwargs):
            calls.append(name)
            return [(name, 0.5, 1.0, name != failing)]
        monkeypatch.setattr(verify, name, stub)
    return calls


def test_run_all_calls_every_check_family_once_in_order(monkeypatch):
    # run_all looks each family up by name: `halfspace verify` runs them all
    # and the benchmark's battery times each by replacing the attribute
    calls = _stub_checks(monkeypatch)
    rows = verify.run_all()
    assert calls == CHECKS
    assert [row[0] for row in rows] == CHECKS


@pytest.mark.parametrize("failing,rc", [("check_sector", 1), (None, 0)])
def test_verify_command_writes_rows_in_order(tmp_path, monkeypatch,
                                             failing, rc):
    _stub_checks(monkeypatch, failing)
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out), "--quiet"]) == rc
    lines = (out / "verify.txt").read_text().splitlines()
    assert lines[0].split() == ["check", "value", "tol", "status"]
    assert [ln.split()[0] for ln in lines[1:]] == CHECKS
    assert [ln.split()[-1] for ln in lines[1:]] == [
        "FAIL" if name == failing else "pass" for name in CHECKS]


def test_library_does_not_import_cli():
    # the library layers must not depend on the command-line shell
    src = os.path.dirname(os.path.dirname(halfspace.__file__))
    code = ("import sys, halfspace, halfspace.verify, halfspace.diagnostics; "
            "sys.exit('halfspace.cli' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_solver_runtime_does_not_import_scipy(tmp_path):
    # scipy serves only the explicit-kernel oracle and the SVD fallback; the
    # solve command, a variable frame, its solves and its norms never load it
    src = os.path.dirname(os.path.dirname(halfspace.__file__))
    cfg = _write(tmp_path, "solve.cfg", SOLVE_CFG)
    out = str(tmp_path / "out")
    code = f"""
import sys
import halfspace
from halfspace import cli, oracles
from halfspace.bvp import (SCALAR_KINDS, BoundaryFrame, nontangential_max,
                           norm_sup_t, norm_triplebar_dt, solve_kind)
from halfspace.diagnostics import gaussian_data, smooth_real_symmetric
from halfspace.grid import Torus

assert cli.main(["solve", "--config", {cfg!r}, "--out", {out!r},
                 "--quiet"]) == 0
torus = Torus(1, 6.283185307179586, 32)
frame = BoundaryFrame(smooth_real_symmetric(torus, seed=3))
for kind in SCALAR_KINDS:
    sol, _ = solve_kind(kind, frame, gaussian_data(torus))
    sol.at_t(0.5)
    norm_sup_t(sol)
    norm_triplebar_dt(sol)
    nontangential_max(sol)
loaded = sorted(m for m in sys.modules
                if m == "scipy" or m.startswith("scipy."))
if loaded:
    sys.exit("solver runtime loaded %d scipy modules, first %s"
             % (len(loaded), loaded[0]))
oracles.cauchy_extension_line(lambda y: 1.0 / (1.0 + y * y), 1.0, 0.0)
if "scipy.integrate" not in sys.modules:
    sys.exit("cauchy_extension_line did not load scipy.integrate")
"""
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_package_version_matches_pyproject():
    # one source: the build reads its version from halfspace.__version__
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path) as fh:
        text = fh.read()
    assert not re.search(r'^version\s*=\s*"', text, re.M)
    assert re.search(r'^dynamic\s*=\s*\[[^]]*"version"', text, re.M)
    assert re.search(
        r'^version\s*=\s*\{\s*attr\s*=\s*"halfspace\.__version__"', text, re.M)

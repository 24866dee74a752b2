"""The README's examples run as printed."""

import re
from pathlib import Path

import numpy as np

from halfspace.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_readme_solve_config_runs(tmp_path):
    (block,) = _blocks("ini")
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(block)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert (tmp_path / "out" / "report.txt").exists()


def test_readme_library_example_runs(capsys):
    (block,) = _blocks("python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert "boundary_residual" in capsys.readouterr().out
    assert np.all(np.isfinite(namespace["interior"].values))

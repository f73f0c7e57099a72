"""tools/all_reports.py: every subcommand at both profiles, reproducibly."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from semiperturb.cli import SUBCOMMANDS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "all_reports.py"


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_sweeps_are_byte_identical(tmp_path):
    trees = []
    for name in ("a", "b"):
        proc = subprocess.run([sys.executable, str(TOOL),
                               str(tmp_path / name)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.splitlines() == [
            f"{profile} {sub}: exit 0"
            for profile in ("fast", "full") for sub in SUBCOMMANDS]
        trees.append(_tree(tmp_path / name))
    a, b = trees
    for profile in ("fast", "full"):
        for sub in SUBCOMMANDS:
            assert f"{profile}/{sub}-report.json" in a
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


def test_usage_error_without_out_dir():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert "OUT_DIR" in proc.stderr


def test_any_failed_run_exits_1(tmp_path, monkeypatch, capsys):
    import importlib.util
    spec = importlib.util.spec_from_file_location("all_reports", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def fake_run(cmd, **kwargs):
        code = 1 if cmd[3:6] == ["convergence", "--profile", "full"] else 0
        return subprocess.CompletedProcess(cmd, code, "", "boom\n")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["full convergence: exit 1", "boom"]
    assert len(out) == 2 * len(SUBCOMMANDS) + 1

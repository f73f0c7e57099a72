"""tools/reach.py: its recorder over one fast CLI run, and the listing."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

from semiperturb import cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "reach.py"


def _reach():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_lists_what_matrix_demo_never_enters(tmp_path):
    reach = _reach()
    with reach.recording() as entered:
        assert cli.main(["matrix-demo", "--profile", "fast",
                         "--out", str(tmp_path)]) == 0
    rows = reach.unreached(entered)
    names = [name for name, _ in rows]
    for name in ("cli.main", "perturbation.neumann_semigroup",
                 "semigroup.expm", "semigroup.MatrixSystem.__init__"):
        assert name not in names
    # the matrix demo runs no transport code
    assert "transport.oracle_weights" in names
    assert "semigroup.TranslationSystem.orbit_rows" in names
    # each row once, with the line count of its def, decorators included
    spans = {name: last - first + 1
             for name, _, first, last in reach.functions()}
    assert len(set(names)) == len(names)
    assert all(spans[name] == lines for name, lines in rows)
    # the last line also gives the package's size, as wc -l counts it
    wc = subprocess.run(["wc", "-l", *sorted(
        str(p) for p in (ROOT / "src" / "semiperturb").glob("*.py"))],
        capture_output=True, text=True, check=True).stdout
    total = int(wc.splitlines()[-1].split()[0])
    assert reach.listing(rows).splitlines()[-1] == (
        f"{len(rows)} functions, {sum(n for _, n in rows)} lines never "
        f"entered, {total} lines in src/")


def test_nested_functions_are_counted_in_their_parent():
    reach = _reach()
    nested = [name for name, *_ in reach.functions() if "<locals>" in name]
    assert nested
    rows = reach.unreached(set())
    assert not [name for name, _ in rows if "<locals>" in name]
    assert [name for name, _ in rows] == [
        name for name, *_ in reach.functions() if "<locals>" not in name]

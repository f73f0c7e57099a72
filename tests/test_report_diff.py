from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"

REPORT = {
    "schema": 1,
    "subcommand": "convergence",
    "config": {"t": 1, "gaps": [3.1761213176828562e-05,
                                7.9399905483779065e-06]},
    "checks": [
        {"name": "order-level1", "measured": 2.0000568247491417,
         "bound": 1.8, "pass": True},
        {"name": "count", "measured": 3, "bound": 3, "pass": True},
    ],
    "passed": True,
}


def _run(tmp_path, b, *flags, a=REPORT):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    proc = subprocess.run([sys.executable, str(TOOL), str(pa), str(pb),
                           *flags], capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_identical_reports(tmp_path):
    code, out = _run(tmp_path, REPORT)
    assert code == 0
    assert "0 moved" in out


def test_last_digit_moves_are_listed_within_rtol(tmp_path):
    b = copy.deepcopy(REPORT)
    b["checks"][0]["measured"] = 2.0000568249105242
    b["config"]["gaps"][1] = 7.9399905474897281e-06
    code, out = _run(tmp_path, b)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("checks.order-level1: 2.0000568247491417 -> "
                               "2.000056824910524  abs 1.614e-10")
    assert lines[1].startswith("config.gaps[1]: ")
    assert "2 moved" in lines[-1]
    # the same moves fail a tighter tolerance
    code, _ = _run(tmp_path, b, "--rtol", "1e-11")
    assert code == 1


def test_absolute_floor_passes_small_values(tmp_path):
    # a last-digit move of a small gap: 1.1e-15 absolute, 1.4e-10 relative
    b = copy.deepcopy(REPORT)
    b["config"]["gaps"][1] = 7.9399905494779065e-06
    code, out = _run(tmp_path, b, "--rtol", "1e-11")
    assert code == 1
    assert "NOT within rtol 1e-11" in out
    code, out = _run(tmp_path, b, "--rtol", "1e-11", "--atol", "1e-13")
    assert code == 0
    assert out.splitlines()[-1].endswith("within rtol 1e-11 or atol 1e-13")
    # a zero that moves has no finite relative change; only the floor
    # can pass it
    a = copy.deepcopy(REPORT)
    a["config"]["t"] = 0
    b = copy.deepcopy(REPORT)
    b["config"]["t"] = 5e-14
    assert _run(tmp_path, b, a=a)[0] == 1
    assert _run(tmp_path, b, "--atol", "1e-13", a=a)[0] == 0
    # the floor does not excuse a real move
    b = copy.deepcopy(REPORT)
    b["checks"][1]["measured"] = 4
    assert _run(tmp_path, b, "--atol", "1e-13")[0] == 1


def test_large_moves_and_missing_checks_fail(tmp_path):
    b = copy.deepcopy(REPORT)
    b["checks"][1]["measured"] = 4
    code, out = _run(tmp_path, b)
    assert code == 1
    assert "checks.count: 3 -> 4  abs 1.000e+00  rel 3.333e-01" in out
    b = copy.deepcopy(REPORT)
    del b["checks"][1]
    code, out = _run(tmp_path, b)
    assert code == 1
    assert "count: only in A" in out


def test_directories_diff_every_report(tmp_path):
    def run(*args):
        proc = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    moved = copy.deepcopy(REPORT)
    moved["checks"][0]["measured"] = 2.0000568249105242
    for d, second in ((dir_a, REPORT), (dir_b, moved)):
        (d / "convergence-report.json").write_text(json.dumps(REPORT))
        (d / "matrix-demo-report.json").write_text(json.dumps(second))
        (d / "convergence.csv").write_text("dt,error,order\n")
    code, out = run(dir_a, dir_b)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("==")] \
        == ["== convergence-report.json", "== matrix-demo-report.json"]
    assert out.count("values compared") == 2
    assert "checks.order-level1: 2.0000568247491417 -> " in out
    # one failing pair fails the whole run
    assert run(dir_a, dir_b, "--rtol", "1e-11")[0] == 1
    # so does a report on one side only
    (dir_b / "admissibility-report.json").write_text(json.dumps(REPORT))
    code, out = run(dir_a, dir_b)
    assert code == 1
    assert "== admissibility-report.json\nonly in B" in out
    # a report against a directory is a usage error
    assert run(dir_a / "convergence-report.json", dir_b)[0] == 2

"""tools/trace_diff.py on two stub trace records."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trace_diff.py"


def _record(path: Path, **metrics) -> Path:
    path.write_text(json.dumps({"metrics": {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()}, "counts": {}}))
    return path


def test_trace_diff_prints_each_metric_with_its_delta(tmp_path):
    a = _record(tmp_path / "a.json",
                **{"functions.self_s": (0.16, "s"),
                   "functions.sample_sided.points": (1719734, "count"),
                   "semigroup.expm.s": (0.0, "s")})
    b = _record(tmp_path / "b.json",
                **{"functions.self_s": (0.04, "s"),
                   "functions.sample_sided.points": (641036, "count"),
                   "semigroup.expm.s": (0.0, "s"),
                   "trace.spans": (1686, "count")})
    before = {p: p.read_bytes() for p in (a, b)}
    proc = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert {p: p.read_bytes() for p in (a, b)} == before
    rows = {line.split()[0]: line.split()[1:]
            for line in proc.stdout.splitlines()[1:]}
    assert list(rows) == ["functions.self_s", "functions.sample_sided.points",
                          "semigroup.expm.s", "trace.spans"]
    assert rows["functions.self_s"] == ["0.16", "0.04", "-0.12", "0.25", "s"]
    assert rows["functions.sample_sided.points"] == [
        "1719734", "641036", "-1078698", "0.372753", "count"]
    # no ratio over a zero, no delta against a missing metric
    assert rows["semigroup.expm.s"] == ["0", "0", "0", "-", "s"]
    assert rows["trace.spans"] == ["-", "1686", "-", "-", "count"]


def test_trace_diff_refuses_a_file_that_is_no_record(tmp_path):
    a = _record(tmp_path / "a.json", **{"trace.spans": (1, "count")})
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    proc = subprocess.run([sys.executable, str(TOOL), str(a), str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "not a benchmark record" in proc.stderr

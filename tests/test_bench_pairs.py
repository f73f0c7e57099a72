"""tools/bench_pairs.py on two stub checkouts whose ``bench/run.py``
prints a canned result line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

SPEC = {"end_to_end": [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "order.min", "unit": "order", "better": "higher", "bound": 0.2},
]}

# writes its record under bench/out/ as the real one does, and logs its
# side to the file named by BENCH_PAIRS_LOG, outside both checkouts
STUB = '''
import json, os, sys
from pathlib import Path
out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)
(out / "record.json").write_text("{}")
with open(os.environ["BENCH_PAIRS_LOG"], "a") as fh:
    fh.write("%s\\n")
print("# table")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"run_s": {"value": %r, "unit": "s"},
                              "order.min": {"value": %r, "unit": "order"}}}))
'''


def _checkout(root: Path, side: str, run_s: float, order: float) -> Path:
    (root / side / "bench").mkdir(parents=True)
    (root / side / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (root / side / "bench" / "run.py").write_text(STUB % (side, run_s, order))
    return root / side


def _tree(path: Path):
    return sorted(str(p.relative_to(path)) for p in path.rglob("*"))


def _run(tmp_path, change_run_s, change_order, *extra):
    parent = _checkout(tmp_path, "parent", 0.3, 2.0)
    change = _checkout(tmp_path, "change", change_run_s, change_order)
    before = [_tree(parent), _tree(change)]
    log = tmp_path / "log"
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--workload", "transport-refine", "--seed", "7", "--pairs", "2",
         "--seconds", "1", *extra], capture_output=True, text=True,
        env={**os.environ, "BENCH_PAIRS_LOG": str(log)})
    assert [_tree(parent), _tree(change)] == before
    rows = {line.split()[0]: line for line in proc.stdout.splitlines()}
    return proc.returncode, rows, log.read_text().split()


def test_bench_pairs_alternates_and_compares(tmp_path):
    code, rows, log = _run(tmp_path, 0.2, 1.9)
    assert code == 0
    assert log == ["parent", "change", "change", "parent"]
    assert rows["run_s"].split()[1:6] \
        == ["0.3", "[0.3,", "0.3]", "0.2", "[0.2,"]
    assert "2/2 yes yes (0.25)" in " ".join(rows["run_s"].split())
    assert "0/2 no yes (0.2)" in " ".join(rows["order.min"].split())


def test_bench_pairs_flags_a_metric_past_its_bound(tmp_path):
    # order.min 2.0 -> 1.5 loses a quarter, past its bound of 0.2
    code, rows, _ = _run(tmp_path, 0.2, 1.5)
    assert code == 1
    assert " ".join(rows["order.min"].split()).endswith("NO (0.2)")


def test_bench_pairs_writes_json(tmp_path):
    # each pair's values and the per-metric verdicts go under the
    # workload; another workload already in the file is kept
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"other": {"kept": True}}}))
    code, rows, _ = _run(tmp_path, 0.2, 1.9, "--json", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["workloads"]["other"] == {"kept": True}
    entry = doc["workloads"]["transport-refine"]
    assert entry["seed"] == 7 and entry["seconds"] == 1.0
    assert entry["exit"] == 0
    assert entry["units"] == {"parent": {"failed": 0, "attempted": 8},
                              "change": {"failed": 0, "attempted": 8}}
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change"]
    for pair in entry["pairs"]:
        assert pair["parent"] == {"run_s": 0.3, "order.min": 2.0}
        assert pair["change"] == {"run_s": 0.2, "order.min": 1.9}
    run_s = entry["metrics"]["run_s"]
    assert run_s["parent"] == {"median": 0.3, "q1": 0.3, "q3": 0.3}
    assert run_s["change"] == {"median": 0.2, "q1": 0.2, "q3": 0.2}
    assert (run_s["wins"], run_s["gain_exceeds_parent_iqr"],
            run_s["within_bound"], run_s["bound"]) == (2, True, True, 0.25)
    order = entry["metrics"]["order.min"]
    assert (order["wins"], order["gain_exceeds_parent_iqr"],
            order["within_bound"], order["better"]) == (0, False, True,
                                                         "higher")


# writes and keeps ``touch`` bytes, a page fault for every 4 KiB page,
# then reports its passes as run.py does
FAULT_STUB = '''
import json
block = bytearray(b"\\x01") * %d
print("# passes: %d (scaled 0.1 s); digest 0")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"run_s": {"value": 0.3, "unit": "s"},
                              "order.min": {"value": 2.0, "unit": "order"}}}))
'''


def test_bench_pairs_reports_minor_faults_per_pass(tmp_path):
    # the change writes 32 MiB more than the parent over 4 passes: at
    # least 8192 more minor faults, 2048 a pass, in each run and median
    touched = {"parent": 1, "change": 32 << 20}
    sides = [_checkout(tmp_path, side, 0.3, 2.0) for side in touched]
    for side in sides:
        (side / "bench" / "run.py").write_text(
            FAULT_STUB % (touched[side.name], 4))
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), *map(str, sides), "--workload", "w",
         "--seed", "7", "--pairs", "2", "--seconds", "1", "--json",
         str(out)], capture_output=True, text=True)
    assert proc.returncode == 0
    faults = json.loads(out.read_text())["workloads"]["w"][
        "minor_faults_per_pass"]
    for run_p, run_c in zip(faults["parent"]["runs"],
                            faults["change"]["runs"]):
        assert 0 < run_p and run_c - run_p >= 0.9 * 2048
    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("minor faults per pass, "):
            side, median = line.split()[4:6]
            printed[side.rstrip(":")] = float(median)
    assert printed == pytest.approx(
        {side: faults[side]["median"] for side in touched}, rel=1e-5)
    assert printed["change"] - printed["parent"] >= 0.9 * 2048


# counts its runs in its own checkout's bench/out/, so a second copy of
# the checkout would count from 1 again, and logs side, workload and
# count; its run_s depends on the workload
MULTI_STUB = '''
import json, os, sys
from pathlib import Path
workload = sys.argv[sys.argv.index("--workload") + 1]
out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)
with open(out / "runs", "a") as fh:
    fh.write("run\\n")
count = len((out / "runs").read_text().split())
with open(os.environ["BENCH_PAIRS_LOG"], "a") as fh:
    fh.write("%s %%s %%d\\n" %% (workload, count))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"run_s": {"value": %r[workload], "unit": "s"},
                              "order.min": {"value": 2.0, "unit": "order"}}}))
'''


def test_bench_pairs_repeats_workload(tmp_path):
    # each checkout is copied once; each workload runs its own pairs in
    # the order given, prints its own table and gets its own JSON entry
    run_s = {"parent": {"a": 0.3, "b": 0.5}, "change": {"a": 0.2, "b": 0.6}}
    sides = [_checkout(tmp_path, side, 0.3, 2.0) for side in run_s]
    for side in sides:
        (side / "bench" / "run.py").write_text(
            MULTI_STUB % (side.name, run_s[side.name]))
    log, out = tmp_path / "log", tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), *map(str, sides), "--workload", "a",
         "--workload", "b", "--seed", "7", "--pairs", "2", "--seconds", "1",
         "--json", str(out)], capture_output=True, text=True,
        env={**os.environ, "BENCH_PAIRS_LOG": str(log)})
    # b's change is slower by a fifth, within run_s's bound of 0.25
    assert proc.returncode == 0
    assert log.read_text().splitlines() == [
        "parent a 1", "change a 1", "change a 2", "parent a 2",
        "parent b 3", "change b 3", "change b 4", "parent b 4"]
    tables = proc.stdout.split("workload ")[1:]
    assert [t.split()[0] for t in tables] == ["a", "b"]
    for table, wins in zip(tables, ("2/2 yes yes", "0/2 no yes")):
        row = next(line for line in table.splitlines()
                   if line.startswith("run_s"))
        assert wins in " ".join(row.split())
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["a", "b"]
    for name in ("a", "b"):
        entry = doc["workloads"][name]
        assert entry["exit"] == 0 and len(entry["pairs"]) == 2
        assert entry["metrics"]["run_s"]["parent"]["median"] \
            == run_s["parent"][name]
        assert entry["metrics"]["run_s"]["change"]["median"] \
            == run_s["change"][name]


# logs its pid, then runs until it is stopped
SLOW_STUB = '''
import os, time
with open(os.environ["BENCH_PAIRS_LOG"], "a") as fh:
    fh.write("%d\\n" % os.getpid())
time.sleep(60)
'''


def test_bench_pairs_cleans_up_on_sigterm(tmp_path):
    # SIGTERM in the middle of a run kills the run and removes the
    # temporary copies of both checkouts
    sides = [_checkout(tmp_path, side, 0.3, 2.0)
             for side in ("parent", "change")]
    for side in sides:
        (side / "bench" / "run.py").write_text(SLOW_STUB)
    tmpdir, log = tmp_path / "tmp", tmp_path / "log"
    tmpdir.mkdir()
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), *map(str, sides),
         "--workload", "transport-refine", "--seed", "7", "--pairs", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={**os.environ, "BENCH_PAIRS_LOG": str(log),
             "TMPDIR": str(tmpdir)})
    try:
        deadline = time.monotonic() + 30
        while not (log.exists() and log.read_text().endswith("\n")):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.05)
        assert list(tmpdir.glob("bench-pairs-*"))
        proc.terminate()
        assert proc.wait(timeout=30) != 0
    finally:
        proc.kill()
        proc.wait()
    assert not list(tmpdir.glob("bench-pairs-*"))
    with pytest.raises(ProcessLookupError):
        os.kill(int(log.read_text().split()[0]), 0)

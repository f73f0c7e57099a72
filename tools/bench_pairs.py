"""Run the benchmark of two checkouts in alternating pairs and compare.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W \
        [--workload W2 ...] --seed N [--pairs P] [--seconds S] [--json PATH]

Each pair runs ``bench/run.py --trace 0`` once for each checkout; the
side that runs first alternates from pair to pair, so a drift in the
machine's speed falls on both.  Every run works in a temporary copy of
its checkout (without ``.git`` and caches), made once for all the
workloads, so nothing is written inside either one: ``run.py`` keeps its
record under ``bench/out/`` and Python its byte code next to the
sources.  The workloads run one after another, in the order given, each
with its own pairs.

For each workload and each end-to-end metric of CHANGE's
``BENCHMARK.json`` it prints each side's median and quartiles, the pairs
the change won, whether its gain in the median exceeds the parent's
quartile spread, and whether it stays within the metric's bound: at most
that share of the parent's median worse than it.  The exit status is 1
when a run gives no result line, when on some workload a larger share of
the change's units fails, or when a metric leaves its bound; else 0.

SIGTERM stops it as an interrupt does: the run in progress is killed and
the temporary copies are removed.

``--json PATH`` also writes each workload's comparison to PATH, under
``workloads[W]``, as soon as its pairs are done: each pair's metric
values and which side ran first, each side's failed and attempted units,
and per metric the medians, quartiles, wins and verdicts printed above.
Entries for other workloads already in PATH are kept, so one file can
hold several runs.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SKIP = shutil.ignore_patterns(".git", "out", "__pycache__", ".hypothesis",
                              ".pytest_cache")
SIDES = ("parent", "change")


def _result(copy: Path, workload: str, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"], cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{copy.name}: no result line (exit "
                         f"{proc.returncode})\n{proc.stderr}") from None


def _spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def _exit_on_sigterm(signum, frame):
    """Turn SIGTERM into SystemExit, so that ``subprocess.run`` kills its
    child and ``TemporaryDirectory`` cleans up on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--json", type=Path, metavar="PATH")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    worst = False
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            shutil.copytree(getattr(args, side), copies[side], ignore=SKIP)
        for workload in dict.fromkeys(args.workload):
            worst |= _compare(copies, workload, spec, args)
    return 1 if worst else 0


def _compare(copies, workload: str, spec: dict, args) -> bool:
    """Run the pairs of one workload, print its table and, with
    ``--json``, write its entry; True when it fails the comparison."""
    print(f"workload {workload}", flush=True)
    results = {side: [] for side in SIDES}
    firsts = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        firsts.append(order[0])
        for side in order:
            results[side].append(_result(copies[side], workload, args))
        run_s = {side: results[side][-1]["metrics"].get("run_s", {})
                 .get("value") for side in SIDES}
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
              f"run_s parent {run_s['parent']} change {run_s['change']}",
              flush=True)

    units, share = {}, {}
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        units[side] = {"failed": failed, "attempted": attempted}
        share[side] = failed / max(attempted, 1)
        print(f"{side}: {failed} of {attempted} units failed")
    worst = share["change"] > share["parent"]
    print(f"{'metric':22s} {'parent median [q1, q3]':40s} "
          f"{'change median [q1, q3]':40s} wins   gain>IQR within(bound)")
    names = [m["name"] for m in spec["end_to_end"]]
    summary = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        vals = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in SIDES}
        (pm, p1, p3), (cm, c1, c3) = (_spread(vals[s]) for s in SIDES)
        wins = sum(sign * (c - q) < 0
                   for q, c in zip(vals["parent"], vals["change"]))
        gain = sign * (pm - cm) > p3 - p1
        within = sign * (cm - pm) <= m["bound"] * abs(pm)
        worst |= not within
        summary[name] = {
            "better": m["better"], "bound": m["bound"],
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "wins": wins, "gain_exceeds_parent_iqr": gain,
            "within_bound": within}
        # medians to ten digits: accuracy metrics move in the last ones
        print(f"{name:22s} {f'{pm:.10g} [{p1:.6g}, {p3:.6g}]':40s} "
              f"{f'{cm:.10g} [{c1:.6g}, {c3:.6g}]':40s} "
              f"{f'{wins}/{args.pairs}':6s} "
              f"{'yes' if gain else 'no':8s} "
              f"{'yes' if within else 'NO'} ({m['bound']})")
    if args.json is not None:
        pairs = [{"first": first, **{
            side: {n: results[side][i]["metrics"][n]["value"]
                   for n in names} for side in SIDES}}
            for i, first in enumerate(firsts)]
        _write_json(args.json, workload, {
            "seed": args.seed, "seconds": args.seconds,
            "machine": {"platform": platform.platform(),
                        "cpus": os.cpu_count()},
            "units": units, "pairs": pairs, "metrics": summary,
            "exit": 1 if worst else 0})
    return worst


def _write_json(path: Path, workload: str, entry: dict):
    """Put ``entry`` under ``workloads[workload]`` of the JSON file at
    path, keeping its other workloads."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("workloads", {})[workload] = entry
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())

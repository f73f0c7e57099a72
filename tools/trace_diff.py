"""Print the per-layer metrics of two traced benchmark records side by side.

    python3 tools/trace_diff.py A.json B.json

A and B are records that ``bench/run.py --trace 1`` writes under
``bench/out/`` (``<workload>-seed<N>-trace1.json``), say one from a
parent checkout and one from a change.  Every metric of either record is
printed on one line: its name, A's value, B's value, the delta B - A and
the ratio B / A (``-`` where A is zero or a side lacks the metric), then
its unit.  Metrics keep A's order, those only in B follow.  The files are
only read; the exit status is 0, or 2 when one cannot be read as a
record.
"""

import argparse
import json
import sys


def _metrics(path):
    try:
        with open(path) as fh:
            return json.load(fh)["metrics"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"{path}: not a benchmark record ({exc})") from None


def _fmt(value):
    if value is None:
        return "-"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def rows(a: dict, b: dict):
    """(name, A value, B value, delta, ratio, unit) per metric; None
    where a value does not exist."""
    for name in list(a) + [n for n in b if n not in a]:
        x = a.get(name, {}).get("value")
        y = b.get(name, {}).get("value")
        unit = (a.get(name) or b.get(name)).get("unit", "")
        both = x is not None and y is not None
        yield (name, x, y, y - x if both else None,
               y / x if both and x else None, unit)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    args = p.parse_args(argv)
    try:
        a, b = _metrics(args.a), _metrics(args.b)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{'metric':40s} {'A':>14s} {'B':>14s} {'B - A':>14s} "
          f"{'B / A':>10s} unit")
    for name, x, y, delta, ratio, unit in rows(a, b):
        print(f"{name:40s} {_fmt(x):>14s} {_fmt(y):>14s} {_fmt(delta):>14s} "
              f"{_fmt(ratio):>10s} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

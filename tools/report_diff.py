"""Compare two semiperturb JSON reports check by check.

    python3 tools/report_diff.py A.json B.json [--rtol X] [--atol Y]
    python3 tools/report_diff.py DIR_A DIR_B [--rtol X] [--atol Y]

Checks are matched by ``name``.  Every ``measured`` value that differs
between the reports is printed with its absolute and relative change
(relative to A), and so is every moved leaf of ``config``, where some
subcommands keep their measured series.  A moved number is within
tolerance when its absolute change is at most ``--atol`` (default 0) or
its relative change at most ``--rtol`` (default 1e-9).  The exit status
is 1 when a number moves beyond both, when a non-numeric value differs,
or when a check is in only one report; otherwise 0.

Given two directories, it compares every ``*-report.json`` found in
either one, under a ``== NAME`` header per file, and exits 1 when any
pair fails or a report exists on one side only.
"""

import argparse
import json
import sys
from pathlib import Path


def _leaves(value, path):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a: dict, b: dict, rtol: float, atol: float = 0.0,
            out=sys.stdout) -> bool:
    """Print what moved from report a to report b; True when every moved
    number is within atol absolute or rtol relative."""
    ok = True
    checks_a = {c["name"]: c["measured"] for c in a["checks"]}
    checks_b = {c["name"]: c["measured"] for c in b["checks"]}
    for name in sorted(set(checks_a) ^ set(checks_b)):
        side = "A" if name in checks_a else "B"
        print(f"{name}: only in {side}", file=out)
        ok = False
    pairs = [(f"checks.{n}", checks_a[n], checks_b[n])
             for n in checks_a if n in checks_b]
    leaves_a = dict(_leaves(a.get("config"), "config"))
    leaves_b = dict(_leaves(b.get("config"), "config"))
    pairs += [(p, leaves_a.get(p), leaves_b.get(p))
              for p in sorted(set(leaves_a) | set(leaves_b), key=str)]
    moved = 0
    for path, x, y in pairs:
        if x == y:
            continue
        moved += 1
        if not (_is_number(x) and _is_number(y)):
            print(f"{path}: {x!r} -> {y!r}", file=out)
            ok = False
            continue
        diff = abs(y - x)
        rel = diff / abs(x) if x else float("inf")
        print(f"{path}: {x!r} -> {y!r}  abs {diff:.3e}  rel {rel:.3e}",
              file=out)
        ok = ok and (diff <= atol or rel <= rtol)
    print(f"{len(pairs)} values compared, {moved} moved, "
          f"{'within' if ok else 'NOT within'} rtol {rtol:g}"
          + (f" or atol {atol:g}" if atol else ""), file=out)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two semiperturb reports check by check.")
    parser.add_argument("a", help="reference report (JSON) or directory")
    parser.add_argument("b", help="report (JSON) or directory to compare")
    parser.add_argument("--rtol", type=float, default=1e-9,
                        help="largest allowed relative change (default 1e-9)")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="largest absolute change allowed regardless of "
                             "--rtol (default 0)")
    args = parser.parse_args(argv)
    dir_a, dir_b = Path(args.a), Path(args.b)
    if dir_a.is_dir() != dir_b.is_dir():
        parser.error("compare two reports or two directories")
    if not dir_a.is_dir():
        return 0 if _compare_files(dir_a, dir_b, args) else 1
    names = sorted({p.name for d in (dir_a, dir_b)
                    for p in d.glob("*-report.json")})
    ok = True
    for name in names:
        print(f"== {name}")
        if not (dir_a / name).exists() or not (dir_b / name).exists():
            print(f"only in {'A' if (dir_a / name).exists() else 'B'}")
            ok = False
            continue
        ok = _compare_files(dir_a / name, dir_b / name, args) and ok
    return 0 if ok else 1


def _compare_files(path_a, path_b, args) -> bool:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    return compare(a, b, args.rtol, args.atol)


if __name__ == "__main__":
    sys.exit(main())

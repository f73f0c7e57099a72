"""Run every semiperturb subcommand at both profiles into one tree.

    python3 tools/all_reports.py OUT_DIR

Each subcommand runs at ``--profile fast`` into ``OUT_DIR/fast`` and at
``--profile full`` into ``OUT_DIR/full``, one fresh interpreter per run,
importing the package from the ``src/`` of the checkout this file sits
in.  One line per run gives its exit status; a failed run's stderr
follows it.  The exit status is 1 when any run exits nonzero, else 0.

Two trees made this way, say from two checkouts, compare with
``tools/report_diff.py OUT_A/fast OUT_B/fast`` (and ``full``) or, file
by file, with ``cmp``.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROFILES = ("fast", "full")


def _subcommands():
    sys.path.insert(0, str(SRC))
    from semiperturb.cli import SUBCOMMANDS
    return SUBCOMMANDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", metavar="OUT_DIR")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    subcommands = _subcommands()
    failed = 0
    for profile in PROFILES:
        out = Path(args.out_dir) / profile
        for sub in subcommands:
            proc = subprocess.run(
                [sys.executable, "-m", "semiperturb.cli", sub,
                 "--profile", profile, "--out", str(out)],
                env=env, capture_output=True, text=True)
            print(f"{profile} {sub}: exit {proc.returncode}")
            if proc.returncode:
                sys.stdout.write(proc.stderr)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

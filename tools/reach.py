"""List the library functions that no report, workload or criterion enters.

    python3 tools/reach.py

Three drivers run in this process under one ``sys.setprofile`` recorder:

* every CLI subcommand at ``--profile fast`` and ``--profile full``
  (the ten runs of ``tools/all_reports.py``), into a temporary
  directory;
* one pass of each ``bench/run.py`` workload at seed 7;
* ``tests/test_acceptance.py`` under pytest.

The package is imported from the ``src/`` of the checkout this file
sits in.  Each ``def`` under ``src/semiperturb`` that none of the
drivers entered gets one line, ``module.qualname  N lines`` (N counts
its decorators, docstring and body), and a last line gives the totals,
``N functions, L lines never entered, S lines in src/``, S the line
count of the package's modules as ``wc -l src/semiperturb/*.py`` gives
it, so one command gives both of a change's size figures.
A function nested in an unentered one is not listed on its own: its
lines are already in its parent's count.  The exit status is 1 when a
driver fails, since the listing would then overstate what is unused,
and 0 otherwise.
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "semiperturb"
SEED = 7


@contextlib.contextmanager
def recording():
    """Collect the (file, first line) of every Python function this
    thread enters in the block."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    entered = set()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield entered
    finally:
        sys.setprofile(previous)
        entered.update((str(Path(c.co_filename).resolve()), c.co_firstlineno)
                       for c in codes)


def functions():
    """(module.qualname, file, first line, last line) of every function
    defined under the package, outermost first; the first line is that
    of its first decorator, as in the code object."""
    out = []

    def visit(node, prefix, path, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                name = prefix + child.name
                out.append((f"{module}.{name}", path, first, child.end_lineno))
                visit(child, name + ".<locals>.", path, module)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path, module)
            else:
                visit(child, prefix, path, module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "", str(path.resolve()),
              path.stem)
    return out


def unreached(entered):
    """[(module.qualname, lines)] of the functions not in ``entered``,
    leaving out those nested in an unreached function."""
    out, skip_to = [], None
    for name, path, first, last in functions():
        if skip_to is not None and skip_to[0] == path and first <= skip_to[1]:
            continue
        if (path, first) not in entered:
            out.append((name, last - first + 1))
            skip_to = path, last
    return out


def src_lines() -> int:
    """The newlines in the package's modules, as ``wc -l`` counts them."""
    return sum(path.read_text().count("\n")
               for path in PACKAGE.glob("*.py"))


def listing(rows) -> str:
    width = max((len(name) for name, _ in rows), default=0)
    lines = [f"{name:<{width}}  {n} lines" for name, n in rows]
    lines.append(f"{len(rows)} functions, "
                 f"{sum(n for _, n in rows)} lines never entered, "
                 f"{src_lines()} lines in src/")
    return "\n".join(lines)


def _reports():
    from semiperturb import cli
    with tempfile.TemporaryDirectory() as tmp:
        for profile in ("fast", "full"):
            for sub in cli.SUBCOMMANDS:
                code = cli.main([sub, "--profile", profile,
                                 "--out", str(Path(tmp) / profile)])
                if code:
                    raise RuntimeError(f"{sub} --profile {profile} "
                                       f"exited {code}")


def _workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs
    import workloads
    for name, run in workloads.PASSES.items():
        units, _ = run(inputs.make_inputs(name, SEED))
        failed = [u.id for u in units if u.misses()]
        if failed:
            raise RuntimeError(f"workload {name}: units {failed} failed")


def _acceptance():
    import pytest
    code = pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q",
                        "-p", "no:cacheprovider", "--rootdir", str(ROOT)])
    if code:
        raise RuntimeError(f"tests/test_acceptance.py exited {code}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    try:
        with recording() as entered, \
                contextlib.redirect_stdout(io.StringIO()):
            for driver in (_reports, _workloads, _acceptance):
                driver()
    except RuntimeError as exc:
        print(f"driver failed: {exc}", file=sys.stderr)
        return 1
    print(listing(unreached(entered)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

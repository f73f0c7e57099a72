"""The benchmark's traced run wraps library functions by name.

``bench/spans.py`` lists them in ``SPANNED``; one that no longer resolves
breaks ``bench/run.py --trace 1``.  The file is read and executed here,
never imported through the import system, so nothing is written under
``bench/``.
"""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    mod = types.ModuleType("bench_spans")
    mod.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_every_spanned_name_resolves():
    spans = _spans_module()
    assert spans.SPANNED
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.SPANNED
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    # counted rather than spanned
    assert callable(spans.semigroup.MatrixSystem.propagator)

"""Benchmark: time to a verified result, next to the accuracy it bought.

Run from the root of a source checkout (nothing is installed; the
library is imported from ``src/`` the way the tier-1 tests do it)::

    python3 bench/run.py --workload matrix-oracle --seed 1 \
        --seconds 38 --trace 0

``--trace 0`` repeats untraced passes of the workload for about
``--seconds`` and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer
metrics of ``bench/spans.py`` plus the tracing overhead.  Every unit is
checked against its independent route after the timed region.  A table
of every metric with its unit goes to standard output, the last line is
one JSON object, and a full record (provenance, per-pass times, unit
verdicts, spans) is written to ``bench/out/``.  The exit status is 0
when every check passed, 1 when one failed, and 2 when the library
cannot be imported from this checkout.  See ``bench/NOTES.md``.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREADS = "1"
SETUP_SAMPLES = 7
# The reference kernel's loop steps, array length and sweeps, and the
# CPU time it is scaled to; see _reference and "Noise" in NOTES.md.
REFERENCE_STEPS = 100000
REFERENCE_SWEPT = 1 << 20
REFERENCE_SWEEPS = 22
REFERENCE_S = 0.02
PROBE_TIMEOUT_S = 120
WORKLOADS = ("matrix-oracle", "transport-refine", "transport-checks",
             "implemented-lift")
CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")

# The library applies SEMIPERTURB_THREADS to the BLAS variables on its
# first import, unless they are already set; clear them so its cap holds.
os.environ["SEMIPERTURB_THREADS"] = THREADS
for _key in CAP_VARS:
    os.environ.pop(_key, None)
sys.path.insert(0, str(SRC))
_SWEPT = None


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _reference():
    """CPU seconds of a fixed kernel that calls no library code.

    Its work never changes, so its time follows only the speed the
    shared machine gives this process at the moment.  It has two parts:
    a pure-Python loop, which slows more than the passes when the
    machine slows, and in-place numpy sweeps over an 8 MB array, which
    slow less; their sum slows about as much as the passes do.  Timings
    are scaled by ``REFERENCE_S`` over the time of the kernel runs next
    to them.
    """
    import numpy as np
    global _SWEPT
    if _SWEPT is None:
        _SWEPT = np.ones(REFERENCE_SWEPT)
    start = time.process_time()
    total, recent = 0, []
    for i in range(REFERENCE_STEPS):
        total += (i * 7) % 13
        recent.append(total)
        if len(recent) > 100:
            recent = recent[50:]
    for _ in range(REFERENCE_SWEEPS):
        _SWEPT += 1.0
    return time.process_time() - start


def _set_up(workload, seed):
    """Import the library and build the seeded inputs.

    Returns the CPU seconds this took, scaled by the reference kernel
    run right after it, and the raw CPU seconds.
    """
    start = time.process_time()
    import semiperturb
    import semiperturb.cli  # noqa: F401  (the report layer is timed too)
    import inputs
    inputs.make_inputs(workload, seed)
    elapsed = time.process_time() - start
    where = Path(semiperturb.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"semiperturb imported from {where}, not {SRC}")
    return elapsed * REFERENCE_S / _reference(), elapsed


def _setup_seconds(args, first):
    """Median set-up time of this process and fresh probe processes."""
    samples = [first[0]]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-2]))
    return statistics.median(samples), samples


def _git_head():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _provenance(args):
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_head": _git_head(),
        "threads": {k: os.environ.get(k)
                    for k in ("SEMIPERTURB_THREADS",) + CAP_VARS},
    }


# ---------------------------------------------------------------------------
# passes


class Clock:
    """CPU time of a pass, split at unit boundaries and scaled.

    The reference kernel runs at the start, at every split and at the
    end, outside the measured time.  Each segment between two kernel
    runs is scaled by ``REFERENCE_S`` over their mean time, so a segment
    run while the shared machine was slow counts as much as one run
    while it was fast.  See "Noise" in NOTES.md.
    """

    def __init__(self):
        self.segments, self.walls = [], []
        self.refs = [_reference()]
        self.mark = time.process_time(), time.perf_counter()

    def split(self):
        cpu, wall = time.process_time(), time.perf_counter()
        self.segments.append(cpu - self.mark[0])
        self.walls.append(wall - self.mark[1])
        self.refs.append(_reference())
        self.mark = time.process_time(), time.perf_counter()

    def scaled(self):
        return sum(seg * REFERENCE_S * 2 / (before + after) for seg, before,
                   after in zip(self.segments, self.refs, self.refs[1:]))


class Pass:
    """One timed pass and what it produced.

    ``cpu`` is the CPU time of the pass and ``wall`` its wall time, both
    without the reference kernel runs.  The run is single-threaded, so
    without contention the two agree; on a shared machine wall time also
    counts the time other tenants held the core.  ``seconds`` is the
    scaled CPU time of ``Clock``; it is what ``run_s`` reports.  See
    "End-to-end metrics" in NOTES.md.
    """

    def __init__(self, traced, clock, units, rendering):
        self.traced = traced
        self.cpu = sum(clock.segments)
        self.wall = sum(clock.walls)
        self.seconds = clock.scaled()
        self.reference = statistics.median(clock.refs)
        self.units = units
        self.rendering = rendering
        self.digest = hashlib.sha256(
            (repr([(u.id, u.gap, u.order, u.checks, u.error) for u in units])
             + (rendering or "")).encode()).hexdigest()


def _one_pass(args, tracer=None):
    import inputs
    import workloads
    data = inputs.make_inputs(args.workload, args.seed)
    run = workloads.PASSES[args.workload]
    patched = tracer.installed(workloads) if tracer \
        else contextlib.nullcontext()
    clock = Clock()
    workloads.after_unit = clock.split
    try:
        with patched:
            units, rendering = run(data)
            clock.split()
    finally:
        workloads.after_unit = None
    return Pass(tracer is not None, clock, units, rendering)


def _measure(args):
    """Untraced passes, alternated with traced ones under ``--trace 1``.

    Stops when one more round would end after ``--seconds``.
    """
    import spans
    passes, tracers = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(_one_pass(args))
        if args.trace:
            tracers.append(spans.Tracer())
            passes.append(_one_pass(args, tracers[-1]))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            return passes, tracers


# ---------------------------------------------------------------------------
# metrics


def _digits(gap):
    """Correct digits of a gap: -log10, so a smaller gap reads higher.

    A zero gap reads as 17 digits, the precision of a double; no gap at
    all (every unit refused) reads as None.
    """
    return None if gap is None else -math.log10(max(gap, 1e-17))


def _accuracy(units):
    """Accuracy metrics of one pass.

    Off-lattice units get their own figures; a workload without any
    reports its all-units figures there, so every workload carries
    every metric.
    """
    def worst(us):
        gaps = [u.gap for u in us if u.gap is not None]
        orders = [u.order for u in us if u.order is not None]
        return (max(gaps) if gaps else None, min(orders) if orders else None)

    gap, order = worst([u for u in units if u.lattice])
    off_gap, off_order = worst([u for u in units if not u.lattice])
    return {
        "oracle_gap.max": (_digits(gap), "digits"),
        "oracle_gap.offlattice": (
            _digits(gap if off_gap is None else off_gap), "digits"),
        "order.min": (order, "order"),
        "order.offlattice": (order if off_order is None else off_order,
                             "order"),
    }


def _exact_counts(tracer):
    return {k: v for k, v in tracer.layer_metrics().items()
            if isinstance(v, int)}


def _metrics(args, passes, tracers, setup_s):
    run_s = statistics.median(p.seconds for p in passes if not p.traced)
    if not args.trace:
        out = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        out.update(_accuracy(passes[0].units))
        return out
    import spans
    per_pass = [t.layer_metrics() for t in tracers]
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        value = values[0] if isinstance(values[0], int) \
            else statistics.median(values)
        out[key] = (value, spans.unit_of(key))
    traced_s = statistics.median(p.seconds for p in passes if p.traced)
    out["trace.run_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - run_s, "s")
    out["trace.spans"] = (len(tracers[0].spans), "count")
    return out


def _gate(passes, tracers):
    """Unit verdicts plus the determinism self-check across passes."""
    attempted = failed = 0
    misses = []
    for n, p in enumerate(passes):
        for unit in p.units:
            attempted += 1
            why = unit.misses()
            if why:
                failed += 1
                misses.extend(f"pass {n} {unit.id}: {w}" for w in why)
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        misses.append(f"passes disagree: {len(digests)} distinct results")
    counts = [_exact_counts(t) for t in tracers]
    if any(c != counts[0] for c in counts[1:]):
        misses.append("traced passes disagree on exact counts")
    return attempted, failed, misses


def _write_record(args, record, tracers):
    OUT.mkdir(exist_ok=True)
    if tracers:
        tracer = tracers[0]
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans"] = {
            "fields": ["name", "start_s", "end_s", "parent", "unit",
                       "self_s"],
            "rows": [[n, round(s - origin, 9), round(e - origin, 9), p, u,
                      round(own, 9)]
                     for n, s, e, p, u, own in tracer.spans],
        }
        record["counts"] = dict(tracer.counts)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    return path


def main(argv=None):
    args = _parse(argv)
    try:
        first_setup = _set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import semiperturb from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(first_setup[0]), repr(first_setup[1]))
        return 0
    setup_s, setup_samples = (first_setup[0], [first_setup[0]]) \
        if args.trace \
        else _setup_seconds(args, first_setup)
    import scipy.linalg  # noqa: F401  (the oracle, imported untimed)

    passes, tracers = _measure(args)
    attempted, failed, misses = _gate(passes, tracers)
    metrics = _metrics(args, passes, tracers, setup_s)
    correct = not misses
    provenance = _provenance(args)

    for key, value in provenance.items():
        print(f"# {key}: {value}")
    print(f"# passes: {len(passes)} "
          f"(scaled {', '.join(f'{p.seconds:.3f}' for p in passes)} s; "
          f"CPU {', '.join(f'{p.cpu:.3f}' for p in passes)} s; "
          f"reference {', '.join(f'{p.reference:.4f}' for p in passes)} s; "
          f"wall {', '.join(f'{p.wall:.3f}' for p in passes)} s); "
          f"digest {passes[0].digest[:16]}")
    print(f"# units: {attempted} attempted, {failed} failed, "
          f"failed_frac {failed / attempted}")
    for line in misses:
        print(f"# FAIL {line}")
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value!r:>24} {unit}")

    record = {
        "provenance": provenance,
        "setup_samples_s": setup_samples,
        "passes": [{"traced": p.traced, "scaled_s": p.seconds, "cpu_s": p.cpu,
                    "wall_s": p.wall, "reference_s": p.reference,
                    "digest": p.digest} for p in passes],
        "rendering_sha256": [hashlib.sha256(p.rendering.encode()).hexdigest()
                             if p.rendering is not None else None
                             for p in passes],
        "units": [{"id": u.id, "lattice": u.lattice, "gap": u.gap,
                   "order": u.order, "checks": u.checks, "error": u.error,
                   "misses": u.misses()} for u in passes[0].units],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "misses": misses,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(f"# record: {_write_record(args, record, tracers)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

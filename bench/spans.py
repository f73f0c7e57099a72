"""Spans and counters around calls into semiperturb's public functions.

The library has no tracing of its own, so the traced run wraps public
functions from outside.  ``cli``, ``transport`` and the benchmark's own
``workloads`` bind imported names at import time, so a function is
replaced in every module that holds it, and methods on their class.
``Tracer.installed`` restores every original on exit.

A span is ``(name, start, end, parent, unit, self)`` in process CPU
seconds, the clock ``run_s`` uses: ``parent`` is the
index of the enclosing span (-1 at top level), ``unit`` the benchmark
unit that was running, and ``self`` the duration minus the time covered
by child spans.  Spans stay in memory until the benchmark writes them
out.  A recursive call inside an open span of the same function is not
spanned again.  ``MatrixSystem.propagator`` runs some 10^5 times per
matrix pass, so it is only counted; ``expm`` calls made while it runs
are counted as cache misses.
"""

import collections
import contextlib
import functools
import sys
import time

from semiperturb import functions, implemented, perturbation, semigroup
from semiperturb import cli, transport


def _to_grid(counts, args, kwargs, result):
    counts["functions.to_grid.nodes"] += result.count


def _sample_sided(counts, args, kwargs, result):
    counts["functions.sample_sided.points"] += result[0].size


def _oracle_weights(counts, args, kwargs, result):
    counts["transport.oracle_weights.steps"] += len(result) - 1


def _segment(counts, args, kwargs, result):
    counts["perturbation.segments"] += 1
    counts["perturbation.terms"] += result[1].terms_used


def _rendered(counts, args, kwargs, result):
    counts["cli.report.bytes"] += len(result.encode())


def _csv_written(counts, args, kwargs, result):
    # the benchmark hands emit_convergence a fresh StringIO
    counts["cli.report.bytes"] += len(args[1].getvalue().encode())


# (owner, attribute, group, reader) for every spanned public function.
# The group is the metric prefix its calls and self time go to; the
# reader, if any, adds exact work counts from the call and its result.
SPANNED = (
    (functions, "to_grid", "functions.to_grid", _to_grid),
    (functions, "sample_sided", "functions.sample_sided", _sample_sided),
    (functions.BoundedMeasure, "pair", "functions.pair", None),
    (functions.PiecewiseFunction, "translate", "functions.translate", None),
    (semigroup, "expm", "semigroup.expm", None),
    (semigroup.MatrixSystem, "__init__", "semigroup.system_init", None),
    (semigroup.TranslationSystem, "__init__", "semigroup.system_init", None),
    (perturbation, "neumann_semigroup", "perturbation.series", None),
    (perturbation, "neumann_nodes", "perturbation.series", _segment),
    (perturbation.PerturbationOperator, "analytic_volterra_bound",
     "perturbation.guard", None),
    (perturbation, "volterra_trajectory", "perturbation.volterra", None),
    (perturbation, "volterra_apply", "perturbation.volterra", None),
    (perturbation, "volterra_norm_estimate", "perturbation.volterra", None),
    (perturbation, "varpar_residual", "perturbation.checks", None),
    (perturbation, "admissibility_check", "perturbation.checks", None),
    (perturbation, "generator_check", "perturbation.checks", None),
    (perturbation, "identity_check", "perturbation.checks", None),
    (perturbation, "comparison_check", "perturbation.checks", None),
    (perturbation, "translation_probes", "perturbation.checks", None),
    (transport, "oracle_weights", "transport.oracle_weights",
     _oracle_weights),
    (transport, "oracle_solution", "transport.oracle_solution", None),
    (transport, "run_perturbed", "transport.run_perturbed", None),
    (transport, "engine_vs_oracle", "transport.driver", None),
    (transport, "refinement_study", "transport.driver", None),
    (transport, "comparison_curve", "transport.driver", None),
    (transport, "make_system", "transport.driver", None),
    (transport, "build_rank_one", "transport.driver", None),
    (transport, "build_domain_function", "transport.driver", None),
    (implemented, "perturbed_implemented", "implemented.perturbed", None),
    (implemented, "lift_perturbation", "implemented.lift", None),
    (implemented, "extract_perturbation", "implemented.lift", None),
    (implemented.ImplementedSemigroup, "__init__", "implemented.checks",
     None),
    (implemented, "comparison_equivalence", "implemented.checks", None),
    (implemented, "euler_check", "implemented.checks", None),
    (implemented, "superop_norm", "implemented.checks", None),
    (cli, "deterministic_json", "cli.report", _rendered),
    (cli, "emit_convergence", "cli.report", _csv_written),
)

LAYERS = ("functions", "semigroup", "perturbation", "transport",
          "implemented", "cli")


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.unit = None
        self._open = []          # [span index, time covered by children]
        self._in_propagator = 0

    def _spanned(self, name, fn, reader):
        tracer = self
        depth = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            if depth:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._open[-1][0] if tracer._open else -1
            tracer.spans.append(None)
            tracer._open.append([idx, 0.0])
            depth += 1
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                depth -= 1
                _, covered = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][1] += end - start
                tracer.spans[idx] = (name, start, end, parent, tracer.unit,
                                     end - start - covered)
            tracer.counts[name + ".calls"] += 1
            if reader is not None:
                reader(tracer.counts, args, kwargs, result)
            if name == "semigroup.expm" and tracer._in_propagator:
                tracer.counts["semigroup.propagator.misses"] += 1
            return result
        return wrapper

    def _counted_propagator(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts["semigroup.propagator.calls"] += 1
            tracer._in_propagator += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_propagator -= 1
        return wrapper

    def _unit_marker(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(unit, body):
            tracer.unit = unit.id
            try:
                return fn(unit, body)
            finally:
                tracer.unit = None
        return wrapper

    @contextlib.contextmanager
    def installed(self, bench):
        """Wrap every target in the package and in the ``bench`` module.

        ``bench.run_unit(unit, body)`` is wrapped as well, so that each
        span carries the id of the unit it ran for.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == "semiperturb" or name.startswith("semiperturb.")]
        modules.append(bench)
        targets = [(owner, attr,
                    self._spanned(group, getattr(owner, attr), reader))
                   for owner, attr, group, reader in SPANNED]
        targets.append((semigroup.MatrixSystem, "propagator",
                        self._counted_propagator(
                            semigroup.MatrixSystem.propagator)))
        targets.append((bench, "run_unit", self._unit_marker(bench.run_unit)))
        patches = []
        try:
            for owner, attr, wrapper in targets:
                original = getattr(owner, attr)
                holders = [owner] if isinstance(owner, type) \
                    or owner is bench else \
                    [m for m in modules if getattr(m, attr, None) is original]
                for holder in holders:
                    patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    def layer_metrics(self):
        """Per-layer figures of everything recorded so far.

        Counts are exact; ``.s`` figures are summed self time in seconds.
        """
        self_s = collections.Counter()
        for name, _, _, _, _, own in self.spans:
            self_s[name] += own
        c = self.counts
        segments = c["perturbation.segments"]
        props = c["semigroup.propagator.calls"]
        out = {}

        def group(name, *fields):
            for f in fields:
                out[f"{name}.{f}"] = float(self_s[name]) if f == "s" \
                    else c[f"{name}.{f}"]

        group("functions.to_grid", "calls", "nodes", "s")
        group("functions.sample_sided", "calls", "points", "s")
        group("functions.pair", "calls", "s")
        group("functions.translate", "calls", "s")
        group("semigroup.expm", "calls", "s")
        out["semigroup.propagator.calls"] = props
        out["semigroup.propagator.miss_ratio"] = \
            c["semigroup.propagator.misses"] / props if props else 0.0
        group("semigroup.system_init", "calls", "s")
        out["perturbation.segments"] = segments
        out["perturbation.terms"] = c["perturbation.terms"]
        out["perturbation.terms_per_segment"] = \
            c["perturbation.terms"] / segments if segments else 0.0
        group("perturbation.series", "s")
        group("perturbation.guard", "calls", "s")
        group("perturbation.volterra", "calls", "s")
        group("perturbation.checks", "s")
        group("transport.oracle_weights", "calls", "steps", "s")
        group("transport.oracle_solution", "calls", "s")
        group("transport.run_perturbed", "calls", "s")
        group("implemented.perturbed", "calls", "s")
        group("implemented.lift", "s")
        group("cli.report", "calls", "bytes", "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")))
        return out


def unit_of(metric):
    """Unit of a per-layer metric name."""
    if metric.endswith(".s") or metric.endswith("self_s"):
        return "s"
    if metric.endswith("miss_ratio"):
        return "ratio"
    if metric.endswith("terms_per_segment"):
        return "terms/segment"
    return "count"

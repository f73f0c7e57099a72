"""Command line experiment runner.

Each subcommand drives one family of checks and writes a JSON report
listing every assertion with its measured value, bound and pass flag,
plus CSV data where the experiment produces a curve.  Exit status is 0
when all assertions pass, 1 when any fails, 2 on a bad configuration.

Reports are byte-reproducible: the field order is fixed, floats print
at 17 significant digits, and nothing environment-dependent (paths,
times) enters the payload.  Seeded randomness goes through numpy's
PCG64 generator, so the same config and seed reproduce bit-identical
probe data across platforms.

The SEMIPERTURB_THREADS environment variable caps BLAS parallelism; it
is applied on package import, before numpy spins up its thread pools.
Report assembly itself is single-threaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import (
    ConfigError,
    GridTooLarge,
    GuardViolation,
    NonConvergence,
    NonMultiplicative,
    StepMismatch,
)
from .functions import BoundedMeasure, piecewise_from_dict, tent
from .implemented import (
    ImplementedSemigroup,
    SuperOperator,
    comparison_equivalence,
    euler_check,
    extract_perturbation,
    hille_yosida_check,
    lift_perturbation,
    perturbed_implemented,
    pseudoresolvent_extract,
    random_stable_pair,
)
from .perturbation import (
    PerturbationOperator,
    admissibility_check,
    neumann_semigroup,
    translation_probes,
)
from .semigroup import MatrixSystem, expm, opnorm2
from .transport import (
    TransportProblem,
    build_rank_one,
    canonical_profile,
    canonical_regularizer,
    make_system,
    oracle_solution,
    refinement_study,
    run_perturbed,
    sawtooth_profile,
)

# ---------------------------------------------------------------------------
# deterministic serialization

def _json_atom(v) -> str:
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not math.isfinite(f):
            raise ValueError(f"non-finite value in report: {f!r}")
        return format(f, ".17g")
    raise TypeError(f"cannot serialize {type(v).__name__}")


def deterministic_json(obj, indent: int = 0) -> str:
    """Render with fixed field order and 17-significant-digit floats.

    The stdlib encoder formats floats by shortest round trip, which is
    stable too, but pinning the digit count keeps the byte layout
    independent of which representable value a computation happens to
    hit.  Dict insertion order is the field order.
    """
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: "
                f"{deterministic_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        rows = [f"{inner}{deterministic_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _json_atom(obj)


def emit_convergence(rows, fh, floor=0.0) -> None:
    """CSV rows (dt, error, observed order) from a refinement study,
    written to the open text handle ``fh``.

    Orders come from successive log ratios.  A row whose error is at
    most ``floor`` is marked ``exact``, since no finite order describes
    it, and a coarser error below the floor is taken at the floor: with
    the ``floor`` of :func:`~semiperturb.transport.refinement_study`, the
    rows marked exact are the levels that study reads as exact.  The
    default 0.0 marks only a zero row, and the row after a zero row gets
    no order.  Needs at least three levels for the orders to mean
    anything, and errors that are nonnegative and finite.
    """
    rows = [(float(dt), float(err)) for dt, err in rows]
    if len(rows) < 3:
        raise ValueError(f"need at least 3 refinement levels, got {len(rows)}")
    if not all(a[0] > b[0] > 0 for a, b in zip(rows, rows[1:])):
        raise ValueError("step sizes must be positive and strictly decreasing")
    if not all(0 <= err < math.inf for _, err in rows):
        raise ValueError("errors must be nonnegative and finite")
    fh.write("dt,error,order\n")
    prev = None
    for dt, err in rows:
        if err <= floor:
            order = "exact"
        elif prev is None or max(prev[1], floor) == 0.0:
            order = ""
        else:
            order = format(math.log(max(prev[1], floor) / err)
                           / math.log(prev[0] / dt), ".17g")
        fh.write(f"{dt:.17g},{err:.17g},{order}\n")
        prev = (dt, err)


# ---------------------------------------------------------------------------
# configuration

def _float(value) -> float:
    """A JSON number as a float; an integer past the float range is inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _as_pos_float(field, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    f = _float(value)
    if not math.isfinite(f) or f <= 0:
        raise ConfigError(field, f"must be positive and finite, got {value!r}")
    return f


def _as_nonneg_int(field, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if value < 0:
        raise ConfigError(field, f"must be >= 0, got {value}")
    return value


def _as_finite(field, v, where=""):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(field, f"{where}non-numeric value {v!r}")
    f = _float(v)
    if not math.isfinite(f):
        raise ConfigError(field, f"{where}non-finite value {v!r}")
    return f


def _as_atoms(field, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(field, "expected a list of [location, weight] pairs")
    atoms = []
    for i, pair in enumerate(value):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError(field, f"entry {i} is not a [location, weight] pair")
        atoms.append(tuple(_as_finite(field, v, f"entry {i} has ")
                           for v in pair))
    return atoms


# the flags shared by the subcommands, each offered where its config key
# is read
_FLAGS = {
    "tol": dict(type=float, metavar="X",
                help="primary tolerance (minimum observed order for "
                     "convergence)"),
    "seed": dict(type=int, metavar="N", help="PCG64 seed for probe data"),
    "dt": dict(type=float, metavar="X", help="time step"),
    "grid_spacing": dict(type=float, metavar="X", help="spatial step"),
    "t0": dict(type=float, metavar="X", help="series horizon per segment"),
    "profile": dict(choices=["fast", "full"],
                    help="experiment size (default fast)"),
}


def load_config(args: argparse.Namespace) -> dict:
    """Merge defaults, the optional JSON config file, then explicit flags.

    A config key the subcommand does not read is refused by name."""
    sub = args.subcommand
    keys = _SUBCOMMANDS[sub][2]
    cfg: dict = {"subcommand": sub, "profile": "fast"}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}")
        except ValueError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config", "top level must be a JSON object")
        for key in file_cfg:
            if key not in keys:
                raise ConfigError(key, f"unknown field for {sub}")
        cfg.update(file_cfg)
    for key in _FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if cfg["profile"] not in ("fast", "full"):
        raise ConfigError("profile", f"must be fast or full, got {cfg['profile']!r}")
    if "seed" in keys:
        cfg["seed"] = _as_nonneg_int("seed", cfg.get("seed", 0))
    for key in ("tol", "dt", "grid_spacing", "t0"):
        if key in cfg:
            cfg[key] = _as_pos_float(key, cfg[key])
    return cfg


def _as_piecewise(field, value):
    try:
        f = piecewise_from_dict(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(field, f"bad piecewise definition: {exc}")
    for v in f.breakpoints + [c for p in f.pieces for c in p]:
        _as_finite(field, v)
    return f


def _resolve_transport_problem(cfg) -> TransportProblem:
    atoms = _as_atoms("atoms", cfg.get("atoms", [[0.0, 1.0]]))
    g_sel = cfg.get("g", "canonical")
    if g_sel == "canonical":
        profile, reg = canonical_profile(), canonical_regularizer()
    elif g_sel == "sawtooth":
        profile, reg = sawtooth_profile(), None
    elif isinstance(g_sel, dict):
        profile, reg = _as_piecewise("g", g_sel), None
    else:
        raise ConfigError("g", "expected canonical, sawtooth, or a piecewise "
                               f"object, got {g_sel!r}")
    init_sel = cfg.get("initial", "tent")
    if init_sel == "tent":
        initial = tent()
    elif isinstance(init_sel, dict):
        initial = _as_piecewise("initial", init_sel)
    else:
        raise ConfigError("initial", f"expected tent or a piecewise object, "
                                     f"got {init_sel!r}")
    return TransportProblem(
        measure=BoundedMeasure(atoms=tuple(atoms)),
        profile=profile, initial=initial, regularizer=reg)


def _stock_transport_time(cfg) -> float:
    """The stock transport run's atoms and final time, for the keys the
    config leaves out: two atoms to t = 1 at ``--profile full``, one
    atom to t = 1/2 at fast.  Returns the final time; the atoms go into
    ``cfg``."""
    full = cfg["profile"] == "full"
    cfg.setdefault("atoms", [[0.0, 1.0], [0.3, 0.5]] if full
                   else [[0.0, 1.0]])
    return _as_pos_float("t", cfg.get("t", 1.0 if full else 0.5))


def _random_pair_recipe(cfg, dimension: int):
    """(n, shift, b_scale) for :func:`random_stable_pair`, defaulting to
    ``dimension``, 0.5 and 0.1."""
    n = _as_nonneg_int("dimension", cfg.get("dimension", dimension))
    if n < 2:
        raise ConfigError("dimension", f"must be >= 2, got {n}")
    shift = _as_pos_float("shift", cfg.get("shift", 0.5))
    b_scale = _as_pos_float("b_scale", cfg.get("b_scale", 0.1))
    return n, shift, b_scale


def _as_matrix(field, value) -> np.ndarray:
    """A square matrix given as a list of rows of finite numbers."""
    if not (isinstance(value, (list, tuple)) and value
            and all(isinstance(row, (list, tuple)) and len(row) == len(value)
                    for row in value)):
        raise ConfigError(field, "expected a square list of rows")
    return np.array([[_as_finite(field, v, f"row {i} has ") for v in row]
                     for i, row in enumerate(value)])


def _check(name: str, measured: float, bound: float, ok=None) -> dict:
    if ok is None:
        ok = measured <= bound
    return {"name": name, "measured": float(measured),
            "bound": float(bound), "pass": bool(ok)}


# ---------------------------------------------------------------------------
# subcommand runners; each returns (report_dict, csv_files)

def _run_matrix_demo(cfg):
    full = cfg["profile"] == "full"
    tol = cfg.get("tol", 1e-6)
    dt = cfg.get("dt", 1e-3)
    t0 = cfg.get("t0", 0.5)
    t_values = cfg.get("t_values", [0.5, 1.0, 2.0] if full else [0.5, 1.0])
    if not (isinstance(t_values, (list, tuple)) and t_values):
        raise ConfigError("t_values", "expected a nonempty list of times")
    t_values = [_as_pos_float("t_values", t) for t in t_values]
    if "matrix" in cfg or "perturbation" in cfg:
        if "matrix" not in cfg or "perturbation" not in cfg:
            raise ConfigError("matrix", "matrix and perturbation must be "
                                        "given together")
        A = _as_matrix("matrix", cfg["matrix"])
        B = _as_matrix("perturbation", cfg["perturbation"])
        if B.shape != A.shape:
            raise ConfigError("perturbation", f"shape {B.shape} does not "
                                              f"match matrix {A.shape}")
        pairs = [(None, A, B)]
    else:
        n, shift, b_scale = _random_pair_recipe(cfg, 4)
        count = _as_nonneg_int("systems", cfg.get("systems", 10 if full else 1))
        if count < 1:
            raise ConfigError("systems", "need at least one system")
        pairs = []
        for k in range(count):
            seed = cfg["seed"] + k
            A, B = random_stable_pair(n, seed, shift=shift, b_scale=b_scale)
            pairs.append((seed, A, B))

    checks, rows = [], []
    for seed, A, B in pairs:
        system = MatrixSystem(A)
        op = PerturbationOperator.matrix(B)
        target = MatrixSystem(A + B)
        guard = op.analytic_volterra_bound(system, t0)
        label = "explicit" if seed is None else f"seed{seed}"
        checks.append(_check(f"guard-{label}", guard, 1.0, ok=guard < 1.0))
        if guard >= 1.0:
            continue
        rng = np.random.default_rng(0 if seed is None else seed)
        x = rng.standard_normal(A.shape[0])
        x /= np.linalg.norm(x)
        for t in t_values:
            got = neumann_semigroup(system, op, x, t, t0, dt)
            gap = float(np.linalg.norm(got - target.propagator(t) @ x))
            checks.append(_check(f"oracle-gap-{label}-t{t:g}", gap, tol))
            rows.append((label, t, gap))

    def write_gaps(fh):
        fh.write("system,t,gap\n")
        for label, t, gap in rows:
            fh.write(f"{label},{t:.17g},{gap:.17g}\n")

    config_echo = {"profile": cfg["profile"], "seed": cfg["seed"],
                   "tol": tol, "dt": dt, "t0": t0,
                   "t_values": t_values,
                   "systems": len(pairs)}
    return config_echo, checks, {"matrix-demo-gaps.csv": write_gaps}


def _run_transport_demo(cfg):
    tol = cfg.get("tol", 1e-3)
    t0 = cfg.get("t0", 0.2)
    t = _stock_transport_time(cfg)
    dx = cfg.get("grid_spacing",
                 1e-3 if cfg["profile"] == "full" else 2e-3)
    problem = _resolve_transport_problem(cfg)

    # the rank-one guard reads no system: it is known before any grid
    op = build_rank_one(problem)
    guard = op.analytic_volterra_bound(None, t0)
    checks = [_check("guard", guard, 1.0, ok=guard < 1.0)]
    csvs = {}
    terms = segments = 0
    if guard < 1.0:
        run = run_perturbed(problem, t, dx, t0)
        oracle = oracle_solution(problem.measure, problem.profile,
                                 problem.initial, run.system, t)
        gap = float((run.state - oracle).seminorm(problem.window))
        checks.append(_check("oracle-gap", gap, tol))
        csvs = {"transport-demo-state.csv": run.state.to_csv,
                "transport-demo-oracle.csv": oracle.to_csv}
        terms, segments = run.diagnostics.terms_used, run.diagnostics.segments

    config_echo = {"profile": cfg["profile"], "tol": tol, "t": t,
                   "grid_spacing": dx, "t0": t0,
                   "atoms": [[a, w] for a, w in problem.measure.atoms],
                   "g": cfg.get("g", "canonical"),
                   "terms": terms, "segments": segments}
    return config_echo, checks, csvs


def _run_implemented_demo(cfg):
    full = cfg["profile"] == "full"
    tol = cfg.get("tol", 1e-6)
    dt = cfg.get("dt", 1e-3)
    t0 = cfg.get("t0", 0.5)
    t = _as_pos_float("t", cfg.get("t", 1.0))
    n, shift, b_scale = _random_pair_recipe(cfg, 4 if full else 3)
    seed = cfg["seed"]

    A, B = random_stable_pair(n, seed, shift=shift, b_scale=b_scale)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n))
    S /= opnorm2(S)
    impl = ImplementedSemigroup(MatrixSystem(A))
    K = lift_perturbation(B)

    checks = []
    got = perturbed_implemented(impl, K, S, t, t0, dt)
    gap = opnorm2(got - expm(t * (A + B)) @ S)
    checks.append(_check("perturbed-vs-exponential", gap, tol))

    round_trip = float(np.max(np.abs(extract_perturbation(K) - B)))
    checks.append(_check("extract-lift-roundtrip", round_trip, 0.0,
                         ok=round_trip == 0.0))

    w = rng.standard_normal((n, n))
    bad = SuperOperator.rank_one_functional(w, np.eye(n))
    defect = opnorm2(bad.as_dense() - np.kron(bad.apply(np.eye(n)), np.eye(n)))
    try:
        extract_perturbation(bad)
        rejected = False
    except NonMultiplicative:
        rejected = True
    checks.append(_check("non-multiplicative-rejected", defect, 1e-10,
                         ok=rejected and defect > 1e-10))

    dyadic = [2.0 ** -k for k in range(4, -1, -1)]
    comp = comparison_equivalence(MatrixSystem(A), MatrixSystem(A + B), dyadic)
    checks.append(_check("comparison-equality", comp["worst_gap"], 1e-10))

    def resolvent_fn(lam):
        return SuperOperator.left_multiplication(
            np.linalg.solve(lam * np.eye(n) - A, np.eye(n)))

    pr = pseudoresolvent_extract(resolvent_fn, 2.0, 5.0)
    checks.append(_check("pseudoresolvent", pr["residual"], 1e-10))

    # normal stable matrix from a seeded orthogonal conjugation
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = -1.0 - rng.random(n)
    An = Q @ np.diag(eigs) @ Q.T
    hy = hille_yosida_check(An, float(np.max(eigs)), 1.0, [1.0, 2.0, 4.0, 8.0])
    checks.append(_check("hille-yosida", hy["worst_ratio"], 1.0 + 1e-8))

    n_values = [1, 2, 4, 8, 16, 32] if full else [1, 2, 4, 8]
    eu = euler_check(SuperOperator.left_multiplication(A), t, np.eye(n),
                     n_values)
    residuals = [r["residual"] for r in eu["rows"]]
    worst_rise = max(b - a for a, b in zip(residuals, residuals[1:]))
    checks.append(_check("euler-decreasing", worst_rise, 0.0,
                         ok=eu["decreasing"]))

    def write_euler(fh):
        fh.write("n,residual\n")
        for row in eu["rows"]:
            fh.write(f"{row['n']},{row['residual']:.17g}\n")

    config_echo = {"profile": cfg["profile"], "seed": seed, "tol": tol,
                   "dimension": n, "shift": shift, "b_scale": b_scale,
                   "t": t, "t0": t0, "dt": dt}
    return config_echo, checks, {"implemented-demo-euler.csv": write_euler}


def _run_admissibility(cfg):
    t0 = cfg.get("t0", 0.2)
    dx = cfg.get("grid_spacing", 4e-3)
    problem = _resolve_transport_problem(cfg)
    system = make_system(problem, dx, t0, t0)
    op = build_rank_one(problem)
    probes = translation_probes(system, t0, dx)
    report = admissibility_check(system, op, t0, dx, probes)

    checks = [
        _check("smallness-analytic", report.smallness_analytic, 0.5,
               ok=report.smallness_pass),
        _check("smallness-observed", report.smallness_observed,
               report.smallness_analytic + 1e-12),
    ]
    config_echo = {"profile": cfg["profile"], "t0": t0, "grid_spacing": dx,
                   "atoms": [[a, w] for a, w in problem.measure.atoms],
                   "g": cfg.get("g", "canonical"),
                   "report": report.to_dict()}
    # the landing check is the regularized cross-check, and only a g
    # with a regularizer has that route
    if problem.regularizer is None:
        config_echo["regularized_cross_check"] = \
            "not run: g has no regularizer"
    elif report.escape is not None:
        # a probe's route left the state space: its curvature is the
        # measured value
        checks.insert(0, _check(
            "lands-in-state-space", report.escape.curvature,
            report.escape.threshold, ok=False))
    else:
        checks.insert(0, _check(
            "lands-in-state-space", report.worst_reconstruction_residual,
            50 * dx, ok=report.lands_in_state_space))
    return config_echo, checks, {}


def _run_convergence(cfg):
    min_order = cfg.get("tol", 1.8)
    t0 = cfg.get("t0", 0.2)
    t = _stock_transport_time(cfg)
    spacings = cfg.get("spacings", [5e-3, 2.5e-3, 1.25e-3, 6.25e-4]
                       if cfg["profile"] == "full" else [4e-3, 2e-3, 1e-3])
    if not isinstance(spacings, (list, tuple)):
        raise ConfigError("spacings", "expected a list of step sizes")
    spacings = [_as_pos_float("spacings", h) for h in spacings]
    if len(spacings) < 3:
        raise ConfigError("spacings",
                          f"need at least 3 refinement levels, got "
                          f"{len(spacings)}")
    if not all(a > b for a, b in zip(spacings, spacings[1:])):
        raise ConfigError("spacings", "must be strictly decreasing")
    problem = _resolve_transport_problem(cfg)

    study = refinement_study(problem, t, spacings, t0)
    checks = []
    for k, order in enumerate(study["orders"]):
        if not math.isfinite(order):
            # the finer gap at or below the study's floor (a zero gap
            # included); the CSV marks the same rows exact
            checks.append(_check(f"order-level{k + 1}-exact", 0.0, 0.0,
                                 ok=True))
        else:
            checks.append(_check(f"order-level{k + 1}", order, min_order,
                                 ok=order >= min_order))

    def write_csv(fh):
        emit_convergence([(r["spacing"], r["gap"]) for r in study["rows"]],
                         fh, floor=study["floor"])

    config_echo = {"profile": cfg["profile"], "min_order": min_order,
                   "t": t, "t0": t0, "spacings": spacings,
                   "atoms": [[a, w] for a, w in problem.measure.atoms],
                   "g": cfg.get("g", "canonical"),
                   "gaps": [r["gap"] for r in study["rows"]]}
    return config_echo, checks, {"convergence.csv": write_csv}


_SUBCOMMANDS = {
    # name: (runner, help, the config keys it reads)
    "matrix-demo": (
        _run_matrix_demo,
        "Neumann engine vs matrix exponential on seeded stable systems",
        ("tol", "seed", "dt", "t0", "profile", "dimension", "shift",
         "b_scale", "systems", "t_values", "matrix", "perturbation")),
    "transport-demo": (
        _run_transport_demo, "perturbed transport vs the renewal oracle",
        ("tol", "grid_spacing", "t0", "profile", "atoms", "g", "initial",
         "t")),
    "implemented-demo": (
        _run_implemented_demo,
        "operator-algebra correspondences and structural identities",
        ("tol", "seed", "dt", "t0", "profile", "dimension", "shift",
         "b_scale", "t")),
    "admissibility": (
        _run_admissibility,
        "landing, seminorm and smallness battery for the rank-one "
        "transport operator",
        ("grid_spacing", "t0", "profile", "atoms", "g")),
    "convergence": (
        _run_convergence, "grid refinement study with observed orders",
        ("tol", "t0", "profile", "atoms", "g", "t", "spacings")),
}
SUBCOMMANDS = tuple(_SUBCOMMANDS)


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiperturb",
        description="Perturbed-semigroup experiment runner; reports are "
                    "reproducible JSON plus CSV curves.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, keys) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON config file; flags override its fields")
        sp.add_argument("--out", metavar="DIR", default=".",
                        help="directory for report and CSV files")
        for key, options in _FLAGS.items():
            if key in keys:
                sp.add_argument("--" + key.replace("_", "-"), **options)
    return parser


def run(cfg: dict, out_dir: str) -> int:
    """Execute a resolved config, write artifacts, return the exit status."""
    runner = _SUBCOMMANDS[cfg["subcommand"]][0]
    config_echo, checks, csvs = runner(cfg)
    passed = all(c["pass"] for c in checks)
    report = {"schema": 1, "subcommand": cfg["subcommand"],
              "config": config_echo, "checks": checks, "passed": passed}

    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, f"{cfg['subcommand']}-report.json")
    # serialised first, so a failure never leaves an empty report
    text = deterministic_json(report) + "\n"
    with open(report_path, "w") as fh:
        fh.write(text)
    for name, writer in csvs.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            writer(fh)

    for c in checks:
        verdict = "PASS" if c["pass"] else "FAIL"
        print(f"{verdict} {c['name']}: measured {c['measured']:.6g} "
              f"bound {c['bound']:.6g}")
    print(f"report: {report_path}")
    return 0 if passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return run(cfg, args.out)
    except (ConfigError, StepMismatch, GridTooLarge) as exc:
        # each names a time, a step or a grid size the config chose
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GuardViolation, NonConvergence) as exc:
        print(f"engine refused the configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: every experiment is a subcommand over a JSON
config, with machine-readable outputs and a reproducibility manifest.

Subcommands: rho | sanov | cramer | tailbound | saa | superhedge | transport.
Shared flags: --config PATH, --out DIR, --seed U64, --threads N.
--threads is parsed and recorded in the manifest but has no effect: Monte
Carlo replications are drawn in blocks on one thread.
Exit codes: 0 ok, 2 config error, 3 numeric failure, 4 inconclusive
statistics.  Verbosity via the SANOV_DUAL_LOG environment variable.

Every run writes manifest.json (config hash, effective seed, versions,
timestamp) next to its outputs; rerunning with the same config and seed
reproduces every output byte-for-byte apart from the manifest timestamp.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import hashlib
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, dp, montecarlo as mc
from .cramer import (check_admissible, conjugate_pair, deviation_bound,
                     moment_norm)
from .laws import (EmpiricalLaw, FiniteSupportLaw, LawError, LogNormalLaw,
                   ParetoLaw, StudentTLaw)
from .losses import ExpLoss, LossError, PowerLoss, TabulatedLoss
from .penalties import (LpEntropy, RelativeEntropy, Robust, SetIndicator,
                        Shortfall, Transport)
from .risk import RESTARTS, generic_risk, risk_result
from .spaces import DENSE_CAP, Dist, FiniteSpace, SpaceError

log = logging.getLogger("sanovdual")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4

REPLICATIONS = 10000    # tailbound replications unless a config sets them


class ConfigError(Exception):
    """Invalid run configuration; the message points at the offending key."""


class InconclusiveError(Exception):
    """Statistics too weak to support a conclusion."""


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _num(value, path):
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        if s == "-inf":
            return -math.inf
        raise ConfigError(f"{path}: not a number: {value!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: integer too large for a float") \
                from None
        if not math.isnan(x):     # json.loads accepts NaN
            return x
    raise ConfigError(f"{path}: not a number: {value!r}")


def _bool(value, path):
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{path}: expected true or false, got {value!r}")


def _num_list(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of numbers")
    if set(map(type, value)) <= {float, int}:     # no bool, str or list
        try:
            out = list(map(float, value))
        except OverflowError:     # an int too large for a float; _num names it
            pass
        else:
            if not any(map(math.isnan, out)):
                return out
    return [_num(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _matrix(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a matrix (list of rows)")
    return [_num_list(row, f"{path}[{i}]") for i, row in enumerate(value)]


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")


def _kind(obj, path, what, keys, field="kind"):
    """The kind (the ``field``) of the config object ``obj``, checked
    first; then ``obj`` may hold only the keys of that kind, which ``keys``
    maps to its (required, optional) keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if field not in obj:
        raise ConfigError(f"{path}.{field}: missing required key")
    kind = obj[field]
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"{path}.{field}: unknown {what} {kind!r}")
    required, optional = keys[kind]
    _check_keys(obj, path, (field, *required), optional)
    return kind


def _dist(value, path, space=None):
    w = _num_list(value, path)
    if space is None:
        space = FiniteSpace.of_size(len(w))
    try:
        return Dist(space, np.asarray(w))
    except SpaceError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_loss(obj, path):
    kind = _kind(obj, path, "loss kind", {
        "exp": ((), ()), "power_plus": (("q",), ()),
        "tabulated": (("xs", "ys"), ("left_limit",))})
    try:
        if kind == "exp":
            return ExpLoss()
        if kind == "power_plus":
            return PowerLoss(_num(obj["q"], f"{path}.q"))
        return TabulatedLoss(tuple(_num_list(obj["xs"], f"{path}.xs")),
                             tuple(_num_list(obj["ys"], f"{path}.ys")),
                             _num(obj.get("left_limit", 0.0),
                                  f"{path}.left_limit"))
    except LossError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_spec(obj):
    kind = _kind(obj, "spec", "spec kind", {
        "relative_entropy": (("mu",), ()), "lp_entropy": (("mu", "p"), ()),
        "shortfall": (("mu", "loss"), ()), "robust": (("generators",), ()),
        "set_indicator": (("generators",), ()),
        "transport": (("mu", "cost"), ())})
    try:
        if kind == "relative_entropy":
            return RelativeEntropy(_dist(obj["mu"], "spec.mu"))
        if kind == "lp_entropy":
            return LpEntropy(_dist(obj["mu"], "spec.mu"),
                             _num(obj["p"], "spec.p"))
        if kind == "shortfall":
            return Shortfall(_dist(obj["mu"], "spec.mu"),
                             parse_loss(obj["loss"], "spec.loss"))
        if kind in ("robust", "set_indicator"):
            gens = obj["generators"]
            if not isinstance(gens, list) or not gens:
                raise ConfigError("spec.generators: need a nonempty list")
            space = FiniteSpace.of_size(len(_num_list(gens[0],
                                                      "spec.generators[0]")))
            dists = tuple(_dist(g, f"spec.generators[{i}]", space)
                          for i, g in enumerate(gens))
            return Robust(dists) if kind == "robust" else SetIndicator(dists)
        mu = _dist(obj["mu"], "spec.mu")
        return Transport(mu, np.asarray(_matrix(obj["cost"], "spec.cost")))
    except SpaceError as exc:
        raise ConfigError(f"spec: {exc}") from exc


def parse_simplex_function(obj, m):
    """(F, dF): a function of the law on m states and its gradient, rows
    in.  F maps a (B, m) array of laws to their (B,) values and dF to
    their (B, m) gradients; ``abs_well``'s reads 0 at its kink."""
    well = ((), ("coordinate", "center", "scale"))
    kind = _kind(obj, "F", "function kind", {
        "constant": ((), ("value",)), "linear": (("coeffs",), ()),
        "square_well": well, "abs_well": well})
    if kind == "constant":
        c = _num(obj.get("value", 0.0), "F.value")
        return lambda nu: np.full(len(nu), c), np.zeros_like
    if kind == "linear":
        coeffs = np.asarray(_num_list(obj["coeffs"], "F.coeffs"))
        if coeffs.shape != (m,):
            raise ConfigError(f"F.coeffs: expected {m} coefficients, "
                              f"got {len(coeffs)}")
        return lambda nu: nu @ coeffs, \
            lambda nu: np.broadcast_to(coeffs, nu.shape)
    coord = obj.get("coordinate", 0)
    if isinstance(coord, bool) or coord not in range(m):
        raise ConfigError("F.coordinate: expected an integer in "
                          f"[0, {m}), got {coord!r}")
    coord = int(coord)
    center = _num(obj.get("center", 0.5), "F.center")
    scale = _num(obj.get("scale", -1.0), "F.scale")
    e = np.eye(m)[coord]
    if kind == "square_well":
        return lambda nu: scale * (nu[:, coord] - center) ** 2, \
            lambda nu: 2.0 * scale * (nu[:, coord, None] - center) * e
    return lambda nu: scale * np.abs(nu[:, coord] - center), \
        lambda nu: scale * np.sign(nu[:, coord, None] - center) * e


def parse_law(obj):
    kind = _kind(obj, "law", "law kind", {
        "pareto": (("a",), ("centered",)), "student_t": (("df",), ()),
        "lognormal": (("sigma",), ("centered",)),
        "finite": (("atoms", "weights"), ()), "empirical": (("samples",), ())})
    if kind == "pareto":
        return ParetoLaw(_num(obj["a"], "law.a"),
                         _bool(obj.get("centered", True), "law.centered"))
    if kind == "student_t":
        return StudentTLaw(_num(obj["df"], "law.df"))
    if kind == "lognormal":
        return LogNormalLaw(_num(obj["sigma"], "law.sigma"),
                            _bool(obj.get("centered", True), "law.centered"))
    if kind == "finite":
        return FiniteSupportLaw(np.asarray(_num_list(obj["atoms"],
                                                     "law.atoms")),
                                np.asarray(_num_list(obj["weights"],
                                                     "law.weights")))
    return EmpiricalLaw(np.asarray(_num_list(obj["samples"],
                                             "law.samples")))


def _sampled_law(obj):
    """A law the Monte Carlo experiments can draw from."""
    law = parse_law(obj)
    if law.draw is None:
        raise ConfigError(f"law.kind: an {obj['kind']} law cannot be sampled")
    return law


def _grid(obj, path):
    _check_keys(obj, path, required=("lo", "hi", "count"))
    lo, hi = (_num(obj[end], f"{path}.{end}") for end in ("lo", "hi"))
    for end, x in zip(("lo", "hi"), (lo, hi)):
        if not math.isfinite(x):    # linspace would make NaN points
            raise ConfigError(f"{path}.{end}: a grid end must be finite, "
                              f"got {obj[end]!r}")
    count = _pos_int(obj["count"], f"{path}.count")
    if count > DENSE_CAP:
        raise ConfigError(f"{path}.count: {count} points exceed the dense "
                          f"cap of {DENSE_CAP}")
    if count < 2 or not hi > lo:
        raise ConfigError(f"{path}: need hi > lo and count >= 2")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{path}: hi - lo overflows a float")
    return np.linspace(lo, hi, count)


def _pos_int(value, path, low=1, bits=64):
    """An integral number in [low, 2^bits) (a positive integer below 2^64
    by default).

    Ints are compared exactly, never through a float, so a literal too
    large for a float is a config error, not an OverflowError."""
    n = int(value) if isinstance(value, float) and math.isfinite(value) \
        and value.is_integer() else value
    if isinstance(n, int) and not isinstance(n, bool) and \
            low <= n < 2 ** bits:
        return n
    raise ConfigError(f"{path}: expected an integer in [{low}, 2^{bits}), "
                      f"got {value!r}")


def _replications(value):
    """A Monte Carlo replication count; below ``mc.MIN_REPLICATIONS`` its
    Wilson intervals are too wide to conclude anything."""
    replications = _pos_int(value, "replications")
    if replications < mc.MIN_REPLICATIONS:
        raise InconclusiveError(f"replications: need at least "
                                f"{mc.MIN_REPLICATIONS}, got {replications}")
    return replications


def _schedule(value, bits=64):
    if not isinstance(value, list) or not value:
        raise ConfigError("schedule: expected a nonempty list of integers")
    return [_pos_int(v, f"schedule[{i}]", bits=bits)
            for i, v in enumerate(value)]


def _sample_schedule(value):
    """A Monte Carlo schedule: distinct sample sizes below 2^SAMPLE_BITS.
    A repeated n would draw its stream again, a copy and not a new point."""
    schedule = _schedule(value, bits=mc.SAMPLE_BITS)
    for i, n in enumerate(schedule):
        if n in schedule[:i]:
            raise ConfigError(f"schedule[{i}]: {n} repeats an earlier entry")
    return schedule


def _type_schedule(value, m):
    """A schedule for the type-class recursion on m states: entry n runs n
    levels, the top one of C(n + m - 1, m - 1) classes, and both counts
    must fit the dense cap."""
    schedule = _schedule(value)
    for i, n in enumerate(schedule):
        # The class count grows with n, so a capped n decides it cheaply.
        top = math.comb(min(n, DENSE_CAP + 1) + m - 1, m - 1)
        if max(n, top) > DENSE_CAP:
            raise ConfigError(f"schedule[{i}]: n = {n} on {m} states exceeds "
                              f"the dense cap of {DENSE_CAP} type classes")
    return schedule


def _grid_step(value, m):
    """A simplex grid step in (0, 1] whose grid, C(k + m - 1, m - 1) points
    for k = round(1/step), fits the dense cap."""
    step = _num(value, "grid_step")
    # Bound 1/step before rounding it: it is inf for a subnormal step.
    if 0.0 < step <= 1.0 and 1.0 / step <= DENSE_CAP and \
            math.comb(round(1.0 / step) + m - 1, m - 1) <= DENSE_CAP:
        return step
    raise ConfigError(f"grid_step: expected a step in (0, 1] whose simplex "
                      f"grid on {m} states has at most {DENSE_CAP} points, "
                      f"got {value!r}")


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_jsonable) + "\n")


def write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(c) for c in row])


def _fmt_cell(c):
    if isinstance(c, (float, np.floating)):
        return f"{float(c):.17g}"
    return c


def write_manifest(out: Path, config_text: str, seed: int, threads: int) -> None:
    import scipy   # lazy: only the manifest needs scipy, for its version
    write_json(out / "manifest.json", {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "seed": seed,
        "threads": threads,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "sanovdual": __version__,
        },
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    })


def _maximizer_payload(result):
    if result.maximizer is None:
        return None
    return result.maximizer.weights.tolist()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_rho(cfg, out: Path, seed: int) -> int:
    _check_keys(cfg, "config", required=("spec", "f"),
                optional=("generic", "restarts", "seed"))
    generic = _bool(cfg.get("generic", False), "generic")
    if "restarts" in cfg and not generic:
        raise ConfigError("restarts: only a generic run (generic: true) "
                          "takes restarts")
    spec = parse_spec(cfg["spec"])
    f = np.asarray(_num_list(cfg["f"], "f"))
    if f.size != spec.space.size:
        raise ConfigError("f: length must match the spec's space size")
    if generic:
        result = generic_risk(f, spec,
                              restarts=_pos_int(cfg.get("restarts", RESTARTS),
                                                "restarts"),
                              seed=seed)
    else:
        result = risk_result(f, spec)
    report = {
        "value": result.value,
        "method": result.method,
        "maximizer": _maximizer_payload(result),
        "spec_kind": cfg["spec"]["kind"],
        "f": f.tolist(),
    }
    write_json(out / "report.json", report)
    print(f"rho = {result.value:.12g}  method={result.method}")
    if result.maximizer is not None:
        print(f"maximizer = {np.round(result.maximizer.weights, 9).tolist()}")
    return EXIT_OK


def cmd_sanov(cfg, out: Path, seed: int) -> int:
    _check_keys(cfg, "config", required=("spec", "F", "schedule"),
                optional=("grid_step", "seed"))
    spec = parse_spec(cfg["spec"])
    F, dF = parse_simplex_function(cfg["F"], spec.space.size)
    schedule = _type_schedule(cfg["schedule"], spec.space.size)
    step = _grid_step(cfg.get("grid_step", dp.GRID_STEP), spec.space.size)
    run = dp.sanov_limit(F, dF, spec, schedule, grid_step=step)
    write_json(out / "report.json", run.to_json_dict())
    write_csv(out / "table.csv", ("n", "v_n", "target", "gap"), run.csv_rows())
    for n, v, g in zip(run.schedule, run.values, run.gaps):
        print(f"n={n:6d}  v_n={v: .9f}  gap={g:.3e}")
    print(f"target = {run.target:.9f}")
    _check_coupling(run)
    return EXIT_OK


def _check_coupling(run: dp.SanovRun) -> None:
    """A transport run's two targets must agree within 1e-6."""
    if run.coupling_target is not None and \
            abs(run.target - run.coupling_target) > 1e-6:
        raise ArithmeticError("transport limit targets disagree beyond 1e-6")


def cmd_cramer(cfg, out: Path, seed: int) -> int:
    _check_keys(cfg, "config", required=("law", "q", "dual_grid",
                                         "primal_grid"),
                optional=("seed",))
    law = parse_law(cfg["law"])
    q = _num(cfg["q"], "q")
    pair = conjugate_pair(law, q, _grid(cfg["dual_grid"], "dual_grid"),
                          _grid(cfg["primal_grid"], "primal_grid"))
    write_csv(out / "cumulant.csv", ("point", "value"), pair.csv_rows("dual"))
    write_csv(out / "rate.csv", ("point", "value"), pair.csv_rows("primal"))
    write_json(out / "report.json", {
        "q": pair.q, "p": pair.p, "moment": pair.moment,
        "value_at_zero": pair.value_at_zero,
        "convex_dual": pair.convex_dual,
        "convex_primal": pair.convex_primal,
        "minorant_ok": pair.minorant_ok,
    })
    print(f"M_q = {pair.moment:.9f}  cumulant(0) = {pair.value_at_zero:.3e}  "
          f"minorant_ok={pair.minorant_ok}")
    return EXIT_OK


def cmd_tailbound(cfg, out: Path, seed: int) -> int:
    experiment = _kind(cfg, "config", "experiment", {
        "mean_tail": (("law", "q", "schedule"), ("r", "replications", "seed")),
        "azuma": (("r", "n"), ("family", "replications", "seed"))},
        field="experiment")
    if experiment == "mean_tail":
        law = _sampled_law(cfg["law"])
        q = _num(cfg["q"], "q")
        schedule = _sample_schedule(cfg["schedule"])
        mq = moment_norm(law, q)
        r = _num(cfg["r"], "r") if "r" in cfg else mq + 1.0
        if not r > mq:
            raise ConfigError("r: must exceed the moment constant M_q")
        replications = _replications(cfg.get("replications", REPLICATIONS))
        run = mc.exceedance_series(q, schedule, lambda n: mc.estimate_tail(
            law, n, r, replications, seed), r)
        bounds = [deviation_bound(r, mq, q, n) for n in schedule]
        ratios = [e.p_hat / b if b > 0 else math.inf
                  for e, b in zip(run.estimates, bounds)]
        _write_series(out, run, bounds, {
            "experiment": "mean_tail", "q": q, "r": r, "moment": mq,
            "bound_ratio_slack": mc.BOUND_RATIO_SLACK,
            "ratios": ratios,
            "bound_ok": all(rt <= mc.BOUND_RATIO_SLACK for rt in ratios),
        })
        for e, b in zip(run.estimates, bounds):
            print(f"n={e.n:7d}  p_hat={e.p_hat:.3e}  bound={b:.3e}")
        if run.fit.status != "ok":
            raise InconclusiveError("rate fit needs >= 3 schedule points "
                                    "with hits")
        print(f"slope={run.fit.slope:.3f} (upper95 {run.fit.upper95:.3f}, "
              f"budget {run.slope_budget:.3f})")
        return EXIT_OK
    family_name = cfg.get("family", "rademacher")
    if not isinstance(family_name, str) or \
            family_name not in mc.INCREMENT_FAMILIES:
        raise ConfigError(f"family: unknown increment family "
                          f"{family_name!r}")
    family = mc.INCREMENT_FAMILIES[family_name]()
    r = _num(cfg["r"], "r")
    n = _pos_int(cfg["n"], "n", bits=mc.SAMPLE_BITS)
    replications = _replications(cfg.get("replications", REPLICATIONS))
    res = mc.azuma_experiment(family, r, n, replications, seed=seed)
    write_json(out / "report.json", {
        "experiment": "azuma", "family": family_name, "n": n, "r": r,
        "p_hat": res.estimate.p_hat, "hits": res.estimate.hits,
        "phi_star": res.phi_star,
        "empirical_exponent": res.empirical_exponent,
        "budget": res.budget, "ok": res.ok,
        "exact_tail": res.exact_tail,
    })
    print(f"p_hat={res.estimate.p_hat:.3e}  (1/n)log p = "
          f"{res.empirical_exponent:.4f}  budget={res.budget:.4f}  "
          f"ok={res.ok}")
    return EXIT_OK if res.ok else EXIT_NUMERIC


def _write_series(out: Path, run: mc.ExceedanceSeries, bounds, report) -> None:
    """estimates.csv of a schedule run, with one ``bounds`` cell per point,
    and report.json: the experiment's own ``report`` keys and the fit's."""
    write_csv(out / "estimates.csv", ("n", "r", "p_hat", "lo", "hi", "bound"),
              [(e.n, e.r, e.p_hat, e.lo, e.hi, b)
               for e, b in zip(run.estimates, bounds)])
    write_json(out / "report.json", {
        **report,
        "slope": run.fit.slope, "slope_upper95": run.fit.upper95,
        "slope_budget": run.slope_budget, "fit_status": run.fit.status,
    })


def _parse_saa_instance(cfg) -> mc.SAAInstance:
    dec = cfg["decisions"]
    if isinstance(dec, dict):
        decisions = _grid(dec, "decisions")
    else:
        decisions = np.asarray(_num_list(dec, "decisions"))
        if not decisions.size:
            raise ConfigError("decisions: expected a nonempty list or a grid")
    loss_obj = cfg["loss"]
    kind = _kind(loss_obj, "loss", "loss kind",
                 {"abs_diff": ((), ()), "well_linear": ((), ("x0",))})
    if kind == "abs_diff":
        loss = lambda x, w: np.abs(w - x)
    else:
        x0 = _num(loss_obj.get("x0", 1.0), "loss.x0")
        loss = lambda x, w: (x - x0) ** 2 + x * w
    law = _sampled_law(cfg["law"])
    q = _num(cfg["q"], "q")
    check_admissible(law, q)
    growth = None
    if "growth" in cfg:
        gobj = cfg["growth"]
        _check_keys(gobj, "growth", required=("kind",), optional=("scale",))
        if gobj["kind"] != "quadratic":
            raise ConfigError("growth.kind: only 'quadratic' is supported")
        scale = _num(gobj.get("scale", 1.0), "growth.scale")
        growth = lambda d: scale * d * d
    return mc.SAAInstance(decisions, loss, law,
                          epsilon=_num(cfg["epsilon"], "epsilon"),
                          q=q, growth=growth)


def cmd_saa(cfg, out: Path, seed: int) -> int:
    _check_keys(cfg, "config", required=("decisions", "loss", "law",
                                         "epsilon", "q", "schedule",
                                         "replications"),
                optional=("experiment", "growth", "seed"))
    experiment = cfg.get("experiment", "value")
    if experiment not in ("value", "argmin"):
        raise ConfigError(f"experiment: unknown experiment {experiment!r}")
    if "growth" in cfg and experiment != "argmin":
        raise ConfigError("growth: only the argmin experiment takes a "
                          "growth function")
    instance = _parse_saa_instance(cfg)
    schedule = _sample_schedule(cfg["schedule"])
    replications = _replications(cfg["replications"])
    if experiment == "value":
        run = mc.saa_run(instance, schedule, replications, seed)
    else:
        try:
            run = mc.argmin_tracking(instance, schedule, replications, seed)
        except mc.GrowthValidationError as exc:
            raise ConfigError(f"growth: {exc}") from exc
    _write_series(out, run, [""] * len(run.estimates), {
        "experiment": experiment,
        "schedule": run.schedule,
        "p_hat": [e.p_hat for e in run.estimates],
        "scaled": run.scaled,
        "mann_kendall_p": run.mann_kendall_p,
        "true_value" if experiment == "value" else "argmin": run.target,
    })
    for e, s in zip(run.estimates, run.scaled):
        print(f"n={e.n:6d}  p_hat={e.p_hat:.3e}  scaled={s:.3e}")
    print(f"mann_kendall_p={run.mann_kendall_p:.3f}  "
          f"slope={run.fit.slope:.3f} ({run.fit.status})")
    return EXIT_OK


def cmd_superhedge(cfg, out: Path, seed: int) -> int:
    _check_keys(cfg, "config", required=("spec", "f"), optional=("seed",))
    spec = parse_spec(cfg["spec"])
    space = spec.space
    f = np.asarray(_num_list(cfg["f"], "f"))
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        raise ConfigError(f"f[{bad[0]}]: superhedging needs finite "
                          f"entries, got {f[bad[0]]}")
    cert = dp.superhedge(f, space, spec)
    np.save(out / "increments.npy", cert.flat.astype("<f8", copy=False))
    write_json(out / "certificate.json", {
        "y": cert.y,
        "increments": {
            "file": "increments.npy", "m": space.size,
            "n": len(cert.increments),
            "layout": "stage k = 1..n holds m^k entries from offset "
                      "m + m^2 + ... + m^(k-1)"},
        "residual_max": cert.residual_max,
        "slice_risk_max": cert.slice_risk_max,
    })
    print(f"y = {cert.y:.12g}  residual_max = {cert.residual_max:.3e}  "
          f"slice_risk_max = {cert.slice_risk_max:.3e}")
    # not <=, so that a NaN certificate fails its gate
    if not (cert.residual_max <= 1e-8 and cert.slice_risk_max <= 1e-7):
        raise ArithmeticError("superhedge certificate out of tolerance")
    return EXIT_OK


def cmd_transport(cfg, out: Path, seed: int) -> int:
    _check_keys(cfg, "config", required=("mu", "cost", "F", "schedule"),
                optional=("grid_step", "control_check_n", "seed"))
    mu = _dist(cfg["mu"], "mu")
    cost = np.asarray(_matrix(cfg["cost"], "cost"))
    try:
        spec = Transport(mu, cost)
    except SpaceError as exc:
        raise ConfigError(f"cost: {exc}") from exc
    F, dF = parse_simplex_function(cfg["F"], mu.m)
    schedule = _type_schedule(cfg["schedule"], mu.m)
    step = _grid_step(cfg.get("grid_step", dp.GRID_STEP), mu.m)
    n_chk = _pos_int(cfg.get("control_check_n", 2), "control_check_n")
    if mu.m ** min(n_chk, 25) > DENSE_CAP:     # 2^25 already exceeds it
        raise ConfigError(f"control_check_n: a control field of {mu.m}^"
                          f"{n_chk} entries exceeds the dense cap of "
                          f"{DENSE_CAP}")
    run = dp.sanov_limit(F, dF, spec, schedule, grid_step=step)
    rng = np.random.default_rng(seed)
    f_chk = rng.normal(size=mu.m ** n_chk)
    v_rec, _ = dp.backward_value_dense(f_chk, mu.space, spec)
    v_ctl = dp.transport_control_value(f_chk, mu.space, mu, cost)
    write_json(out / "report.json", {
        **run.to_json_dict(),
        "control_check_n": n_chk,
        "control_value": v_ctl,
        "recursion_value": v_rec,
        "control_gap": abs(v_ctl - v_rec),
    })
    write_csv(out / "table.csv", ("n", "v_n", "target", "gap"), run.csv_rows())
    print(f"target={run.target:.9f}  coupling_target="
          f"{run.coupling_target:.9f}")
    print(f"control check: |{v_ctl:.12g} - {v_rec:.12g}| = "
          f"{abs(v_ctl - v_rec):.3e}")
    _check_coupling(run)
    if abs(v_ctl - v_rec) > 1e-10:
        raise ArithmeticError("control value disagrees with the recursion")
    return EXIT_OK


COMMANDS = {
    "rho": cmd_rho,
    "sanov": cmd_sanov,
    "cramer": cmd_cramer,
    "tailbound": cmd_tailbound,
    "saa": cmd_saa,
    "superhedge": cmd_superhedge,
    "transport": cmd_transport,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sanovdual",
        description="Dual-pair numerical experiments on finite spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
        if name == "tailbound":
            p.add_argument("--Mq", type=float, default=None)
            p.add_argument("--r", type=float, default=None)
            p.add_argument("--q", type=float, default=None)
            p.add_argument("--n", type=int, default=None)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SANOV_DUAL_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)

    # Flag-only mode: print the closed-form deviation bound and exit.
    if args.command == "tailbound" and args.config is None:
        if None in (args.Mq, args.r, args.q, args.n):
            print("tailbound without --config needs --Mq --r --q --n",
                  file=sys.stderr)
            return EXIT_CONFIG
        try:
            print(f"{deviation_bound(args.r, args.Mq, args.q, args.n):g}")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return EXIT_OK

    if args.config is None:
        print("error: --config is required", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config_text = args.config.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = json.loads(config_text)
    except ValueError as exc:     # also an int literal over 4300 digits
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = args.out if args.out is not None else Path.cwd() / "out"
    out.mkdir(parents=True, exist_ok=True)

    try:
        seed = args.seed if args.seed is not None else \
            cfg.get("seed", 0) if isinstance(cfg, dict) else 0
        seed = _pos_int(seed, "seed", low=0)
        write_manifest(out, config_text, seed, args.threads)
        return COMMANDS[args.command](cfg, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LawError as exc:       # law parameters or a missing q-th moment
        print(f"config error: law: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ArithmeticError, SpaceError, LossError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

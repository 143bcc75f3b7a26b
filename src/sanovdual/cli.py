"""Command-line front end: every experiment is a subcommand over a JSON
config, with machine-readable outputs and a reproducibility manifest.

Subcommands: rho | sanov | cramer | tailbound | saa | superhedge | transport.
Shared flags: --config PATH, --out DIR, --seed U64, --threads N.
--threads is parsed and recorded in the manifest but has no effect: Monte
Carlo replications are drawn in blocks on one thread.
Exit codes: 0 ok, 2 config error, 3 numeric failure, 4 inconclusive
statistics.  Verbosity via the SANOV_DUAL_LOG environment variable.

Each subcommand reads its config against its table in ``COMMANDS``, and
a nested object against one table per kind (``SPEC``, ``LAW``, ...).
Every number is finite unless its domain is ``EXTENDED``: only a
transport ``cost`` and ``rho``'s ``f``.  A config fault exits 2 and names
its key; a rule that needs a second key (such as m) is the command's.

Every run writes manifest.json (config hash, effective seed, versions,
timestamp) next to its outputs; rerunning with the same config and seed
reproduces every output byte-for-byte apart from the manifest timestamp.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import functools
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
from .spaces import DENSE_CAP, Dist, SpaceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4

REPLICATIONS = 10000    # tailbound replications unless a config sets them
# The gates of a run's own checks; a NaN fails each.
COUPLING_TOL = 1e-6     # largest |target - coupling_target| of a transport run
RESIDUAL_TOL = 1e-8     # largest superhedge residual_max
SLICE_RISK_TOL = 1e-7   # largest superhedge slice_risk_max
CONTROL_TOL = 1e-10     # largest transport control_gap


class ConfigError(Exception):
    """Invalid run configuration; the message points at the offending key."""


class InconclusiveError(Exception):
    """Statistics too weak to support a conclusion."""


# ---------------------------------------------------------------------------
# Config readers: each maps (value, path, domain) to the coerced value
# ---------------------------------------------------------------------------

# Number domains: (predicate, the phrase of the error when it fails); each
# predicate takes a float or, elementwise, a float array.
FINITE = (np.isfinite, "expected a finite number")
EXTENDED = (lambda x: x == x, "expected a number")     # +-inf, never NaN
POSITIVE = (lambda x: (0 < x) & (x < np.inf), "expected a finite number > 0")
STEP = (lambda x: (0 < x) & (x <= 1), "expected a step in (0, 1]")
GRID_END = (np.isfinite, "a grid end must be finite")
# Integer domains: (low, bits) for the integers in [low, 2^bits).
COUNT = (1, 64)
INDEX = (0, 64)
SAMPLES = (1, mc.SAMPLE_BITS)     # a Monte Carlo sample size


def _num(value, path, domain):
    """A number in ``domain``: a JSON number, or the string "inf" or
    "-inf"; NaN never is one."""
    x = math.nan
    if isinstance(value, str):
        s = value.strip().lower()
        x = math.inf if s in ("inf", "+inf", "infinity") else \
            -math.inf if s == "-inf" else math.nan
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: integer too large for a float") \
                from None
    if math.isnan(x):     # json.loads accepts NaN
        raise ConfigError(f"{path}: not a number: {value!r}")
    ok, what = domain
    if ok(x):
        return x
    raise ConfigError(f"{path}: {what}, got {value!r}")


def _num_list(value, path, domain):
    """A float array of a list of numbers in ``domain``, converted and
    checked as one array; only a failing list is walked, to name the entry."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of numbers")
    if set(map(type, value)) <= {float, int}:     # no bool, str or list
        try:
            out = np.array(value, dtype=float)
        except OverflowError:     # an int too large for a float; _num names it
            pass
        else:
            if domain[0](out).all():
                return out
    return np.asarray([_num(v, f"{path}[{i}]", domain)
                       for i, v in enumerate(value)])


def _matrix(value, path, domain):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a matrix (list of rows)")
    rows = [_num_list(row, f"{path}[{i}]", domain)
            for i, row in enumerate(value)]
    if len(set(map(len, rows))) > 1:
        raise ConfigError(f"{path}: rows of unequal length")
    return np.asarray(rows)


def _integer(value, path, domain):
    """An integral number in [low, 2^bits) for the ``domain`` (low, bits),
    compared exactly: an int too large for a float is no OverflowError."""
    low, bits = domain
    n = int(value) if isinstance(value, float) and math.isfinite(value) \
        and value.is_integer() else value
    if isinstance(n, int) and not isinstance(n, bool) and \
            low <= n < 2 ** bits:
        return n
    raise ConfigError(f"{path}: expected an integer in [{low}, 2^{bits}), "
                      f"got {value!r}")


def _schedule(value, path, domain):
    """A nonempty list of integers in ``domain``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of integers")
    return [_integer(v, f"{path}[{i}]", domain) for i, v in enumerate(value)]


def _bool(value, path, domain):
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{path}: expected true or false, got {value!r}")


def _choice(value, path, domain):
    """One of the strings ``domain[0]``; ``domain[1]`` formats the error."""
    choices, unknown = domain
    if isinstance(value, str) and value in choices:
        return value
    raise ConfigError(f"{path}: " + unknown.format(value))


def _dist(value, path, domain):
    w = _num_list(value, path, domain)
    try:
        return Dist(w)
    except SpaceError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _dists(value, path, domain):
    """A nonempty tuple of laws on the same number of states."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: need a nonempty list")
    laws = tuple(_dist(w, f"{path}[{i}]", domain) for i, w in enumerate(value))
    if len({law.size for law in laws}) > 1:
        raise ConfigError(f"{path}: laws on different numbers of states")
    return laws


def _grid(value, path, table):
    """``count`` points from ``lo`` to ``hi``, ends included."""
    grid = _object(value, path, table)
    lo, hi, count = grid["lo"], grid["hi"], grid["count"]
    if count > DENSE_CAP:
        raise ConfigError(f"{path}.count: {count} points exceed the dense "
                          f"cap of {DENSE_CAP}")
    if count < 2 or not hi > lo:
        raise ConfigError(f"{path}: need hi > lo and count >= 2")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"{path}: hi - lo overflows a float")
    return np.linspace(lo, hi, count)


def _decisions(value, path, domain):
    """A grid, or a nonempty list of numbers in ``domain``."""
    if isinstance(value, dict):
        return _grid(value, path, GRID)
    decisions = _num_list(value, path, domain)
    if not decisions.size:
        raise ConfigError(f"{path}: expected a nonempty list or a grid")
    return decisions


def _object(value, path, table):
    """The keys of the config object ``value`` at ``path`` read against
    ``table``; a key it lacks takes its default.  A top-level key's value
    is named bare, without the "config." of its path."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in value:
        if key not in table:
            raise ConfigError(f"{path}.{key}: unknown key")
    keys = {}
    for key, (read, domain, *default) in table.items():
        if key in value:
            keys[key] = read(value[key], f"{path}.{key}".removeprefix(
                "config."), domain)
        elif default:
            keys[key] = default[0]
        else:
            raise ConfigError(f"{path}.{key}: missing required key")
    return keys


def _kinded(value, path, schema):
    """The keys of the config object ``value``, its kind among them: the
    value of its ``schema["field"]`` picks its table."""
    field = schema["field"]
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    if field not in value:
        raise ConfigError(f"{path}.{field}: missing required key")
    kind = _choice(value[field], f"{path}.{field}",
                   (schema["kinds"], schema["unknown"]))
    rest = {key: v for key, v in value.items() if key != field}
    return {field: kind, **_object(rest, path, schema["kinds"][kind][1])}


def _make(keys, path, schema, *context):
    """Its kind's maker called with ``context`` and the other coerced
    ``keys``; a model's own error is a config error at ``path``."""
    field = schema["field"]
    make = schema["kinds"][keys[field]][0]
    try:
        return make(*context, **{k: v for k, v in keys.items() if k != field})
    except (LawError, LossError, SpaceError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _made(value, path, schema):
    """The model that the config object ``value``, with a kind, describes."""
    return _make(_kinded(value, path, schema), path, schema)


def parse_simplex_function(keys, m):
    """The ``dp.SimplexFunction`` on m states that the coerced F ``keys``
    (its kind among them) describe."""
    return _make(keys, "F", SIMPLEX_FUNCTION, keys["kind"], m)


def _series(schedule, q):
    """A Monte Carlo schedule repeats no n: a repeat would draw its stream
    again, a copy and not a new point.  Its run reports n^(q - 1) p_hat,
    so that power of its largest n must be a float."""
    for i, n in enumerate(schedule):
        if n in schedule[:i]:
            raise ConfigError(f"schedule[{i}]: {n} repeats an earlier entry")
    try:
        math.pow(max(schedule), q - 1.0)
    except OverflowError:
        raise ConfigError(f"q: n^(q - 1) overflows a float at n = "
                          f"{max(schedule)}, got {q!r}") from None


def _enough(replications):
    """Fewer than ``mc.MIN_REPLICATIONS`` give no usable Wilson interval."""
    if replications < mc.MIN_REPLICATIONS:
        raise InconclusiveError(f"replications: need at least "
                                f"{mc.MIN_REPLICATIONS}, got {replications}")


def _sanov_limit(spec, F, schedule, step):
    """``dp.sanov_limit`` of the coerced F keys under ``spec``.  F must
    serve the m states up to the largest n (``F.fault``).  On m states
    schedule entry n runs levels 0..n over the classes of F's g groups,
    C(n + g, g) in all and C(n + g - 1, g - 1) at the top, and the simplex
    grid of ``step`` has C(round(1/step) + m - 1, m - 1) points; each
    count fits the dense cap.  Only a set-indicator target scans that
    grid, but every run checks it."""
    m = spec.size
    F = parse_simplex_function(F, m)
    fault = F.fault(max(schedule))
    if fault is not None:
        raise ConfigError(f"F.{fault}")
    g = int(F.labels.max()) + 1
    for i, n in enumerate(schedule):
        # The class count grows with n, so a capped n decides it cheaply.
        if math.comb(min(n, DENSE_CAP + 1) + g, g) > DENSE_CAP:
            raise ConfigError(f"schedule[{i}]: n = {n} on {m} states exceeds "
                              f"the dense cap of {DENSE_CAP} type classes "
                              f"over its levels")
    # Bound 1/step before rounding it: it is inf for a subnormal step.
    if not (1.0 / step <= DENSE_CAP and
            math.comb(round(1.0 / step) + m - 1, m - 1) <= DENSE_CAP):
        raise ConfigError(f"grid_step: expected a step in (0, 1] whose "
                          f"simplex grid on {m} states has at most "
                          f"{DENSE_CAP} points, got {step!r}")
    return dp.sanov_limit(F, spec, schedule, grid_step=step)


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


# ---------------------------------------------------------------------------
# Subcommands: each takes --out, the seed and its config's coerced keys
# ---------------------------------------------------------------------------

def cmd_rho(out: Path, seed: int, spec, f, generic, restarts) -> int:
    if restarts is not None and not generic:
        raise ConfigError("restarts: only a generic run (generic: true) "
                          "takes restarts")
    spec_kind, spec = spec["kind"], _make(spec, "spec", SPEC)
    if f.size != spec.size:
        raise ConfigError("f: length must match the spec's number of states")
    result = generic_risk(f, spec, restarts=restarts or RESTARTS, seed=seed) \
        if generic else risk_result(f, spec)
    weights = None if result.maximizer is None else result.maximizer.weights
    write_json(out / "report.json", {
        "value": result.value, "method": result.method,
        "maximizer": None if weights is None else weights.tolist(),
        "spec_kind": spec_kind, "f": f.tolist(),
    })
    print(f"rho = {result.value:.12g}  method={result.method}")
    if weights is not None:
        print(f"maximizer = {np.round(weights, 9).tolist()}")
    return EXIT_OK


def cmd_sanov(out: Path, seed: int, spec, F, schedule, grid_step) -> int:
    run = _sanov_limit(spec, F, schedule, grid_step)
    write_json(out / "report.json", run.to_json_dict())
    write_csv(out / "table.csv", ("n", "v_n", "target", "gap"), run.csv_rows())
    for n, v, g in zip(run.schedule, run.values, run.gaps):
        print(f"n={n:6d}  v_n={v: .9f}  gap={g:.3e}")
    print(f"target = {run.target:.9f}")
    _check_limit(run)
    return EXIT_OK


def _check_limit(run: dp.SanovRun) -> None:
    """A certified target's dual gap must be at most ``dp.GAP_TOL``
    (1 + |target|), and a transport run's two targets must agree within
    ``COUPLING_TOL``; a NaN fails either gate."""
    if run.certified:
        gap = run.upper_bound - run.target
        if not abs(gap) <= dp.GAP_TOL * (1.0 + abs(run.target)):
            raise ArithmeticError(
                f"limit target: dual gap {gap:.3g} between target "
                f"{run.target!r} and upper_bound {run.upper_bound!r} exceeds "
                f"{dp.GAP_TOL:g} (1 + |target|)")
    if run.coupling_target is not None:
        gap = abs(run.target - run.coupling_target)
        if not gap <= COUPLING_TOL:
            raise ArithmeticError(
                f"limit target: |target - coupling_target| = {gap:.3g} "
                f"exceeds {COUPLING_TOL:g}")


def cmd_cramer(out: Path, seed: int, law, q, dual_grid, primal_grid) -> int:
    pair = conjugate_pair(law, q, dual_grid, primal_grid)
    write_csv(out / "cumulant.csv", ("point", "value"), pair.csv_rows("dual"))
    write_csv(out / "rate.csv", ("point", "value"), pair.csv_rows("primal"))
    write_json(out / "report.json", {
        "q": pair.q, "p": pair.p, "moment": pair.moment,
        "value_at_zero": pair.value_at_zero, "convex_dual": pair.convex_dual,
        "convex_primal": pair.convex_primal, "minorant_ok": pair.minorant_ok})
    print(f"M_q = {pair.moment:.9f}  cumulant(0) = {pair.value_at_zero:.3e}  "
          f"minorant_ok={pair.minorant_ok}")
    return EXIT_OK


def cmd_tailbound(out: Path, seed: int, experiment, **keys) -> int:
    """Runs the experiment that the config names, its TAILBOUND maker."""
    return TAILBOUND["kinds"][experiment][0](out, seed, **keys)


def _mean_tail(out: Path, seed: int, law, q, schedule, r,
               replications) -> int:
    _series(schedule, q)
    mq = moment_norm(law, q)
    r = mq + 1.0 if r is None else r
    if not r > mq:
        raise ConfigError("r: must exceed the moment constant M_q")
    _enough(replications)
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


def _azuma(out: Path, seed: int, r, n, family, replications) -> int:
    _enough(replications)
    res = mc.azuma_experiment(mc.INCREMENT_FAMILIES[family](), r, n,
                              replications, seed=seed)
    write_json(out / "report.json", {
        "experiment": "azuma", "family": family, "n": n, "r": r,
        "p_hat": res.estimate.p_hat, "hits": res.estimate.hits,
        "phi_star": res.phi_star, "empirical_exponent": res.empirical_exponent,
        "budget": res.budget, "ok": res.ok, "exact_tail": res.exact_tail})
    print(f"p_hat={res.estimate.p_hat:.3e}  (1/n)log p = "
          f"{res.empirical_exponent:.4f}  budget={res.budget:.4f}  "
          f"ok={res.ok}")
    if not res.ok:
        raise ArithmeticError(
            f"azuma: (1/n) log p_hat = {res.empirical_exponent:.6g} exceeds "
            f"the budget {res.budget:.6g}")
    return EXIT_OK


def _write_series(out: Path, run: mc.ExceedanceSeries, bounds, report) -> None:
    """estimates.csv of a schedule run, with one ``bounds`` cell per point,
    and report.json: the experiment's own ``report`` keys and the fit's,
    its slopes null unless the fit is ok."""
    write_csv(out / "estimates.csv", ("n", "r", "p_hat", "lo", "hi", "bound"),
              [(e.n, e.r, e.p_hat, e.lo, e.hi, b)
               for e, b in zip(run.estimates, bounds)])
    ok = run.fit.status == "ok"
    write_json(out / "report.json", {
        **report,
        "slope": run.fit.slope if ok else None,
        "slope_upper95": run.fit.upper95 if ok else None,
        "slope_budget": run.slope_budget, "fit_status": run.fit.status,
    })


def cmd_saa(out: Path, seed: int, decisions, loss, law, epsilon, q, schedule,
            replications, experiment, growth) -> int:
    if growth is not None and experiment != "argmin":
        raise ConfigError("growth: only the argmin experiment takes a "
                          "growth function")
    _series(schedule, q)
    check_admissible(law, q)
    _enough(replications)
    instance = mc.SAAInstance(decisions, loss, law, epsilon=epsilon, q=q,
                              growth=growth)
    if experiment == "value":
        run = mc.saa_run(instance, schedule, replications, seed)
    else:
        try:
            run = mc.argmin_tracking(instance, schedule, replications, seed)
        except mc.GrowthValidationError as exc:
            raise ConfigError(f"growth: {exc}") from exc
    _write_series(out, run, [""] * len(run.estimates), {
        "experiment": experiment, "schedule": run.schedule,
        "p_hat": [e.p_hat for e in run.estimates], "scaled": run.scaled,
        "mann_kendall_p": run.mann_kendall_p,
        "true_value" if experiment == "value" else "argmin": run.target})
    for e, s in zip(run.estimates, run.scaled):
        print(f"n={e.n:6d}  p_hat={e.p_hat:.3e}  scaled={s:.3e}")
    print(f"mann_kendall_p={run.mann_kendall_p:.3f}  "
          f"slope={run.fit.slope:.3f} ({run.fit.status})")
    return EXIT_OK


def cmd_superhedge(out: Path, seed: int, spec, f) -> int:
    cert = dp.superhedge(f, spec)
    np.save(out / "increments.npy", cert.flat.astype("<f8", copy=False))
    write_json(out / "certificate.json", {
        "y": cert.y,
        "increments": {
            "file": "increments.npy", "m": spec.size,
            "n": len(cert.increments),
            "layout": "stage k = 1..n holds m^k entries from offset "
                      "m + m^2 + ... + m^(k-1)"},
        "residual_max": cert.residual_max,
        "slice_risk_max": cert.slice_risk_max,
    })
    print(f"y = {cert.y:.12g}  residual_max = {cert.residual_max:.3e}  "
          f"slice_risk_max = {cert.slice_risk_max:.3e}")
    # not <=, so that a NaN certificate fails its gate
    if not (cert.residual_max <= RESIDUAL_TOL and
            cert.slice_risk_max <= SLICE_RISK_TOL):
        raise ArithmeticError("superhedge certificate out of tolerance")
    return EXIT_OK


def cmd_transport(out: Path, seed: int, mu, cost, F, schedule, grid_step,
                  control_check_n) -> int:
    spec = _make({"kind": "transport", "mu": mu, "cost": cost}, "cost", SPEC)
    n_chk = control_check_n
    if mu.size ** min(n_chk, 25) > DENSE_CAP:     # 2^25 already exceeds it
        raise ConfigError(f"control_check_n: a control field of {mu.size}^"
                          f"{n_chk} entries exceeds the dense cap of "
                          f"{DENSE_CAP}")
    run = _sanov_limit(spec, F, schedule, grid_step)
    rng = np.random.default_rng(seed)
    f_chk = rng.normal(size=mu.size ** n_chk)
    v_rec, _ = dp.backward_value_dense(f_chk, spec)
    v_ctl = dp.transport_control_value(f_chk, mu, spec.cost)
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
    _check_limit(run)
    if not abs(v_ctl - v_rec) <= CONTROL_TOL:
        raise ArithmeticError(
            f"control check: |control_value - recursion_value| = "
            f"{abs(v_ctl - v_rec):.3g} exceeds {CONTROL_TOL:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Config schema.  A table maps each key to (reader, domain[, default]); a
# key without a default is required, and a default of None leaves it unset.
# An object with a kind has {"field": its kind key, "unknown": the error for
# any other kind, "kinds": kind -> (maker of its model, table)}.
# ---------------------------------------------------------------------------

SEED = (_integer, INDEX, 0)

GRID = {"lo": (_num, GRID_END), "hi": (_num, GRID_END),
        "count": (_integer, COUNT)}

LOSS = {"field": "kind", "unknown": "unknown loss kind {!r}", "kinds": {
    "exp": (ExpLoss, {}),
    "power_plus": (PowerLoss, {"q": (_num, FINITE)}),
    "tabulated": (TabulatedLoss, {
        "xs": (_num_list, FINITE), "ys": (_num_list, FINITE),
        "left_limit": (_num, FINITE, 0.0)}),
}}

SPEC = {"field": "kind", "unknown": "unknown spec kind {!r}", "kinds": {
    "relative_entropy": (RelativeEntropy, {"mu": (_dist, FINITE)}),
    "lp_entropy": (LpEntropy, {"mu": (_dist, FINITE), "p": (_num, FINITE)}),
    "shortfall": (Shortfall, {"mu": (_dist, FINITE), "loss": (_made, LOSS)}),
    "robust": (Robust, {"generators": (_dists, FINITE)}),
    "set_indicator": (SetIndicator, {"generators": (_dists, FINITE)}),
    "transport": (Transport, {"mu": (_dist, FINITE),
                              "cost": (_matrix, EXTENDED)}),
}}

WELL = {"coordinate": (_integer, INDEX, 0), "center": (_num, FINITE, 0.5),
        "scale": (_num, FINITE, -1.0)}

SIMPLEX_FUNCTION = {
    "field": "kind", "unknown": "unknown function kind {!r}", "kinds": {
        "constant": (dp.SimplexFunction, {"value": (_num, FINITE, 0.0)}),
        "linear": (dp.SimplexFunction, {"coeffs": (_num_list, FINITE)}),
        "square_well": (dp.SimplexFunction, WELL),
        "abs_well": (dp.SimplexFunction, WELL),
    }}

LAW = {"field": "kind", "unknown": "unknown law kind {!r}", "kinds": {
    "pareto": (ParetoLaw, {"a": (_num, FINITE),
                           "centered": (_bool, None, True)}),
    "student_t": (StudentTLaw, {"df": (_num, FINITE)}),
    "lognormal": (LogNormalLaw, {"sigma": (_num, FINITE),
                                 "centered": (_bool, None, True)}),
    "finite": (FiniteSupportLaw, {"atoms": (_num_list, FINITE),
                                  "weights": (_num_list, FINITE)}),
    "empirical": (EmpiricalLaw, {"samples": (_num_list, FINITE)}),
}}

# The laws a Monte Carlo experiment can draw from: all but the empirical.
SAMPLED_LAW = {**LAW, "unknown": "no Monte Carlo sampler for law kind {!r}",
               "kinds": {k: v for k, v in LAW["kinds"].items()
                         if k != "empirical"}}

# The SAA losses h(x, w) and growth functions: each maker returns one.
SAA_LOSS = {"field": "kind", "unknown": "unknown loss kind {!r}", "kinds": {
    "abs_diff": (lambda: lambda x, w: np.abs(w - x), {}),
    "well_linear": (lambda x0: lambda x, w: (x - x0) ** 2 + x * w,
                    {"x0": (_num, FINITE, 1.0)}),
}}

GROWTH = {"field": "kind", "unknown": "only 'quadratic' is supported",
          "kinds": {"quadratic": (lambda scale: lambda d: scale * d * d,
                                  {"scale": (_num, FINITE, 1.0)})}}

TAILBOUND = {
    "field": "experiment", "unknown": "unknown experiment {!r}", "kinds": {
        "mean_tail": (_mean_tail, {
            "law": (_made, SAMPLED_LAW), "q": (_num, FINITE),
            "schedule": (_schedule, SAMPLES), "r": (_num, FINITE, None),
            "replications": (_integer, COUNT, REPLICATIONS), "seed": SEED}),
        "azuma": (_azuma, {
            "r": (_num, POSITIVE), "n": (_integer, SAMPLES),
            "family": (_choice, (mc.INCREMENT_FAMILIES,
                                 "unknown increment family {!r}"),
                       "rademacher"),
            "replications": (_integer, COUNT, REPLICATIONS), "seed": SEED}),
    }}

# Each subcommand: (command, reader of its config, the reader's table).
COMMANDS = {
    "rho": (cmd_rho, _object, {
        "spec": (_kinded, SPEC), "f": (_num_list, EXTENDED),
        "generic": (_bool, None, False), "restarts": (_integer, COUNT, None),
        "seed": SEED}),
    "sanov": (cmd_sanov, _object, {
        "spec": (_made, SPEC), "F": (_kinded, SIMPLEX_FUNCTION),
        "schedule": (_schedule, COUNT),
        "grid_step": (_num, STEP, dp.GRID_STEP), "seed": SEED}),
    "cramer": (cmd_cramer, _object, {
        "law": (_made, LAW), "q": (_num, FINITE),
        "dual_grid": (_grid, GRID), "primal_grid": (_grid, GRID),
        "seed": SEED}),
    "tailbound": (cmd_tailbound, _kinded, TAILBOUND),
    "saa": (cmd_saa, _object, {
        "decisions": (_decisions, FINITE), "loss": (_made, SAA_LOSS),
        "law": (_made, SAMPLED_LAW), "epsilon": (_num, POSITIVE),
        "q": (_num, FINITE), "schedule": (_schedule, SAMPLES),
        "replications": (_integer, COUNT),
        "experiment": (_choice, (("value", "argmin"),
                                 "unknown experiment {!r}"), "value"),
        "growth": (_made, GROWTH, None), "seed": SEED}),
    "superhedge": (cmd_superhedge, _object, {
        "spec": (_made, SPEC), "f": (_num_list, FINITE), "seed": SEED}),
    "transport": (cmd_transport, _object, {
        "mu": (_dist, FINITE), "cost": (_matrix, EXTENDED),
        "F": (_kinded, SIMPLEX_FUNCTION), "schedule": (_schedule, COUNT),
        "grid_step": (_num, STEP, dp.GRID_STEP),
        "control_check_n": (_integer, COUNT, 2), "seed": SEED}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it as it was."""
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
    if args.seed is not None and isinstance(cfg, dict):
        cfg["seed"] = args.seed     # the flag overrides the config's seed

    out = args.out if args.out is not None else Path.cwd() / "out"
    out.mkdir(parents=True, exist_ok=True)

    command, read, table = COMMANDS[args.command]
    try:
        keys = read(cfg, "config", table)
        seed = keys.pop("seed")
        write_manifest(out, config_text, seed, args.threads)
        return command(out, seed, **keys)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LawError as exc:       # a missing q-th moment
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

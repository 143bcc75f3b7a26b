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
import scipy

from . import __version__, dp, montecarlo as mc
from .cramer import (check_admissible, conjugate_pair, deviation_bound,
                     moment_norm)
from .laws import (EmpiricalLaw, FiniteSupportLaw, LawError, LogNormalLaw,
                   ParetoLaw, StudentTLaw)
from .losses import ExpLoss, LossError, PowerLoss, TabulatedLoss
from .penalties import (LpEntropy, RelativeEntropy, Robust, SetIndicator,
                        Shortfall, Transport, spec_space)
from .risk import generic_risk, risk_result
from .spaces import DENSE_CAP, Dist, FiniteSpace, SpaceError

log = logging.getLogger("sanovdual")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4


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
        return float(value)
    raise ConfigError(f"{path}: not a number: {value!r}")


def _num_list(value, path):
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of numbers")
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


def _dist(value, path, space=None):
    w = _num_list(value, path)
    if space is None:
        space = FiniteSpace.of_size(len(w))
    try:
        return Dist(space, np.asarray(w))
    except SpaceError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_loss(obj, path):
    _check_keys(obj, path, required=("kind",),
                optional=("q", "xs", "ys", "left_limit"))
    kind = obj["kind"]
    try:
        if kind == "exp":
            return ExpLoss()
        if kind == "power_plus":
            if "q" not in obj:
                raise ConfigError(f"{path}.q: missing required key")
            return PowerLoss(_num(obj["q"], f"{path}.q"))
        if kind == "tabulated":
            for key in ("xs", "ys"):
                if key not in obj:
                    raise ConfigError(f"{path}.{key}: missing required key")
            return TabulatedLoss(tuple(_num_list(obj["xs"], f"{path}.xs")),
                                 tuple(_num_list(obj["ys"], f"{path}.ys")),
                                 _num(obj.get("left_limit", 0.0),
                                      f"{path}.left_limit"))
    except LossError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown loss kind {kind!r}")


def parse_spec(obj, path="spec"):
    _check_keys(obj, path, required=("kind",),
                optional=("mu", "p", "loss", "generators", "cost"))
    kind = obj.get("kind")
    try:
        if kind == "relative_entropy":
            return RelativeEntropy(_dist(obj["mu"], f"{path}.mu"))
        if kind == "lp_entropy":
            return LpEntropy(_dist(obj["mu"], f"{path}.mu"),
                             _num(obj["p"], f"{path}.p"))
        if kind == "shortfall":
            return Shortfall(_dist(obj["mu"], f"{path}.mu"),
                             parse_loss(obj["loss"], f"{path}.loss"))
        if kind in ("robust", "set_indicator"):
            gens = obj.get("generators")
            if not isinstance(gens, list) or not gens:
                raise ConfigError(f"{path}.generators: need a nonempty list")
            space = FiniteSpace.of_size(len(_num_list(gens[0],
                                                      f"{path}.generators[0]")))
            dists = tuple(_dist(g, f"{path}.generators[{i}]", space)
                          for i, g in enumerate(gens))
            return Robust(dists) if kind == "robust" else SetIndicator(dists)
        if kind == "transport":
            mu = _dist(obj["mu"], f"{path}.mu")
            return Transport(mu, np.asarray(_matrix(obj["cost"],
                                                    f"{path}.cost")))
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: missing required key") from exc
    except SpaceError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown spec kind {kind!r}")


def parse_simplex_function(obj, m, path="F"):
    """A function of the law on m states, rows in: it maps a (B, m) array
    of laws to their (B,) values."""
    _check_keys(obj, path, required=("kind",),
                optional=("value", "coeffs", "coordinate", "center", "scale"))
    kind = obj["kind"]
    if kind == "constant":
        c = _num(obj.get("value", 0.0), f"{path}.value")
        return lambda nu: np.full(len(nu), c)
    if kind == "linear":
        coeffs = np.asarray(_num_list(obj["coeffs"], f"{path}.coeffs"))
        return lambda nu: nu @ coeffs
    coord = obj.get("coordinate", 0)
    if isinstance(coord, bool) or coord not in range(m):
        raise ConfigError(f"{path}.coordinate: expected an integer in "
                          f"[0, {m}), got {coord!r}")
    coord = int(coord)
    center = _num(obj.get("center", 0.5), f"{path}.center")
    scale = _num(obj.get("scale", -1.0), f"{path}.scale")
    if kind == "square_well":
        return lambda nu: scale * (nu[:, coord] - center) ** 2
    if kind == "abs_well":
        return lambda nu: scale * np.abs(nu[:, coord] - center)
    raise ConfigError(f"{path}.kind: unknown function kind {kind!r}")


def parse_law(obj, path="law"):
    _check_keys(obj, path, required=("kind",),
                optional=("a", "df", "sigma", "centered", "atoms", "weights",
                          "samples"))
    kind = obj["kind"]
    try:
        if kind == "pareto":
            return ParetoLaw(_num(obj["a"], f"{path}.a"),
                             bool(obj.get("centered", True)))
        if kind == "student_t":
            return StudentTLaw(_num(obj["df"], f"{path}.df"))
        if kind == "lognormal":
            return LogNormalLaw(_num(obj["sigma"], f"{path}.sigma"),
                                bool(obj.get("centered", True)))
        if kind == "finite":
            return FiniteSupportLaw(np.asarray(_num_list(obj["atoms"],
                                                         f"{path}.atoms")),
                                    np.asarray(_num_list(obj["weights"],
                                                         f"{path}.weights")))
        if kind == "empirical":
            return EmpiricalLaw(np.asarray(_num_list(obj["samples"],
                                                     f"{path}.samples")))
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: missing required key") from exc
    raise ConfigError(f"{path}.kind: unknown law kind {kind!r}")


def _sampled_law(obj, path="law"):
    """A law the Monte Carlo experiments can draw from."""
    law = parse_law(obj, path)
    if isinstance(law, EmpiricalLaw):
        raise ConfigError(f"{path}.kind: an empirical law cannot be sampled")
    return law


def _grid(obj, path):
    _check_keys(obj, path, required=("lo", "hi", "count"))
    lo = _num(obj["lo"], f"{path}.lo")
    hi = _num(obj["hi"], f"{path}.hi")
    count = _pos_int(obj["count"], f"{path}.count")
    if count < 2 or not hi > lo:
        raise ConfigError(f"{path}: need hi > lo and count >= 2")
    return np.linspace(lo, hi, count)


def _pos_int(value, path):
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value) and value == int(value) and value >= 1:
        return int(value)
    raise ConfigError(f"{path}: expected a positive integer, got {value!r}")


def _schedule(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of integers")
    return [_pos_int(v, f"{path}[{i}]") for i, v in enumerate(value)]


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
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
    spec = parse_spec(cfg["spec"])
    f = np.asarray(_num_list(cfg["f"], "f"))
    if f.size != spec_space(spec).size:
        raise ConfigError("f: length must match the spec's space size")
    if cfg.get("generic", False):
        result = generic_risk(f, spec,
                              restarts=_pos_int(cfg.get("restarts", 200),
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
    F = parse_simplex_function(cfg["F"], spec_space(spec).size)
    schedule = _schedule(cfg["schedule"], "schedule")
    step = _num(cfg.get("grid_step", 0.01), "grid_step")
    if isinstance(spec, Transport):
        run = dp.transport_longrun(F, spec.mu, spec.cost, schedule,
                                   grid_step=step)
    else:
        run = dp.sanov_limit(F, spec, schedule, grid_step=step)
    write_json(out / "report.json", run.to_json_dict())
    write_csv(out / "table.csv", ("n", "v_n", "target", "gap"), run.csv_rows())
    for n, v, g in zip(run.schedule, run.values, run.gaps):
        print(f"n={n:6d}  v_n={v: .9f}  gap={g:.3e}")
    print(f"target = {run.target:.9f}")
    return EXIT_OK


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
    _check_keys(cfg, "config", required=("experiment",),
                optional=("law", "q", "r", "schedule", "replications",
                          "family", "n", "seed"))
    experiment = cfg["experiment"]
    if experiment == "mean_tail":
        law = _sampled_law(cfg["law"])
        q = _num(cfg["q"], "q")
        replications = _pos_int(cfg.get("replications", 10000),
                                "replications")
        schedule = _schedule(cfg["schedule"], "schedule")
        mq = moment_norm(law, q)
        r = _num(cfg["r"], "r") if "r" in cfg else mq + 1.0
        if not r > mq:
            raise ConfigError("r: must exceed the moment constant M_q")
        try:
            ests = [mc.estimate_tail(law, n, r, replications, seed=seed)
                    for n in schedule]
        except ValueError as exc:
            raise InconclusiveError(str(exc)) from exc
        bounds = [deviation_bound(r, mq, q, n) for n in schedule]
        ratios = [e.p_hat / b if b > 0 else math.inf
                  for e, b in zip(ests, bounds)]
        fit = mc.rate_fit(schedule, [e.p_hat for e in ests])
        write_csv(out / "estimates.csv", ("n", "r", "p_hat", "lo", "hi",
                                          "bound"),
                  [e.csv_row(b) for e, b in zip(ests, bounds)])
        write_json(out / "report.json", {
            "experiment": "mean_tail", "q": q, "r": r, "moment": mq,
            "bound_ratio_slack": mc.BOUND_RATIO_SLACK,
            "ratios": ratios,
            "bound_ok": all(rt <= mc.BOUND_RATIO_SLACK for rt in ratios),
            "slope": fit.slope, "slope_upper95": fit.upper95,
            "slope_budget": (1.0 - q) + mc.SLOPE_SLACK,
            "fit_status": fit.status,
        })
        for e, b in zip(ests, bounds):
            print(f"n={e.n:7d}  p_hat={e.p_hat:.3e}  bound={b:.3e}")
        if fit.status != "ok":
            raise InconclusiveError("rate fit needs >= 3 schedule points "
                                    "with hits")
        print(f"slope={fit.slope:.3f} (upper95 {fit.upper95:.3f}, "
              f"budget {(1.0 - q) + mc.SLOPE_SLACK:.3f})")
        return EXIT_OK
    if experiment == "azuma":
        family_name = cfg.get("family", "rademacher")
        if family_name not in mc.INCREMENT_FAMILIES:
            raise ConfigError(f"family: unknown increment family "
                              f"{family_name!r}")
        family = mc.INCREMENT_FAMILIES[family_name]()
        r = _num(cfg["r"], "r")
        n = _pos_int(cfg["n"], "n")
        replications = _pos_int(cfg.get("replications", 10000),
                                "replications")
        if replications < 1000:
            raise InconclusiveError("need at least 1e3 replications")
        res = mc.azuma_experiment(family, r, n, replications, seed=seed)
        write_json(out / "report.json", {
            "experiment": "azuma", "family": family_name, "n": n, "r": r,
            "p_hat": res.p_hat, "hits": res.hits,
            "phi_star": res.phi_star,
            "empirical_exponent": res.empirical_exponent,
            "budget": res.budget, "ok": res.ok,
            "exact_tail": res.exact_tail,
        })
        print(f"p_hat={res.p_hat:.3e}  (1/n)log p = "
              f"{res.empirical_exponent:.4f}  budget={res.budget:.4f}  "
              f"ok={res.ok}")
        return EXIT_OK if res.ok else EXIT_NUMERIC
    raise ConfigError(f"experiment: unknown experiment {experiment!r}")


def _parse_saa_instance(cfg) -> mc.SAAInstance:
    dec = cfg["decisions"]
    if isinstance(dec, dict):
        decisions = _grid(dec, "decisions")
    else:
        decisions = np.asarray(_num_list(dec, "decisions"))
    loss_obj = cfg["loss"]
    _check_keys(loss_obj, "loss", required=("kind",), optional=("x0",))
    kind = loss_obj["kind"]
    if kind == "abs_diff":
        loss = lambda x, w: np.abs(w - x)
    elif kind == "well_linear":
        x0 = _num(loss_obj.get("x0", 1.0), "loss.x0")
        loss = lambda x, w: (x - x0) ** 2 + x * w
    else:
        raise ConfigError(f"loss.kind: unknown loss kind {kind!r}")
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
    instance = _parse_saa_instance(cfg)
    schedule = _schedule(cfg["schedule"], "schedule")
    replications = _pos_int(cfg["replications"], "replications")
    if replications < 1000:
        raise InconclusiveError("need at least 1e3 replications")
    experiment = cfg.get("experiment", "value")
    if experiment == "value":
        run = mc.saa_run(instance, schedule, replications, seed)
    elif experiment == "argmin":
        try:
            run = mc.argmin_tracking(instance, schedule, replications, seed)
        except mc.GrowthValidationError as exc:
            raise ConfigError(f"growth: {exc}") from exc
    else:
        raise ConfigError(f"experiment: unknown experiment {experiment!r}")
    write_csv(out / "estimates.csv", ("n", "r", "p_hat", "lo", "hi", "bound"),
              [e.csv_row() for e in run.estimates])
    payload = {
        "experiment": experiment,
        "schedule": run.schedule,
        "p_hat": [e.p_hat for e in run.estimates],
        "scaled": run.scaled,
        "mann_kendall_p": run.mann_kendall_p,
        "slope": run.fit.slope, "slope_upper95": run.fit.upper95,
        "slope_budget": run.slope_budget, "fit_status": run.fit.status,
    }
    if experiment == "value":
        payload["true_value"] = run.true_value
    else:
        payload["argmin"] = run.argmin
    write_json(out / "report.json", payload)
    for e, s in zip(run.estimates, run.scaled):
        print(f"n={e.n:6d}  p_hat={e.p_hat:.3e}  scaled={s:.3e}")
    print(f"mann_kendall_p={run.mann_kendall_p:.3f}  "
          f"slope={run.fit.slope:.3f} ({run.fit.status})")
    return EXIT_OK


def cmd_superhedge(cfg, out: Path, seed: int) -> int:
    _check_keys(cfg, "config", required=("spec", "f"), optional=("seed",))
    spec = parse_spec(cfg["spec"])
    space = spec_space(spec)
    f = np.asarray(_num_list(cfg["f"], "f"))
    cert = dp.superhedge(f, space, spec)
    write_json(out / "certificate.json", cert.to_json_dict())
    print(f"y = {cert.y:.12g}  residual_max = {cert.residual_max:.3e}  "
          f"slice_risk_max = {cert.slice_risk_max:.3e}")
    if cert.residual_max > 1e-8 or cert.slice_risk_max > 1e-7:
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
    F = parse_simplex_function(cfg["F"], mu.m)
    schedule = _schedule(cfg["schedule"], "schedule")
    step = _num(cfg.get("grid_step", 0.01), "grid_step")
    n_chk = _pos_int(cfg.get("control_check_n", 2), "control_check_n")
    if mu.m ** min(n_chk, 25) > DENSE_CAP:     # 2^25 already exceeds it
        raise ConfigError(f"control_check_n: a control field of {mu.m}^"
                          f"{n_chk} entries exceeds the dense cap of "
                          f"{DENSE_CAP}")
    run = dp.transport_longrun(F, mu, cost, schedule, grid_step=step)
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
    if abs(run.target - run.coupling_target) > 1e-6:
        raise ArithmeticError("transport limit targets disagree beyond 1e-6")
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
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = args.out if args.out is not None else Path.cwd() / "out"
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0)) \
        if isinstance(cfg, dict) else 0

    try:
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

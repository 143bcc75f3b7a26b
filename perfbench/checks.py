"""Correctness checks on the CLI's output files.

An operation passes when the CLI returned 0 and its outputs agree with
either the values recorded in `reference.json` (seed-invariant operations)
or an exact recomputation done here with numpy alone (seeded dense fields
and the generic transport rho).  Reruns are checked separately by hashing
every output file except `manifest.json`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Recorded values: |value - ref| <= REF_TOL * max(1, |ref|).  Permuting the
# state labels only reorders floating-point sums, and the limit targets come
# from an ascent stopped at 1e-9 in the gradient, so 1e-7 leaves a wide
# margin while still catching any change of method or formula.
REF_TOL = 1e-7
# Dense recursions: the CLI's bisection stops at a relative width of 1e-10
# per stage; 16 stages stay well inside 1e-8.
DENSE_TOL = 1e-8
# The CLI's own certificate gates, repeated here on the written file.
RESIDUAL_MAX = 1e-8
SLICE_RISK_MAX = 1e-7


def _num(x):
    if isinstance(x, str):
        return float(x)
    return x


def _csv_values(path: Path) -> list[float]:
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return [float(r[1]) for r in rows[1:]]


def extract(command: str, out: Path) -> dict:
    """The seed-invariant values an operation reports."""
    rep = json.loads((out / "report.json").read_text())
    if command == "cramer":
        return {"cumulant": _csv_values(out / "cumulant.csv"),
                "rate": _csv_values(out / "rate.csv"),
                "moment": rep["moment"], "minorant_ok": rep["minorant_ok"],
                "convex_dual": rep["convex_dual"],
                "convex_primal": rep["convex_primal"]}
    if command == "sanov":
        return {"v_n": rep["v_n"], "target": rep["target"]}
    if command == "transport":
        return {"v_n": rep["v_n"], "target": rep["target"],
                "coupling_target": rep["coupling_target"]}
    if command == "tailbound" and rep["experiment"] == "mean_tail":
        return {"moment": rep["moment"], "bound_ok": rep["bound_ok"],
                "fit_status": rep["fit_status"]}
    if command == "tailbound":
        return {"phi_star": rep["phi_star"], "exact_tail": rep["exact_tail"],
                "ok": rep["ok"]}
    if command == "saa":
        key = "true_value" if rep["experiment"] == "value" else "argmin"
        return {key: rep[key], "fit_status": rep["fit_status"]}
    raise ValueError(f"no recorded values for command {command!r}")


def _compare(got, ref, tol, path="") -> str | None:
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: {got!r} is not a list of {len(ref)} values"
        for i, (g, r) in enumerate(zip(got, ref)):
            err = _compare(g, r, tol, f"{path}[{i}]")
            if err:
                return err
        return None
    if ref is None or isinstance(ref, bool) or \
            isinstance(ref, str) and ref not in ("inf", "-inf"):
        return None if got == ref else f"{path}: {got!r} != {ref!r}"
    g, r = _num(got), _num(ref)
    if math.isinf(r):
        return None if g == r else f"{path}: {g!r} != {r!r}"
    if not abs(g - r) <= tol * max(1.0, abs(r)):
        return f"{path}: {g!r} differs from {r!r} by more than {tol:g}"
    return None


def _compare_dict(got: dict, ref: dict, tol: float) -> str | None:
    for key in ref:
        err = _compare(got.get(key), ref[key], tol, key)
        if err:
            return err
    return None


# ---------------------------------------------------------------------------
# Exact one-step risks for the dense fields (independent of the package)
# ---------------------------------------------------------------------------

def _power2_rows(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """inf{m : sum_i w_i ((1 + f_i - m)^+)^2 <= 1} in closed form.

    On the piece where exactly the k largest entries h = 1 + f are active
    the level equation is a quadratic in m; its smaller root is the answer
    on the first piece that contains it.
    """
    H = 1.0 + F
    order = np.argsort(-H, axis=1)
    hs = np.take_along_axis(H, order, axis=1)
    ws = w[order]
    A = np.cumsum(ws, axis=1)
    B = np.cumsum(ws * hs, axis=1)
    C = np.cumsum(ws * hs * hs, axis=1)
    with np.errstate(invalid="ignore"):
        roots = (B - np.sqrt(B * B - A * (C - 1.0))) / A
    below = np.concatenate([hs[:, 1:], np.full((H.shape[0], 1), -np.inf)],
                           axis=1)
    valid = roots >= below
    return roots[np.arange(H.shape[0]), np.argmax(valid, axis=1)]


def _one_step(spec: dict, rows: np.ndarray) -> np.ndarray:
    w = np.asarray(spec["mu"], dtype=float)
    kind = spec["kind"]
    if kind == "relative_entropy":
        top = rows.max(axis=1)
        return top + np.log(np.exp(rows - top[:, None]) @ w)
    if kind == "transport":
        c = np.asarray(spec["cost"], dtype=float)
        return (rows[:, None, :] - c[None, :, :]).max(axis=2) @ w
    if kind == "shortfall" and spec["loss"] == {"kind": "power_plus", "q": 2} \
            or kind == "lp_entropy" and spec["p"] == 2:
        return _power2_rows(rows, w)
    raise ValueError(f"no exact one-step risk for {spec!r}")


def dense_value(spec: dict, f) -> float:
    """n-step value of a dense field by the backward recursion."""
    g = np.asarray(f, dtype=float)
    m = len(spec["mu"])
    while g.size > 1:
        g = _one_step(spec, g.reshape(-1, m))
    return float(g[0])


def transport_rho(spec: dict, f) -> float:
    """int sup_y (f(y) - c(x, y)) dmu(x)."""
    return float(_one_step(spec, np.asarray(f, dtype=float)[None, :])[0])


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

def check(op: dict, out: Path, reference: dict) -> str | None:
    """None when the outputs of a successful CLI call are right, else why."""
    kind = op["check"]["kind"]
    cfg = op["config"]
    if kind == "exit_zero":
        return None
    if kind == "reference":
        if op["name"] not in reference:
            return "no recorded reference values"
        got = extract(op["command"], out)
        return _compare_dict(got, reference[op["name"]], REF_TOL)
    if kind == "superhedge":
        cert = json.loads((out / "certificate.json").read_text())
        if not cert["residual_max"] <= RESIDUAL_MAX:
            return f"residual_max {cert['residual_max']!r}"
        if not cert["slice_risk_max"] <= SLICE_RISK_MAX:
            return f"slice_risk_max {cert['slice_risk_max']!r}"
        return _compare(cert["y"], dense_value(cfg["spec"], cfg["f"]),
                        DENSE_TOL, "y")
    if kind == "transport_rho":
        rep = json.loads((out / "report.json").read_text())
        return _compare(rep["value"], transport_rho(cfg["spec"], cfg["f"]),
                        REF_TOL, "value")
    raise ValueError(f"unknown check kind {kind!r}")


def output_hashes(out: Path) -> dict:
    """sha256 of every output file except the manifest."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.is_file() and p.name != "manifest.json"}

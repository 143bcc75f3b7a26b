"""Seeded generator of the benchmark's CLI operations.

Every operation is one `sanovdual <command> --config ... --seed ...` call.
The workload seed decides the inputs:

* each operation's `--seed` is a 64-bit hash of (workload seed, operation
  name), so consecutive workload seeds give unrelated Monte Carlo streams;
* `limits` relabels the states by a seeded permutation, which leaves every
  reported value unchanged, so the values recorded in `reference.json`
  still apply;
* `dense` draws its superhedging fields from the seed and is checked
  against an exact recursion in `checks.py`;
* `cramer` shuffles the atoms of its finite law.

An operation is a plain dict, so a plan can be written as JSON for the
worker: name, command, config, seed, check, and whether it is the known
failure probe (run every pass, counted in `error_rate`, kept out of
`wall_s`).
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

def op_seed(workload_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{workload_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _rng(workload_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(op_seed(workload_seed, name))


def _op(seed, name, command, config, check, known_failure=False):
    return {"name": name, "command": command, "config": config,
            "seed": op_seed(seed, name), "check": check,
            "known_failure": known_failure}


# ---------------------------------------------------------------------------
# limits: type-class recursion and Sanov limit targets on three states
# ---------------------------------------------------------------------------

MU3 = [0.5, 0.3, 0.2]
GENERATORS3 = [[0.6, 0.25, 0.15], [0.3, 0.4, 0.3]]
COST3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


def _permute(vec, perm):
    return [vec[i] for i in perm]


def _well(perm, center=0.7):
    # Square well on the state labelled 0 before relabelling.
    return {"kind": "square_well", "coordinate": perm.index(0),
            "center": center}


def limits_ops(seed: int) -> list[dict]:
    perms = list(itertools.permutations(range(3)))
    perm = list(perms[int(_rng(seed, "limits.perm").integers(len(perms)))])
    mu = _permute(MU3, perm)
    gens = [_permute(g, perm) for g in GENERATORS3]
    F = _well(perm)
    ref = {"kind": "reference"}
    ops = [
        _op(seed, "limits.relative_entropy", "sanov",
            {"spec": {"kind": "relative_entropy", "mu": mu}, "F": F,
             "schedule": [30, 60, 90], "grid_step": 0.02}, ref),
        _op(seed, "limits.lp_entropy", "sanov",
            {"spec": {"kind": "lp_entropy", "mu": mu, "p": 2}, "F": F,
             "schedule": [20, 40, 60], "grid_step": 0.02}, ref),
        _op(seed, "limits.shortfall", "sanov",
            {"spec": {"kind": "shortfall", "mu": mu,
                      "loss": {"kind": "power_plus", "q": 2}}, "F": F,
             "schedule": [15, 30], "grid_step": 0.1}, ref),
        _op(seed, "limits.robust", "sanov",
            {"spec": {"kind": "robust", "generators": gens}, "F": F,
             "schedule": [15, 30], "grid_step": 0.1}, ref),
        _op(seed, "limits.set_indicator", "sanov",
            {"spec": {"kind": "set_indicator", "generators": gens}, "F": F,
             "schedule": [15, 30], "grid_step": 0.1}, ref),
    ]
    perm2 = [0, 1] if int(_rng(seed, "limits.perm2").integers(2)) == 0 \
        else [1, 0]
    ops.append(_op(seed, "limits.transport", "transport",
                   {"mu": _permute([0.6, 0.4], perm2),
                    "cost": [[0.0, 1.0], [1.0, 0.0]],
                    "F": {"kind": "abs_well", "coordinate": perm2.index(0),
                          "center": 0.9},
                    "schedule": [4, 8, 16], "grid_step": 0.01,
                    "control_check_n": 8}, ref))
    return ops


def probe_op(seed: int) -> dict:
    """3-state transport: currently dies with an uncaught ValueError when the
    limit-target ascent steps off the simplex into solve_transport."""
    perms = list(itertools.permutations(range(3)))
    perm = list(perms[int(_rng(seed, "probe.perm").integers(len(perms)))])
    cost = [[COST3[i][j] for j in perm] for i in perm]
    return _op(seed, "probe.transport_3state", "transport",
               {"mu": _permute(MU3, perm), "cost": cost, "F": _well(perm),
                "schedule": [2], "grid_step": 0.1, "control_check_n": 2},
               {"kind": "exit_zero"}, known_failure=True)


# ---------------------------------------------------------------------------
# dense: wide risk_rows batches, certificates and generic transport rho
# ---------------------------------------------------------------------------

def _field(seed, name, size):
    return _rng(seed, name + ".field").normal(size=size).tolist()


def dense_ops(seed: int) -> list[dict]:
    two = [0.5, 0.5]
    specs = [
        ("dense.superhedge_shortfall",
         {"kind": "shortfall", "mu": two,
          "loss": {"kind": "power_plus", "q": 2}}, 2 ** 16),
        ("dense.superhedge_relative_entropy",
         {"kind": "relative_entropy", "mu": two}, 2 ** 16),
        ("dense.superhedge_transport",
         {"kind": "transport", "mu": two, "cost": [[0.0, 1.0], [1.0, 0.0]]},
         2 ** 16),
        ("dense.superhedge_lp_entropy",
         {"kind": "lp_entropy", "mu": [0.4, 0.3, 0.2, 0.1], "p": 2}, 4 ** 8),
    ]
    ops = [_op(seed, name, "superhedge",
               {"spec": spec, "f": _field(seed, name, size)},
               {"kind": "superhedge"})
           for name, spec, size in specs]
    # A fixed field and two restarts (the uniform and the closed-form
    # start): random restarts make the work of the ascent vary several-fold
    # from seed to seed.
    m = 6
    cost = [[0.5 * abs(i - j) for j in range(m)] for i in range(m)]
    ops.append(_op(seed, "dense.rho_generic_transport", "rho",
                   {"spec": {"kind": "transport", "mu": [1.0 / m] * m,
                             "cost": cost},
                    "f": [0.412, 1.043, -0.129, 1.366, -0.665, 0.352],
                    "generic": True, "restarts": 2},
                   {"kind": "transport_rho"}))
    return ops


# ---------------------------------------------------------------------------
# cramer: heavy-tail cumulant and rate function by quadrature
# ---------------------------------------------------------------------------

def cramer_ops(seed: int) -> list[dict]:
    ref = {"kind": "reference"}
    atoms, weights = [-1.0, 0.5, 2.0], [0.3, 0.5, 0.2]
    order = _rng(seed, "cramer.finite.order").permutation(3).tolist()
    return [
        _op(seed, "cramer.pareto", "cramer",
            {"law": {"kind": "pareto", "a": 2.5, "centered": True}, "q": 2,
             "dual_grid": {"lo": -0.4, "hi": 0.4, "count": 9},
             "primal_grid": {"lo": -0.3, "hi": 0.3, "count": 3}}, ref),
        _op(seed, "cramer.pareto_light", "cramer",
            {"law": {"kind": "pareto", "a": 3.5, "centered": True}, "q": 3,
             "dual_grid": {"lo": -0.3, "hi": 0.3, "count": 5},
             "primal_grid": {"lo": -0.2, "hi": -0.1, "count": 2}}, ref),
        _op(seed, "cramer.finite", "cramer",
            {"law": {"kind": "finite", "atoms": _permute(atoms, order),
                     "weights": _permute(weights, order)}, "q": 2,
             "dual_grid": {"lo": -0.6, "hi": 0.6, "count": 9},
             "primal_grid": {"lo": -0.5, "hi": 0.5, "count": 5}}, ref),
    ]


# ---------------------------------------------------------------------------
# montecarlo: replication streams, tail estimates and SAA loops
# ---------------------------------------------------------------------------

def montecarlo_ops(seed: int) -> list[dict]:
    pareto = {"kind": "pareto", "a": 2.5, "centered": True}
    saa = {"decisions": {"lo": 0.0, "hi": 2.0, "count": 11},
           "loss": {"kind": "well_linear", "x0": 1.0}, "law": pareto,
           "q": 2, "schedule": [10, 25, 60], "replications": 1000}
    verdict = {"kind": "reference"}
    return [
        _op(seed, "montecarlo.mean_tail", "tailbound",
            {"experiment": "mean_tail", "law": pareto, "q": 2, "r": 1.6,
             "schedule": [5, 10, 20, 50, 100, 300, 1000],
             "replications": 3000},
            verdict),
        _op(seed, "montecarlo.azuma", "tailbound",
            {"experiment": "azuma", "family": "rademacher", "r": 0.3,
             "n": 100, "replications": 10000}, verdict),
        _op(seed, "montecarlo.saa_value", "saa",
            {**saa, "experiment": "value", "epsilon": 0.3}, verdict),
        _op(seed, "montecarlo.saa_argmin", "saa",
            {**saa, "experiment": "argmin", "epsilon": 0.03,
             "growth": {"kind": "quadratic", "scale": 0.9}}, verdict),
    ]


GENERATORS = {"limits": limits_ops, "dense": dense_ops,
              "cramer": cramer_ops, "montecarlo": montecarlo_ops}
WORKLOADS = tuple(GENERATORS)


def plan(workload: str, seed: int) -> list[dict]:
    """Operations of one pass, in run order; the probe runs last."""
    return GENERATORS[workload](seed) + [probe_op(seed)]

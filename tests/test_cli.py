import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy

from oracles import (abs_well_transport_sup, golden_max,
                     transport_level_cost)
from sanovdual import cli, dp, montecarlo as mc
from sanovdual.cli import (EXTENDED, FINITE, GRID_END, LAW, POSITIVE, STEP,
                           ConfigError, _jsonable, _made, _num, _num_list,
                           main, parse_simplex_function, write_json)
from sanovdual.losses import PowerLoss
from sanovdual.penalties import Shortfall
from sanovdual.risk import risk_result
from sanovdual.spaces import Dist

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MU5 = [0.1, 0.15, 0.2, 0.25, 0.3]     # a law on five states


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


DROP = object()     # run_edited: delete the key instead of setting it


def run_edited(tmp_path, command, key, value):
    """Run a small valid config for `command` with the dotted `key` set to
    `value` (or deleted, for DROP); "azuma" is the tailbound experiment."""
    return run_with(tmp_path, command, {key: value})


def run_with(tmp_path, command, edits):
    """``run_edited`` with every (dotted key, value) of `edits` applied."""
    two = [0.5, 0.5]
    grid = {"lo": -0.5, "hi": 0.5, "count": 3}
    payload = {
        "rho": {"spec": {"kind": "relative_entropy", "mu": two},
                "f": [0.0, 1.0], "generic": True},
        "transport": {"mu": two, "cost": [[0.0, 1.0], [1.0, 0.0]],
                      "F": {"kind": "linear", "coeffs": [1.0, 0.0]},
                      "schedule": [1], "grid_step": 0.1},
        "tailbound": {"experiment": "mean_tail",
                      "law": {"kind": "pareto", "a": 2.5}, "q": 2,
                      "schedule": [10, 20, 40]},
        "azuma": {"experiment": "azuma", "r": 0.5, "n": 10,
                  "replications": 1000},
        "saa": {"decisions": [0.0, 1.0], "loss": {"kind": "abs_diff"},
                "law": {"kind": "pareto", "a": 2.5}, "epsilon": 0.2,
                "q": 2, "schedule": [3, 6], "replications": 1000},
        "cramer": {"law": {"kind": "finite", "atoms": [-1.0, 1.0],
                           "weights": two},
                   "q": 2, "dual_grid": grid, "primal_grid": dict(grid)},
        "sanov": {"spec": {"kind": "relative_entropy", "mu": two},
                  "F": {"kind": "square_well"}, "schedule": [2]},
    }[command]
    for key, value in edits.items():
        *parents, leaf = key.split(".")
        obj = payload
        for name in parents:
            obj = obj[name]
        if value is DROP:
            del obj[leaf]
        else:
            obj[leaf] = value
    cfg = write_config(tmp_path, payload)
    return main(["tailbound" if command == "azuma" else command,
                 "--config", str(cfg), "--out", str(tmp_path / "out")])


def strict_json(path: Path):
    """The JSON file at ``path``, which must hold no NaN or infinity:
    RFC 8259 has no such constants."""
    def reject(name):
        raise ValueError(f"{path.name}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def tree_digest(out_dir: Path, skip=("manifest.json",)) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.rglob("*")):
        if p.is_file() and p.name not in skip:
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "spec": {"kind": "relative_entropy", "mu": [0.5, 0.5]},
            "f": [0.0, 1.0],
            "bogus": 1,
        })
        code = main(["rho", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_spec_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "spec": {"kind": "entropic"}, "f": [0.0, 1.0]})
        code = main(["rho", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "spec.kind" in capsys.readouterr().err

    def test_set_indicator_face_cap(self, tmp_path, capsys):
        # 30 generators on 10 states: about 5e7 faces of at most 10 vertices.
        gens = np.random.default_rng(0).dirichlet(np.ones(10), size=30)
        cfg = write_config(tmp_path, {
            "spec": {"kind": "set_indicator", "generators": gens.tolist()},
            "f": [0.0] * 10})
        out = tmp_path / "out"
        assert main(["rho", "--config", str(cfg), "--out", str(out)]) == 2
        assert "spec: set indicator: 30 generators on 10 states" \
            in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_config(self, tmp_path):
        assert main(["rho", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["rho", "--config", str(p)]) == 2

    @pytest.mark.parametrize("spec, f, key", [
        ({"kind": "relative_entropy", "mu": [math.nan, math.nan]},
         [0.0, 1.0], "spec.mu[0]"),
        ({"kind": "shortfall", "mu": [0.5, 0.5],
          "loss": {"kind": "power_plus", "q": 2}}, [math.nan, 1.0], "f[0]"),
    ], ids=["mu", "f"])
    def test_nan_literal_is_config_error(self, tmp_path, capsys, spec, f,
                                         key):
        # json.loads reads the NaN literal that json.dumps writes.
        cfg = write_config(tmp_path, {"spec": spec, "f": f})
        assert "NaN" in cfg.read_text()
        out = tmp_path / "out"
        assert main(["rho", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key}: not a number: nan" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("spec, f, key", [
        ({"kind": "relative_entropy", "mu": [10 ** 400, 1.0]},
         [0.0, 1.0], "spec.mu[0]"),
        ({"kind": "shortfall", "mu": [0.5, 0.5],
          "loss": {"kind": "power_plus", "q": 2}}, [10 ** 400, 1.0], "f[0]"),
    ], ids=["mu", "f"])
    def test_int_too_large_for_a_float_in_a_list(self, tmp_path, capsys,
                                                 spec, f, key):
        cfg = write_config(tmp_path, {"spec": spec, "f": f})
        out = tmp_path / "out"
        assert main(["rho", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key}: integer too large for a float" \
            in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_int_too_large_for_a_float_field(self, tmp_path, capsys):
        assert run_edited(tmp_path, "azuma", "r", 10 ** 400) == 2
        assert "r: integer too large for a float" in capsys.readouterr().err

    def test_azuma_radius_past_the_increments_bound(self, tmp_path):
        # +-1 increments never reach a mean above 1: the exact tail is 0.
        # At r = 1e308 it overflowed (n r) and exited 3.
        assert run_edited(tmp_path, "azuma", "r", 1e308) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["exact_tail"] == 0.0 and report["hits"] == 0

    def test_int_literal_over_the_digit_limit(self, tmp_path):
        p = tmp_path / "long.json"
        p.write_text('{"seed": ' + "1" * 5000 + "}")
        assert main(["rho", "--config", str(p)]) == 2

    @pytest.mark.parametrize("command, key, value", [
        ("rho", "restarts", "many"),
        ("rho", "restarts", -3),
        ("rho", "restarts", 2.5),
        ("rho", "seed", "many"),
        ("rho", "seed", -1),
        ("transport", "control_check_n", "two"),
        ("transport", "control_check_n", 0),
        ("transport", "control_check_n", 25),   # 2^25 entries: over the cap
        ("tailbound", "replications", "many"),
        ("azuma", "n", 2.5),
        ("azuma", "n", "inf"),
        ("saa", "replications", "many"),
        ("cramer", "dual_grid.count", "many"),
        ("sanov", "F.coordinate", 5),
        ("sanov", "F.coordinate", 0.5),
        pytest.param("azuma", "replications", 10 ** 400,   # beyond a float
                     id="azuma-replications-10**400"),
        pytest.param("rho", "seed", -10 ** 400, id="rho-seed--10**400"),
        ("rho", "seed", 2 ** 64),
        # Monte Carlo sample sizes stay below 2^56, the stream id's n field.
        ("azuma", "n", 2 ** 60),
        ("saa", "schedule", [3, 2 ** 60]),
        ("tailbound", "schedule", [10, 20, 2 ** 56]),
        # A type-class level of 2^24 + 1 classes: over the dense cap.
        ("sanov", "schedule", [2, 2 ** 24]),
        ("transport", "schedule", [1, 2 ** 24]),
        # Grids of 2^24 + 1 points: over the dense cap.
        ("cramer", "dual_grid.count", 2 ** 24 + 1),
        ("saa", "decisions", {"lo": 0.0, "hi": 1.0, "count": 2 ** 24 + 1}),
    ])
    def test_integer_fields_are_validated(self, tmp_path, capsys, command,
                                          key, value):
        assert run_edited(tmp_path, command, key, value) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, edits, named", [
        ("cramer", {"law": {"kind": "pareto", "a": 2.5, "centered": True,
                            "df": 3, "samples": [1, 2]}}, "law.df"),
        ("cramer", {"law": {"kind": "finite", "atoms": [-1.0, 1.0],
                            "weights": [0.5, 0.5], "centered": True}},
         "law.centered"),
        ("sanov", {"spec": {"kind": "relative_entropy", "mu": [0.5, 0.5],
                            "p": 7, "cost": [[0, 1], [1, 0]]}}, "spec.p"),
        ("sanov", {"F": {"kind": "linear", "coeffs": [0.1, 0.2],
                         "center": 0.3}}, "F.center"),
        ("sanov", {"F.value": 1.0}, "F.value"),
        ("rho", {"spec": {"kind": "shortfall", "mu": [0.5, 0.5],
                          "loss": {"kind": "exp", "q": 3, "xs": [1]}}},
         "spec.loss.q"),
        ("azuma", {"law": {"kind": "pareto", "a": 2.5}}, "config.law"),
        ("azuma", {"q": 2}, "config.q"),
        ("azuma", {"schedule": [10, 20]}, "config.schedule"),
        ("tailbound", {"family": "uniform"}, "config.family"),
        ("tailbound", {"n": 10}, "config.n"),
        ("azuma", {"family": ["rademacher"]},
         "family: unknown increment family"),
        ("azuma", {"family": {}}, "family: unknown increment family"),
        ("rho", {"generic": DROP, "restarts": 5}, "restarts"),
        ("rho", {"generic": False, "restarts": 5}, "restarts"),
        ("saa", {"growth": {"kind": "quadratic"}}, "growth"),
        ("saa", {"loss.x0": 2.0}, "loss.x0"),
    ])
    def test_keys_of_another_kind_are_config_errors(self, tmp_path, capsys,
                                                    command, edits, named):
        assert run_with(tmp_path, command, edits) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value, named", [
        ("rho", "generic", "no", "generic"),
        ("rho", "generic", 1, "generic"),
        ("tailbound", "law.centered", "false", "law.centered"),
        ("saa", "law.centered", 0, "law.centered"),
        ("cramer", "law", {"kind": "lognormal", "sigma": 0.5,
                           "centered": "false"}, "law.centered"),
    ])
    def test_boolean_fields_are_validated(self, tmp_path, capsys, command,
                                          key, value, named):
        assert run_edited(tmp_path, command, key, value) == 2
        assert f"{named}: expected true or false" in capsys.readouterr().err

    def test_boolean_false_is_honoured(self):
        for obj in ({"kind": "pareto", "a": 2.5, "centered": False},
                    {"kind": "lognormal", "sigma": 0.5, "centered": False}):
            assert _made(obj, "law", LAW).centered is False
            assert _made({**obj, "centered": True}, "law", LAW).centered \
                is True

    @pytest.mark.parametrize("command, key", [
        ("tailbound", "law"),
        ("tailbound", "q"),
        ("tailbound", "schedule"),
        ("azuma", "n"),
        ("azuma", "r"),
        ("transport", "F.coeffs"),
        ("cramer", "law.weights"),
    ])
    def test_missing_keys_are_named(self, tmp_path, capsys, command, key):
        assert run_edited(tmp_path, command, key, DROP) == 2
        assert f"{key}: missing required key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sanov", "transport"])
    @pytest.mark.parametrize("step", [0, -0.1, 1e-300, 5e-324, 1.5, "inf"])
    def test_grid_step_is_validated(self, tmp_path, capsys, command, step):
        assert run_edited(tmp_path, command, "grid_step", step) == 2
        assert "grid_step: expected a step in (0, 1]" \
            in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_grid_step_of_one_is_the_vertex_grid(self, tmp_path):
        assert run_edited(tmp_path, "sanov", "grid_step", 1.0) == 0

    def test_schedule_entry_over_the_class_cap(self, tmp_path, capsys):
        # n = 10^6 on 3 states has about 5e11 classes at its top level; it
        # is refused before any of them is built.
        cfg = write_config(tmp_path, {
            "spec": {"kind": "relative_entropy", "mu": [0.5, 0.3, 0.2]},
            "F": {"kind": "square_well"}, "schedule": [5, 10 ** 6]})
        out = tmp_path / "out"
        assert main(["sanov", "--config", str(cfg), "--out", str(out)]) == 2
        assert "schedule[1]: n = 1000000 on 3 states exceeds the dense cap" \
            in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command, coeffs", [
        ("transport", [1.0, 0.0, 0.0]),
        ("sanov", [1.0]),
    ])
    def test_linear_coeffs_match_the_states(self, tmp_path, capsys, command,
                                            coeffs):
        assert run_edited(tmp_path, command, "F",
                          {"kind": "linear", "coeffs": coeffs}) == 2
        assert "F.coeffs" in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path, capsys):
        code = main(["transport", "--config",
                     str(CONFIGS / "transport_longrun.json"),
                     "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, edits, named", [
        # An infinite grid end, or a span past the largest float, would
        # make NaN grid points.
        ("cramer", {"dual_grid.lo": "-inf"},
         "dual_grid.lo: a grid end must be finite"),
        ("saa", {"decisions": {"lo": 0, "hi": "inf", "count": 3}},
         "decisions.hi: a grid end must be finite"),
        ("cramer", {"primal_grid.lo": -1e308, "primal_grid.hi": 1e308},
         "primal_grid: hi - lo overflows a float"),
        ("saa", {"decisions": []}, "decisions: expected a nonempty list"),
        ("tailbound", {"r": 0.5}, "r: must exceed the moment constant M_q"),
        ("saa", {"experiment": "median"}, "experiment: unknown experiment"),
        ("saa", {"experiment": "argmin", "growth": {"kind": "cubic"}},
         "growth.kind: only 'quadratic' is supported"),
        # The exceedance radius and the Azuma radius are positive.
        ("saa", {"epsilon": 0}, "epsilon: expected a finite number > 0"),
        ("saa", {"epsilon": -0.2}, "epsilon: expected a finite number > 0"),
        ("azuma", {"r": 0}, "r: expected a finite number > 0"),
        ("azuma", {"r": -0.5}, "r: expected a finite number > 0"),
        # p/(p - 1) rounds to 1, and a power loss needs q > 1: the spec is
        # refused when it is built, not at its first risk evaluation.
        ("rho", {"spec": {"kind": "lp_entropy", "mu": [0.5, 0.5],
                          "p": 1e308}},
         "config error: spec: power loss needs q > 1"),
        ("rho", {"spec": {"kind": "transport", "mu": [0.5, 0.5],
                          "cost": [[0.0, 1.0], [1.0]]}},
         "spec.cost: rows of unequal length"),
        # sum w |x|^q overflowed, and the run reported "moment": Infinity.
        ("cramer", {"law.atoms": [-1.0, 1e308]},
         "config error: law: E|X|^2.0 over its points is not finite"),
        ("cramer", {"law": {"kind": "empirical", "samples": [-1.0, 1e308]}},
         "config error: law: E|X|^2.0 over its points is not finite"),
    ])
    def test_config_values_are_checked(self, tmp_path, capsys, command,
                                       edits, named):
        assert run_with(tmp_path, command, edits) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    # Each value reached a run unchecked: it died with a traceback (saa
    # q), exited 3 with no key named (the laws, azuma r), or exited 0
    # with infinite or NaN targets and values (the rest).
    @pytest.mark.parametrize("command, edits, key", [
        ("saa", {"q": "inf"}, "q"),
        ("cramer", {"q": "inf"}, "q"),
        ("saa", {"epsilon": -1}, "epsilon"),
        ("saa", {"loss": {"kind": "well_linear", "x0": "inf"}}, "loss.x0"),
        ("saa", {"decisions": [0, "inf"]}, "decisions[1]"),
        ("saa", {"experiment": "argmin",
                 "growth": {"kind": "quadratic", "scale": "-inf"}},
         "growth.scale"),
        ("cramer", {"law": {"kind": "pareto", "a": "inf"}}, "law.a"),
        ("cramer", {"law": {"kind": "student_t", "df": "inf"}}, "law.df"),
        ("cramer", {"law": {"kind": "lognormal", "sigma": "inf"}},
         "law.sigma"),
        ("cramer", {"law.atoms": [-1.0, "inf"]}, "law.atoms[1]"),
        ("azuma", {"r": "inf"}, "r"),
        ("azuma", {"r": -1}, "r"),
        *((command, {"F": F}, key) for command in ("sanov", "transport")
          for F, key in [
              ({"kind": "square_well", "center": "inf"}, "F.center"),
              ({"kind": "abs_well", "center": "-inf"}, "F.center"),
              ({"kind": "square_well", "scale": "-inf"}, "F.scale"),
              ({"kind": "constant", "value": "inf"}, "F.value"),
              ({"kind": "linear", "coeffs": [1.0, "inf"]}, "F.coeffs[1]"),
          ]),
    ])
    def test_non_finite_values_are_config_errors(self, tmp_path, capsys,
                                                 command, edits, key):
        assert run_with(tmp_path, command, edits) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command", ["tailbound", "azuma", "saa"])
    def test_small_replication_count_inconclusive(self, tmp_path, capsys,
                                                  command):
        assert run_edited(tmp_path, command, "replications", 999) == 4
        assert "replications: need at least 1000, got 999" \
            in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_mean_tail_fit_on_two_points_is_inconclusive(self, tmp_path,
                                                         capsys):
        assert run_edited(tmp_path, "tailbound", "schedule", [10, 20]) == 4
        assert "rate fit needs >= 3 schedule points with hits" \
            in capsys.readouterr().err
        out = tmp_path / "out"
        report = strict_json(out / "report.json")
        assert report["fit_status"] == "inconclusive"
        assert report["slope"] is None and report["slope_upper95"] is None
        assert len((out / "estimates.csv").read_text().splitlines()) == 3

    def test_azuma_over_its_budget_names_the_stage(self, tmp_path, capsys,
                                                   monkeypatch):
        # A slack of -10 puts the budget below any (1/n) log p_hat with a
        # hit; the report is written before the exit.
        monkeypatch.setattr(mc, "MARTINGALE_SLACK", -10.0)
        assert run_edited(tmp_path, "azuma", "r", 0.5) == 3
        err = capsys.readouterr().err
        assert "numeric failure: azuma: (1/n) log p_hat = " in err
        assert " exceeds the budget -" in err
        report = strict_json(tmp_path / "out" / "report.json")
        assert report["hits"] > 0 and report["ok"] is False

    @pytest.mark.parametrize("command", ["tailbound", "saa"])
    def test_repeated_sample_size_is_config_error(self, tmp_path, capsys,
                                                  command):
        # A repeated n draws its replication stream again: a copy, not a
        # new schedule point.
        assert run_edited(tmp_path, command, "schedule", [10, 20, 10]) == 2
        assert "schedule[2]: 10 repeats an earlier entry" in capsys.readouterr().err


class TestFlagMode:
    def test_deviation_bound_printout(self, capsys):
        code = main(["tailbound", "--Mq", "1", "--r", "2", "--q", "2",
                     "--n", "100"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.01"

    def test_vacuous_radius(self, capsys):
        code = main(["tailbound", "--Mq", "2", "--r", "1", "--q", "2",
                     "--n", "100"])
        assert code == 2

    @pytest.mark.parametrize("mq, r, q, n", [
        ("1", "2", "2", "0"),          # n^(1-q) divides by zero
        ("-1", "2", "2.5", "10"),      # a negative base to a real power
        ("1", "2", "2", "-5"),         # prints a negative "bound"
    ])
    def test_bad_inputs_are_config_errors(self, capsys, mq, r, q, n):
        code = main(["tailbound", "--Mq", mq, "--r", r, "--q", q, "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: need")


class TestRhoCommand:
    def test_matches_library_byte_for_byte(self, tmp_path):
        code = main(["rho", "--config",
                     str(CONFIGS / "rho_shortfall_power2.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        res = risk_result(np.array([0.0, 1.0]),
                          Shortfall(Dist.uniform(2), PowerLoss(2.0)))
        assert report["value"] == res.value
        assert report["method"] == "root_find"
        assert report["maximizer"] == res.maximizer.weights.tolist()

    def test_entropy_of_zero_field(self, tmp_path):
        cfg = write_config(tmp_path, {
            "spec": {"kind": "relative_entropy", "mu": [0.5, 0.5]},
            "f": [0.0, 0.0]})
        code = main(["rho", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert abs(report["value"]) <= 1e-12

    def test_inf_cost_literal_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {
            "spec": {"kind": "transport", "mu": [0.5, 0.5],
                     "cost": [[0.0, "inf"], ["inf", 0.0]]},
            "f": [0.3, -0.4]})
        code = main(["rho", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        # forced identity relaxation: value is the plain expectation
        assert abs(report["value"] - (0.5 * 0.3 - 0.5 * 0.4)) <= 1e-12


class TestSimplexFunctions:
    KINDS = {
        "constant": {"kind": "constant", "value": 0.4},
        "linear": {"kind": "linear", "coeffs": [0.3, -0.1, 0.7]},
        "square_well": {"kind": "square_well", "coordinate": 1,
                        "center": 0.3, "scale": -2.0},
        "abs_well": {"kind": "abs_well", "coordinate": 2, "center": 0.25,
                     "scale": -1.5},
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_rows_in_values_out(self, kind):
        # A (B, m) batch of laws to its (B,) values, row by row.
        F = parse_simplex_function(self.KINDS[kind], 3)
        assert isinstance(F, dp.SimplexFunction)
        X = np.random.default_rng(7).dirichlet(np.ones(3), size=40)
        assert F(X).shape == (len(X),)
        np.testing.assert_allclose(F(X), [F(x[None])[0] for x in X],
                                   rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("scale", [-2.0, 3.0])
    @pytest.mark.parametrize("kind", ["square_well", "abs_well"])
    def test_bracket_holds_the_slopes_on_the_simplex(self, kind, scale):
        # phi(s) = F at nu_c = s; its slopes at s in [0, 1], by central
        # differences off the kink, lie in the bracket and reach its ends.
        F = parse_simplex_function(dict(self.KINDS[kind], scale=scale), 3)
        c = F.coordinate
        s = np.linspace(0.0, 1.0, 101)
        s = s[np.abs(s - F.center) > 1e-3]

        def phi(s):
            return F(np.outer(s, np.eye(3)[c]))
        slopes = (phi(s + 1e-6) - phi(s - 1e-6)) / 2e-6
        lo, hi = F.bracket
        assert lo <= slopes.min() + 1e-7 and slopes.max() <= hi + 1e-7
        np.testing.assert_allclose([slopes.min(), slopes.max()], [lo, hi],
                                   atol=1e-7)

    @pytest.mark.parametrize("kind, labels", [
        ("constant", [0, 0, 0]), ("linear", [0, 1, 2]),
        ("square_well", [0, 1, 0]), ("abs_well", [0, 0, 1])])
    def test_groups_are_numbered_by_first_appearance(self, kind, labels):
        assert parse_simplex_function(self.KINDS[kind], 3).labels.tolist() \
            == labels


class TestSanovCommand:
    def test_linear_f_has_zero_gap(self, tmp_path):
        cfg = write_config(tmp_path, {
            "spec": {"kind": "relative_entropy", "mu": [0.5, 0.5]},
            "F": {"kind": "linear", "coeffs": [0.3, -0.1]},
            "schedule": [1, 2, 4]})
        code = main(["sanov", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert max(report["gaps"]) <= 1e-6

    def test_bundled_classical_config_meets_gap(self, tmp_path):
        code = main(["sanov", "--config",
                     str(CONFIGS / "sanov_classical.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schedule"][-1] == 200
        assert report["gaps"][-1] <= 0.05
        assert all(a > b for a, b in zip(report["gaps"], report["gaps"][1:]))

    def test_log_env_var_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SANOV_DUAL_LOG", "debug")
        cfg = write_config(tmp_path, {
            "spec": {"kind": "relative_entropy", "mu": [0.5, 0.5]},
            "f": [0.1, 0.2]})
        assert main(["rho", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0

    def test_set_indicator_gap_shrinks(self, tmp_path):
        code = main(["sanov", "--config",
                     str(CONFIGS / "sanov_set_indicator.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        gaps = report["gaps"]
        assert gaps[-1] <= gaps[0] + 1e-12
        csv_lines = (tmp_path / "out" / "table.csv").read_text().splitlines()
        assert csv_lines[0] == "n,v_n,target,gap"
        assert len(csv_lines) == 1 + len(report["schedule"])

    def test_set_indicator_nearly_coincident_generators(self, tmp_path):
        # Two of the three generators agree to about 7e-3.  The target is a
        # grid point of the hull, below the sup 0.7955 at the first
        # generator; a generator judged outside its own hull made it -inf.
        gens = np.random.default_rng(1).dirichlet(np.ones(3), size=3)
        cfg = write_config(tmp_path, {
            "spec": {"kind": "set_indicator", "generators": gens.tolist()},
            "F": {"kind": "linear", "coeffs": [0, 0, 1]},
            "schedule": [5, 10], "grid_step": 0.01})
        assert main(["sanov", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert math.isfinite(report["target"])
        assert report["target"] <= gens[:, 2].max() <= 0.7956
        assert all(math.isfinite(g) for g in report["gaps"])


    @pytest.mark.parametrize("key, value", [("center", 1e308),
                                            ("scale", -1e308)])
    def test_overflowing_well_is_a_config_error(self, tmp_path, capsys, key,
                                                value):
        # n F(nu) would be -inf at some class of n = 200: the run reported
        # v_n = -inf, target -inf and NaN gaps.
        payload = json.loads((CONFIGS / "sanov_classical.json").read_text())
        payload["F"][key] = value
        cfg = write_config(tmp_path, payload)
        assert main(["sanov", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
        assert f"config error: F.{key}: n F(nu) overflows a float on the " \
            f"simplex at n = 200" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("mu, step, F, n, code", [
        # Two groups: C(302, 2) classes over the levels 0..300.
        (MU5, 0.1, {"kind": "square_well", "coordinate": 2, "center": 0.4},
         300, 0),
        # Five groups: C(305, 5), about 2.1e10, over the dense cap.
        (MU5, 0.1, {"kind": "linear", "coeffs": [0.1, 0.2, 0.3, 0.4, 0.5]},
         300, 2),
        # Thirty groups and n < g: the top level alone has C(37, 8), about
        # 3.9e7 classes, more than the C(37, 7) of the levels below it.
        ([1.0 / 30] * 30, 0.5, {"kind": "linear", "coeffs": list(range(30))},
         8, 2)])
    def test_class_cap_counts_the_groups(self, tmp_path, capsys, mu, step, F,
                                         n, code):
        cfg = write_config(tmp_path, {
            "spec": {"kind": "relative_entropy", "mu": mu},
            "F": F, "schedule": [n], "grid_step": step})
        assert main(["sanov", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == code
        if code:
            assert f"schedule[0]: n = {n} on {len(mu)} states exceeds the " \
                f"dense cap" in capsys.readouterr().err
        else:
            report = json.loads(
                (tmp_path / "out" / "report.json").read_text())
            assert math.isfinite(report["v_n"][0])


class TestSaaCommand:
    def test_huge_q_is_a_config_error(self, tmp_path, capsys):
        # 6^(q - 1) overflows: the run died with an OverflowError that
        # named no key.
        payload = json.loads((CONFIGS / "saa_small.json").read_text())
        cfg = write_config(tmp_path, {**payload, "q": 1e308})
        assert main(["saa", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
        assert "config error: q: n^(q - 1) overflows a float at n = 6" \
            in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_inconclusive_fit_is_valid_json(self, tmp_path):
        # At 1,000 replications two of the four points have no hit: the
        # fit is inconclusive, and its slopes are null, not a bare NaN.
        payload = json.loads((CONFIGS / "saa_heavytail.json").read_text())
        cfg = write_config(tmp_path, {**payload, "replications": 1000})
        assert main(["saa", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 0
        report = strict_json(tmp_path / "out" / "report.json")
        assert report["fit_status"] == "inconclusive"
        assert report["slope"] is None and report["slope_upper95"] is None

    def test_argmin_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "decisions": {"lo": 0.0, "hi": 2.0, "count": 5},
            "loss": {"kind": "well_linear", "x0": 1.0},
            "law": {"kind": "finite", "atoms": [-1.0, 1.0],
                    "weights": [0.5, 0.5]},
            "epsilon": 0.2, "q": 2,
            "schedule": [5, 20], "replications": 2000,
            "experiment": "argmin",
            "growth": {"kind": "quadratic", "scale": 0.9}})
        code = main(["saa", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["experiment"] == "argmin"
        assert report["argmin"] == 1.0

    def test_growth_violation_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "decisions": [0.0, 1.0],
            "loss": {"kind": "abs_diff"},
            "law": {"kind": "finite", "atoms": [0.0, 1.0],
                    "weights": [0.5, 0.5]},
            "epsilon": 0.2, "q": 2,
            "schedule": [5], "replications": 2000,
            "experiment": "argmin",
            "growth": {"kind": "quadratic", "scale": 100.0}})
        code = main(["saa", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "growth" in capsys.readouterr().err


class TestSuperhedgeCommand:
    def test_bundled_certificate(self, tmp_path):
        code = main(["superhedge", "--config",
                     str(CONFIGS / "superhedge_power2.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert cert["residual_max"] <= 1e-8
        assert cert["slice_risk_max"] <= 1e-7

    @pytest.mark.parametrize("case", ["bundled_2^3", "three_state_3^5"])
    def test_certificate_files_on_their_own(self, tmp_path, case):
        # Read back only certificate.json and increments.npy: the layout
        # comes from the certificate, and y plus the increments telescope
        # back to the config's f.
        if case == "bundled_2^3":
            config = CONFIGS / "superhedge_power2.json"
        else:
            config = write_config(tmp_path, {
                "spec": {"kind": "lp_entropy", "mu": [0.5, 0.3, 0.2],
                         "p": 2},
                "f": np.random.default_rng(5).normal(size=3 ** 5).tolist()})
        cfg = json.loads(config.read_text())
        m = len(cfg["spec"]["mu"])
        out = tmp_path / "out"
        assert main(["superhedge", "--config", str(config),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "certificate.json", "increments.npy", "manifest.json"]
        cert = json.loads((out / "certificate.json").read_text())
        layout = cert["increments"]
        assert layout["file"] == "increments.npy" and layout["m"] == m
        n = layout["n"]
        assert len(cfg["f"]) == m ** n
        flat = np.load(out / layout["file"])
        assert flat.dtype.str == "<f8"
        assert flat.shape == ((m ** (n + 1) - m) // (m - 1),)
        total = np.zeros(1)
        for k in range(1, n + 1):
            start = (m ** k - m) // (m - 1)
            total = np.repeat(total, m) + flat[start:start + m ** k]
        residual = np.abs(np.asarray(cfg["f"]) - cert["y"] - total).max()
        assert residual <= cert["residual_max"] <= 1e-8
        assert cert["slice_risk_max"] <= 1e-7


    @pytest.mark.parametrize("bad", [-math.inf, math.inf])
    def test_non_finite_field_is_config_error(self, tmp_path, capsys, bad):
        # json.dumps writes the entry as -Infinity or Infinity.
        cfg = write_config(tmp_path, {
            "spec": {"kind": "relative_entropy", "mu": [0.5, 0.5]},
            "f": [0.0, bad, 1.0, 2.0]})
        out = tmp_path / "out"
        assert main(["superhedge", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "f[1]" in capsys.readouterr().err
        assert not (out / "certificate.json").exists()

    @pytest.mark.parametrize("field", ["residual_max", "slice_risk_max"])
    def test_nan_certificate_fails_its_gate(self, tmp_path, monkeypatch,
                                            capsys, field):
        real = dp.superhedge

        def nan_cert(*args):
            cert = real(*args)
            setattr(cert, field, math.nan)
            return cert

        monkeypatch.setattr(dp, "superhedge", nan_cert)
        assert main(["superhedge", "--config",
                     str(CONFIGS / "superhedge_power2.json"),
                     "--out", str(tmp_path / "out")]) == 3
        assert "out of tolerance" in capsys.readouterr().err


class TestTransportCommand:
    def test_longrun_with_control_check(self, tmp_path):
        # The 2-state square well has its optimum off the grid, at
        # nu_0 = 0.7333, so the ascent must climb from the grid maximum at
        # 0.73 to match the coupling target.
        two_state = write_config(tmp_path, {
            "mu": [0.5, 0.5], "cost": [[0.0, 1.0], [1.0, 0.0]],
            "F": {"kind": "square_well", "coordinate": 0, "center": 0.9,
                  "scale": -3.0},
            "schedule": [2], "grid_step": 0.01, "control_check_n": 2},
            name="two.json")
        # Two 3-state runs.  The first has its optimum, nu = mu, on the
        # grid.  The second has it off the grid, at (0.7333, 0.0667, 0.2)
        # with value -19/60: the coupling ascent must climb from the grid
        # maximum -0.32, and the exact solve at its second marginal must
        # agree with it.
        cost3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        three_state = write_config(tmp_path, {
            "mu": [0.5, 0.3, 0.2], "cost": cost3,
            "F": {"kind": "square_well", "coordinate": 0, "center": 0.7},
            "schedule": [2], "grid_step": 0.1, "control_check_n": 2},
            name="three.json")
        off_grid = write_config(tmp_path, {
            "mu": [0.5, 0.3, 0.2], "cost": cost3,
            "F": {"kind": "square_well", "coordinate": 0, "center": 0.9,
                  "scale": -3.0},
            "schedule": [2], "grid_step": 0.1, "control_check_n": 2},
            name="off_grid.json")
        for k, cfg in enumerate([CONFIGS / "transport_longrun.json",
                                 two_state, three_state, off_grid]):
            out = tmp_path / f"out{k}"
            code = main(["transport", "--config", str(cfg),
                         "--out", str(out)])
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            assert abs(report["target"] - report["coupling_target"]) <= 1e-6
            assert report["control_gap"] <= 1e-10

    @pytest.mark.parametrize("command", ["transport", "sanov"])
    def test_kink_target_is_certified(self, tmp_path, command):
        # An abs_well whose sup sits on its kink, nu_2 = 0.75: the coupling
        # ascent of earlier versions stalled there, 9.5e-3 short, and the
        # run exited 3.  Both commands run the same path.  The oracle is a
        # golden search over s = nu_2 of -3 |s - 0.75| less the least
        # transport cost at nu_2 = s, a linear program.
        mu, cost = [0.2, 0.2, 0.6], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        edits = {"F": {"kind": "abs_well", "coordinate": 2, "center": 0.75,
                       "scale": -3}, "schedule": [2], "grid_step": 0.1}
        if command == "transport":
            edits.update(mu=mu, cost=cost)
        else:
            edits["spec"] = {"kind": "transport", "mu": mu, "cost": cost}
        assert run_with(tmp_path, command, edits) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        _, want = golden_max(lambda s: -3.0 * abs(s - 0.75) -
                             transport_level_cost(mu, cost, 2, s), 0.0, 1.0)
        assert report["certified"]
        for key in ("target", "upper_bound", "coupling_target"):
            assert abs(report[key] - want) <= 1e-9

    def test_abs_well_sweep_is_certified(self, tmp_path):
        # 60 seeded 3-state abs_well runs: mu, the coordinate, the centre
        # and the scale drawn from default_rng(2026) in that order.  The
        # coupling ascent of earlier versions put 6 of them at exit 0 with
        # a target short by up to 1.6e-2 and 9 at exit 3.  The oracle is
        # the sup over couplings as one linear program.
        rng = np.random.default_rng(2026)
        cost = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
        for k in range(60):
            mu = rng.dirichlet(np.ones(3))
            c = int(rng.integers(3))
            center, scale = rng.uniform(0.1, 0.9), rng.uniform(-4.0, -0.5)
            out = tmp_path / f"out{k}"
            cfg = write_config(tmp_path, {
                "mu": mu.tolist(), "cost": cost.tolist(),
                "F": {"kind": "abs_well", "coordinate": c,
                      "center": center, "scale": scale},
                "schedule": [2], "grid_step": 0.1})
            assert main(["transport", "--config", str(cfg),
                         "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["certified"]
            assert abs(report["upper_bound"] - report["target"]) <= \
                1e-9 * (1.0 + abs(report["target"]))
            want = abs_well_transport_sup(mu, cost, c, center, -scale)
            assert abs(report["target"] - want) <= 1e-9

    @pytest.mark.parametrize("command", ["transport", "sanov"])
    def test_a_dual_gap_fails_the_gate(self, tmp_path, capsys, monkeypatch,
                                       command):
        # A certified target whose upper bound lies 1e-6 above it, or a
        # NaN bound, exits 3 and names the stage; the report is written.
        real = dp.sanov_limit
        for shift in (1e-6, math.nan):
            def loose(*args, **kwargs):
                run = real(*args, **kwargs)
                run.upper_bound = run.target + shift
                return run
            monkeypatch.setattr(dp, "sanov_limit", loose)
            assert run_edited(tmp_path, command, "schedule", [1]) == 3
            assert "numeric failure: limit target: dual gap" in \
                capsys.readouterr().err
            report = json.loads(
                (tmp_path / "out" / "report.json").read_text())
            assert report["certified"]

    @pytest.mark.parametrize("gate, stage", [
        ("COUPLING_TOL", "limit target: |target - coupling_target| = "),
        ("CONTROL_TOL", "control check: |control_value - recursion_value| = "),
    ], ids=["coupling", "control"])
    def test_a_gap_over_its_tolerance_fails_the_gate(
            self, tmp_path, capsys, monkeypatch, gate, stage):
        # A bound of -1 fails every gap, 0 included; the message names the
        # stage, the gap and the bound, and the report is written.
        monkeypatch.setattr(cli, gate, -1.0)
        assert run_edited(tmp_path, "transport", "schedule", [1]) == 3
        err = capsys.readouterr().err
        assert f"numeric failure: {stage}" in err
        assert err.rstrip().endswith("exceeds -1")
        assert (tmp_path / "out" / "report.json").exists()


class TestCramerCommand:
    def test_tables_and_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "law": {"kind": "finite", "atoms": [-1.0, 1.0],
                    "weights": [0.5, 0.5]},
            "q": 2,
            "dual_grid": {"lo": -0.6, "hi": 0.6, "count": 7},
            "primal_grid": {"lo": -0.5, "hi": 0.5, "count": 5}})
        code = main(["cramer", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["minorant_ok"] and report["convex_dual"]
        assert abs(report["moment"] - 1.0) <= 1e-10
        lines = (tmp_path / "out" / "cumulant.csv").read_text().splitlines()
        assert lines[0] == "point,value" and len(lines) == 8

    def test_inadmissible_law_is_config_error(self, tmp_path):
        empirical = {"kind": "empirical", "samples": [-1.0, 0.5, 2.0]}
        saa = {"decisions": [0.0, 1.0], "loss": {"kind": "abs_diff"},
               "epsilon": 0.2, "q": 2, "schedule": [3, 6],
               "replications": 1000}
        cases = [
            ("cramer", {"law": {"kind": "pareto", "a": 1.5}, "q": 2,
                        "dual_grid": {"lo": -0.5, "hi": 0.5, "count": 3},
                        "primal_grid": {"lo": -0.5, "hi": 0.5,
                                        "count": 3}}),
            ("saa", {**saa, "law": {"kind": "pareto", "a": 0.9}}),
            ("saa", {**saa, "law": empirical}),
            ("saa", {**saa, "law": {"kind": "pareto", "a": 1.5}}),
            ("tailbound", {"experiment": "mean_tail", "law": empirical,
                           "q": 2, "r": 2.0, "schedule": [10, 30, 100],
                           "replications": 1000}),
            ("tailbound", {"experiment": "mean_tail",
                           "law": {"kind": "pareto", "a": 1.5},
                           "q": 2, "r": 2.0, "schedule": [10, 30, 100],
                           "replications": 1000}),
        ]
        for i, (command, payload) in enumerate(cases):
            cfg = write_config(tmp_path, payload, name=f"cfg{i}.json")
            assert main([command, "--config", str(cfg), "--out",
                         str(tmp_path / f"out{i}")]) == 2, payload["law"]


class TestDeterminism:
    @pytest.mark.parametrize("command,config", [
        ("rho", "rho_shortfall_power2.json"),
        ("sanov", "sanov_set_indicator.json"),
        ("superhedge", "superhedge_power2.json"),
    ])
    def test_rerun_is_hash_identical(self, tmp_path, command, config):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main([command, "--config", str(CONFIGS / config),
                         "--out", str(out), "--seed", "11"])
            assert code == 0
            outs.append(tree_digest(out))
        assert outs[0] == outs[1]

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "out"
        main(["rho", "--config", str(CONFIGS / "rho_shortfall_power2.json"),
              "--out", str(out), "--seed", "9"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert "config_sha256" in manifest and "versions" in manifest

    def test_manifest_versions(self, tmp_path):
        out = tmp_path / "out"
        main(["rho", "--config", str(CONFIGS / "rho_shortfall_power2.json"),
              "--out", str(out)])
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert versions["scipy"] == scipy.__version__
        assert versions["numpy"] == np.__version__


class TestJsonWriter:
    def test_matches_indented_json_dumps(self, tmp_path):
        floats = [0.1, -2.5e-300, 1e300, 3.0, -0.0]
        payload = {
            "floats": floats,
            "non_finite": [1.0, math.inf, -math.inf, math.nan],
            "mixed": [1, 2.5, True, None, "x"],
            "np_floats": [np.float64(0.1), np.float64(-3.0)],
            "array": np.array([[0.25, 1.0], [2.0, -1.5]]),
            "int_array": np.arange(3),
            "scalars": {"f64": np.float64(2.0), "i64": np.int64(-7),
                        "bool_": np.bool_(True),
                        "inf64": np.float64(-np.inf)},
            "nested": {"empty_list": [], "empty_dict": {},
                       "rows": [floats, [], [{"deep": (0.5, 1.5)}]],
                       "tuple": (1.0, 2.0)},
            "flags": [True, False], "none": None, "int": 3,
            "text": "café ∑ \"quoted\"\n",
            "inf": math.inf, "nan": math.nan,
        }
        path = tmp_path / "out.json"
        write_json(path, payload)
        assert path.read_text() == json.dumps(
            payload, indent=2, sort_keys=True, default=_jsonable) + "\n"

    def test_non_finite_spelling(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": math.inf, "b": [-math.inf, math.nan, 0.5],
                          "c": np.float64(-np.inf)})
        assert path.read_text() == (
            '{\n  "a": Infinity,\n  "b": [\n    -Infinity,\n    NaN,\n'
            '    0.5\n  ],\n  "c": -Infinity\n}\n')


class TestNumList:
    def test_both_paths_give_equal_values(self):
        plain = [0, 1, -2, 0.5, 1e300, -0.0, 2 ** 60]
        for domain in (FINITE, EXTENDED):
            out = _num_list(plain, "f", domain)
            assert out.dtype == np.float64
            assert out.tolist() == [_num(v, "f", domain) for v in plain]
        extended = plain + ["inf", "-inf"]
        assert _num_list(extended, "f", EXTENDED).tolist() == \
            [_num(v, "f", EXTENDED) for v in plain] + [math.inf, -math.inf]
        with pytest.raises(ConfigError, match=r"^f\[7\]: expected a finite"):
            _num_list(extended, "f", FINITE)

    @pytest.mark.parametrize("domain", [FINITE, EXTENDED, POSITIVE, STEP,
                                        GRID_END],
                             ids=["finite", "extended", "positive", "step",
                                  "grid_end"])
    @pytest.mark.parametrize("value", [0, -0.0, 1, 1e308, math.inf,
                                       -math.inf, math.nan, 2 ** 53 + 1,
                                       10 ** 400],
                             ids=["0", "-0.0", "1", "1e308", "inf", "-inf",
                                  "nan", "2^53+1", "10^400"])
    def test_array_and_number_give_one_verdict(self, domain, value):
        # A one-entry list is checked as an array, a number as a float.
        try:
            want = _num(value, "f[0]", domain)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                _num_list([value], "f", domain)
            assert str(got.value) == str(exc)
        else:
            out = _num_list([value], "f", domain)
            assert out.dtype == np.float64
            assert out.tobytes() == np.float64(want).tobytes()
        if value == 10 ** 400:
            with pytest.raises(ConfigError, match=r"^f\[0\]: integer too "
                               r"large for a float$"):
                _num_list([value], "f", domain)

    @pytest.mark.parametrize("bad", [True, "nan", [1.0], False, "1.0"])
    def test_bad_entry_is_named(self, bad):
        with pytest.raises(ConfigError) as exc:
            _num_list([1.0, 2, bad], "f", EXTENDED)
        with pytest.raises(ConfigError) as ref:
            _num(bad, "f[2]", EXTENDED)
        assert str(exc.value) == str(ref.value) == \
            f"f[2]: not a number: {bad!r}"

    def test_nan_entry_is_named(self):
        with pytest.raises(ConfigError, match=r"^f\[1\]: not a number: nan$"):
            _num_list([1.0, math.nan, 2], "f", FINITE)
        with pytest.raises(ConfigError, match=r"^f: not a number: nan$"):
            _num(math.nan, "f", EXTENDED)

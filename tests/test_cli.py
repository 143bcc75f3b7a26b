import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sanovdual.cli import main
from sanovdual.losses import PowerLoss
from sanovdual.penalties import Shortfall
from sanovdual.risk import risk_result
from sanovdual.spaces import Dist, FiniteSpace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


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

    def test_missing_config(self, tmp_path):
        assert main(["rho", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["rho", "--config", str(p)]) == 2

    @pytest.mark.parametrize("command, key, value", [
        ("rho", "restarts", "many"),
        ("rho", "restarts", -3),
        ("rho", "restarts", 2.5),
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
    ])
    def test_integer_fields_are_validated(self, tmp_path, capsys, command,
                                          key, value):
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
        *parents, leaf = key.split(".")
        obj = payload
        for name in parents:
            obj = obj[name]
        obj[leaf] = value
        cfg = write_config(tmp_path, payload)
        code = main(["tailbound" if command == "azuma" else command,
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_small_replication_count_inconclusive(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "mean_tail",
            "law": {"kind": "pareto", "a": 2.5},
            "q": 2, "r": 2.5, "schedule": [10, 20, 40],
            "replications": 100,
        })
        code = main(["tailbound", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 4


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


class TestRhoCommand:
    def test_matches_library_byte_for_byte(self, tmp_path):
        code = main(["rho", "--config",
                     str(CONFIGS / "rho_shortfall_power2.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        space = FiniteSpace.of_size(2)
        res = risk_result(np.array([0.0, 1.0]),
                          Shortfall(Dist.uniform(space), PowerLoss(2.0)))
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


class TestSaaCommand:
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

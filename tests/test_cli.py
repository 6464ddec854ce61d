"""CLI dispatch, config validation, report determinism, artifacts."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import dynkit
from dynkit._util import fill_rows, write_csv
from dynkit import cli
from dynkit.cli import main, run_subcommand, validate_config
from dynkit.phase_space import BoxSet, Domain, Grid
from dynkit.svg import CANVAS, PALETTE, emit_plot


def cat_config(tmp_path, depth=5, **extra):
    cfg = {
        "map": {"name": "cat"},
        "grid": {"lower": [0, 0], "upper": [1, 1],
                 "periodic": [True, True], "depth": [depth, depth]},
        "eps_box_diameters": 1.0,
        "rng_seed": 0,
        "out": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


class TestConfigValidation:
    def test_empty_config_exits_2(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        res = run_cli(["cr", "--config", str(path)])
        assert res.exit_code == 2
        assert "map" in res.output  # names the missing field

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"map": {"name": "cat"}, "bogus": 1}))
        res = run_cli(["graph", "--config", str(path)])
        assert res.exit_code == 2
        assert "bogus" in res.output

    def test_depth_cap(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({
            "map": {"name": "cat"},
            "grid": {"lower": [0, 0], "upper": [1, 1], "depth": [13, 13]}}))
        res = run_cli(["graph", "--config", str(path)])
        assert res.exit_code == 2

    def test_grid_past_the_box_cap_exits_2_before_allocating(
            self, tmp_path, capsys, monkeypatch):
        # a 3-D depth-9 grid: 2**27 boxes, twice MAX_NBOXES; the refusal
        # comes before the 3 GB of box centers
        monkeypatch.setattr(Grid, "centers",
                            lambda self: pytest.fail("box centers built"))
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "map": {"name": "poly", "dimension": 3, "components": [
                [{"c": 0.5, "e": e}] for e in ([1, 0, 0], [0, 1, 0],
                                               [0, 0, 1])]},
            "grid": {"lower": [-1] * 3, "upper": [1] * 3, "depth": [9] * 3},
            "out": str(tmp_path / "out")}))
        tracemalloc.start()
        try:
            code = run_subcommand("graph", str(path), None, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 1 << 24
        assert (f"grid has {2 ** 27} boxes; the transition graph holds at "
                f"most {2 ** 26}") in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_bad_tolerance_rejected(self, tmp_path):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({
            "map": {"name": "cat"}, "tolerances": {"tol_fix": 0.0}}))
        res = run_cli(["graph", "--config", str(path)])
        assert res.exit_code == 2

    def test_unknown_subcommand_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dynkit.cli", "frobnicate",
             "--config", "x.json"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_unreadable_config(self):
        res = run_cli(["cr", "--config", "/nonexistent/x.json"])
        assert res.exit_code == 2

    def test_poly_degree_over_cap_exits_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "poly", "dimension": 1,
                    "components": [[{"c": 1.0, "e": [5]}]]},
            "grid": {"lower": [-1], "upper": [1], "depth": [4]}}))
        res = run_cli(["cr", "--config", str(path)])
        assert res.exit_code == 2
        assert "degree" in res.output

    def test_map_grid_dimension_mismatch_exits_2(self, tmp_path, monkeypatch):
        from dynkit import chain_graph
        built = []
        monkeypatch.setattr(chain_graph, "build_graph",
                            lambda *a, **k: built.append(1))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "cat"},
            "grid": {"lower": [0], "upper": [1], "periodic": [True],
                     "depth": [4]}}))
        res = run_cli(["all", "--config", str(path)])
        assert res.exit_code == 2
        assert "dimension" in res.output
        assert not built

    def test_point_of_wrong_dimension_exits_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "cat"}, "experiment": {"x0": [0.1], "N": 10}}))
        res = run_cli(["shadow", "--config", str(path)])
        assert res.exit_code == 2
        assert "x0" in res.output

    @pytest.mark.parametrize("sub", ["all", "conley-verify", "attractors"])
    def test_zero_eps_for_blocks_exits_2(self, tmp_path, sub):
        path = cat_config(tmp_path, depth=3, eps=0, eps_box_diameters=None)
        res = run_cli([sub, "--config", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.output and "eps > 0" in res.output

    def test_negative_eps_exits_2(self, tmp_path):
        path = cat_config(tmp_path, depth=3, eps_box_diameters=-1.0)
        res = run_cli(["cr", "--config", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.output and "eps" in res.output

    @pytest.mark.parametrize("points", [[[0.1]], [[0.1, 0.2, 0.3]], 0.5,
                                        [[0.1, "x"]]])
    def test_strong_cr_points_of_wrong_shape_exit_2(self, tmp_path, points):
        path = cat_config(tmp_path, depth=3, experiment={"points": points})
        res = run_cli(["strong-cr", "--config", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.output and "points" in res.output

    def test_non_block_candidate_exits_2(self, tmp_path):
        # with include_sink the candidate is not filtered by the block search
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "poly", "dimension": 1,
                    "components": [[{"c": 1.5, "e": [1]},
                                    {"c": -0.5, "e": [3]}]]},
            "grid": {"lower": [-2.0], "upper": [2.0], "depth": [8]},
            "eps": 0,
            "experiment": {"candidate_rle": [[10, 20]], "include_sink": True},
            "out": str(tmp_path / "out")}))
        res = run_cli(["attractors", "--config", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.output and "candidate_rle" in res.output

    def test_include_sink_without_candidate_exits_2(self, tmp_path,
                                                    monkeypatch):
        # with the sink included no block is searched for, so without a
        # candidate the run tested nothing and reported n_blocks 0
        from dynkit import chain_graph
        built = []
        monkeypatch.setattr(chain_graph, "build_graph",
                            lambda *a, **k: built.append(1))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "contraction", "c": 0.5, "dim": 1},
            "grid": {"lower": [-1.0], "upper": [1.0], "depth": [6]},
            "eps": 0.05, "experiment": {"include_sink": True},
            "out": str(tmp_path / "out")}))
        res = run_cli(["attractors", "--config", str(path)])
        assert res.exit_code == 2 and not built
        assert "config error" in res.output
        assert "include_sink" in res.output and "candidate_rle" in res.output
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("experiment", [
        {"candidate_rle": [[1]]}, {"candidate_rle": "x"},
        {"candidate_rle": [[-3, 2]]}, {"candidate_rle": [[60, 10]]},
        {"candidate_rle": [[10, -2]]}, {"include_sink": "false"},
        {"candidate_rle": []},
    ])
    def test_malformed_attractor_inputs_exit_2(self, tmp_path, monkeypatch,
                                               experiment):
        # 64 boxes; before validation these raised, or silently picked
        # wrapped, truncated or empty candidates, or read "false" as true;
        # each is refused before the graph is built
        from dynkit import chain_graph
        built = []
        monkeypatch.setattr(chain_graph, "build_graph",
                            lambda *a, **k: built.append(1))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "poly", "dimension": 1,
                    "components": [[{"c": 1.5, "e": [1]},
                                    {"c": -0.5, "e": [3]}]]},
            "grid": {"lower": [-2.0], "upper": [2.0], "depth": [6]},
            "eps": 0.015625, "experiment": experiment,
            "out": str(tmp_path / "out")}))
        res = run_cli(["attractors", "--config", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.output
        assert next(iter(experiment)) in res.output
        assert not (tmp_path / "out" / "report.json").exists()
        assert not built

    @pytest.mark.parametrize("sub, experiment", [
        ("shadow", {"eps": 0}), ("shadow", {"grid_resolution": 0}),
        ("shadow", {"N": -3}),
        ("splice", {"q": [0.3, 0.7], "x0": [0.31, 0.69], "eps": -1e-4}),
        ("splice", {"q": [0.3, 0.7], "x0": [0.31, 0.69], "grid_resolution": 0}),
        ("shadow", {"N": "abc"}), ("manifolds", {"period": 0}),
        ("homoclinic", {"arclength": "x"}), ("accumulate", {"radii": "a"}),
        ("accumulate", {"arclength_schedule": []}), ("volume", {"samples": 0}),
        ("escape", {"K_lower": [0, 0], "K_upper": [1, 1], "samples": 0}),
        ("strong-cr", {"n_samples": -1}), ("strong-cr", {"eps_fn_c": 0}),
        ("homoclinic", {"max_seg": 0}), ("homoclinic", {"max_seg": -1}),
        ("splice", {"q": [0.3, 0.7], "x0": [0.31, 0.69], "n_back": -3}),
        ("accumulate", {"allow_missing": "no"}),
        ("strong-cr", {"eps_fn": "bogus"}), ("strong-cr", {"max_len": "x"}),
        ("shadow", {"max_seg": 0.01}), ("all", {"max_seg": 0.01}),
        ("accumulate", {"q": [0, 0]}), ("accumulate", {"q": [0.5, 0.5]}),
        ("homoclinic", {"arclength": 3, "max_seg": 0.5}),
        ("accumulate", {"arclength_schedule": [3], "max_seg": 0.5}),
    ])
    def test_shadow_search_parameters_exit_2(self, tmp_path, sub, experiment):
        # any subcommand's experiment; the last key is the malformed one,
        # or one the subcommand does not read
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "cat"}, "delta": 2e-2, "experiment": experiment,
            "grid": {"lower": [0, 0], "upper": [1, 1],
                     "periodic": [True, True], "depth": [3, 3]}}))
        res = run_cli([sub, "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "config error" in res.output
        assert list(experiment)[-1] in res.output
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("sub, config, needle", [
        ("cr", {"eps": "x"}, "eps"),
        ("cr", {"grid": {"lower": 0, "upper": [1, 1], "depth": [3, 3]}},
         "grid.lower"),
        ("cr", {"map": [1, 2]}, "map"),
        ("cr", {"experiment": [1]}, "experiment"),
        ("cr", {"tolerances": {"tol_rec": 1e-3}}, "tol_rec"),
        ("manifolds", {"tolerances": {"tol_hyp": 10.0}}, "hyperbolic"),
        ("manifolds", {"map": {"name": "linear", "a": -2.0, "b": 0.5},
                       "grid": {"lower": [-1, -1], "upper": [1, 1],
                                "depth": [2, 2]}}, "orientation-reversing"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, sub, config, needle):
        path = cat_config(tmp_path, depth=3, **config)
        res = run_cli([sub, "--config", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.output and needle in res.output
        assert not (tmp_path / "out" / "report.json").exists()

    def test_grid_past_graph_limit_exits_2(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "contraction", "c": 0.5, "dim": 3},
            "grid": {"lower": [-1, -1, -1], "upper": [1, 1, 1],
                     "depth": [9, 9, 9]}}))
        res = run_cli(["graph", "--config", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.output and "boxes" in res.output

    @pytest.mark.parametrize("mp", [
        {"name": "poly", "dimension": 1, "components": [[{"c": 0.5, "e": [1.5]}]]},
        {"name": "poly", "dimension": 1, "components": [[{"c": 0.5, "e": [True]}]]},
        {"name": "poly", "dimension": 1, "components": [[{"c": "0.5", "e": [1]}]]},
        {"name": "poly", "dimension": 1, "components": [[{"c": True, "e": [1]}]]},
        {"name": "poly", "dimension": 1,
         "components": [[{"c": 0.5, "e": [1], "x": 0}]]},
        {"name": "poly", "dimension": 1,
         "components": [[{"c": float("nan"), "e": [1]}]]},
        {"name": "poly", "dimension": "1", "components": [[{"c": 0.5, "e": [1]}]]},
        {"name": "poly", "dimension": 1.7, "components": [[{"c": 0.5, "e": [1]}]]},
        {"name": "standard", "K": True}, {"name": "standard", "K": float("nan")},
        {"name": "linear", "a": float("nan"), "b": 0.5},
        {"name": "rotation", "alpha": float("inf")},
        {"name": "contraction", "c": 0.5, "dim": True},
        {"name": "poly", "dimension": 1, "alpha": "x",
         "components": [[{"c": 0.5, "e": [1]}]]},
        {"name": "poly", "dimension": 1, "dim": 2,
         "components": [[{"c": 0.5, "e": [1]}]]},
        {"name": "poly", "dim": 1, "components": [[{"c": 0.5, "e": [1]}]]},
        {"name": "cat", "dimension": 3},
    ], ids=["e-1.5", "e-true", "c-str", "c-true", "extra-key", "c-nan",
            "dimension-str", "dimension-1.7", "K-true", "K-nan", "a-nan",
            "alpha-inf", "dim-true", "poly-alpha", "poly-dim", "poly-dim-only",
            "cat-dimension"])
    def test_bad_map_parameter_values_exit_2(self, tmp_path, mp):
        # each of these but dim-true once ran (exit 0, or 1 on a failed
        # SVD) on a value read as something else, not finite, or not read
        dim = 1 if mp["name"] in ("poly", "rotation") else 2
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": mp, "out": str(tmp_path / "out"),
            "grid": {"lower": [0] * dim, "upper": [1] * dim,
                     "depth": [3] * dim}}))
        res = run_cli(["cr", "--config", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.output and "Traceback" not in res.output
        assert not (tmp_path / "out" / "report.json").exists()
        if mp["name"] == "poly" and "dimension" not in mp:
            # `dim` is no alias of `dimension`
            assert "'dimension'" in res.output

    @pytest.mark.parametrize("sub, mp, grid", [
        ("cr", {"name": "contraction", "c": 0.5, "dim": 1},
         {"lower": [-1e308], "upper": [1e308], "depth": [3]}),
        ("cr", {"name": "poly", "dimension": 1,
                "components": [[{"c": 1e308, "e": [3]}]]},
         {"lower": [-1e3], "upper": [1e3], "depth": [4]}),
        ("strong-cr", {"name": "poly", "dimension": 1,
                       "components": [[{"c": 1e308, "e": [3]}]]},
         {"lower": [-1e3], "upper": [1e3], "depth": [4]}),
    ], ids=["grid-width-inf", "cr-image-inf", "strong-cr-image-inf"])
    def test_non_finite_window_or_image_exits_2(self, tmp_path, sub, mp, grid):
        # the first once reported a chain-recurrent fraction of 0.0, the
        # others ran on after an invalid cast of infinite box indices
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"map": mp, "grid": grid,
                                    "out": str(tmp_path / "out"),
                                    "experiment": {"points": [[1.0]]}
                                    if sub == "strong-cr" else {}}))
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_cli([sub, "--config", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.output and "finite" in res.output
        assert not (tmp_path / "out" / "report.json").exists()

    def test_echo_revalidates(self, tmp_path):
        path = cat_config(tmp_path)
        res = run_cli(["cr", "--config", str(path)])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        echoed = report["config"]
        again = validate_config({k: v for k, v in echoed.items()
                                 if k in ("map", "grid", "eps",
                                          "eps_box_diameters", "delta",
                                          "tolerances", "experiment",
                                          "rng_seed", "out")})
        assert again["grid"] == echoed["grid"]
        assert again["rng_seed"] == echoed["rng_seed"]


class TestExperiments:
    def test_cr_on_cat_reports_full_fraction(self, tmp_path):
        path = cat_config(tmp_path)
        res = run_cli(["cr", "--config", str(path)])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["chain_recurrent_fraction"] == 1.0
        assert (tmp_path / "out" / "chain_recurrent.svg").exists()

    def test_attractors_on_translation_window(self, tmp_path):
        cfg = {
            "map": {"name": "translation"},
            "grid": {"lower": [0, -4], "upper": [8, 4],
                     "periodic": [False, False], "depth": [6, 6]},
            "eps": 0.05,
            "experiment": {
                # truncated U0 is the whole window; tail routed to the sink
                "candidate_rle": [[0, 4096]],
                "include_sink": True,
            },
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        res = run_cli(["attractors", "--config", str(path)])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        rec = report["results"]["records"][0]
        # attractor lies within {y <= 0} boxes
        g = Grid(Domain((0.0, -4.0), (8.0, 4.0), (False, False)), (6, 6))
        A = BoxSet.from_rle(g, rec["attractor"]["rle"])
        centers = g.centers()
        assert not np.any(A.bits & (centers[:, 1] > 0))

    def test_conley_verify_exit_codes(self, tmp_path):
        cfg = {
            "map": {"name": "contraction", "c": 0.5, "dim": 1},
            "grid": {"lower": [-1], "upper": [1],
                     "periodic": [False], "depth": [6]},
            "eps_box_diameters": 0.125,
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        res = run_cli(["conley-verify", "--config", str(path)])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["symmetric_difference"] == 0

    def test_shadow_writes_csv(self, tmp_path):
        cfg = {
            "map": {"name": "cat"},
            "delta": 1e-4,
            "experiment": {"x0": [0.2, 0.3], "N": 40, "eps": 1e-2,
                           "grid_resolution": 1e-3},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        res = run_cli(["shadow", "--config", str(path)])
        assert res.exit_code == 0
        csv = (tmp_path / "out" / "pseudo_orbit.csv").read_text().splitlines()
        assert csv[0] == "index,x0,x1,defect"
        assert len(csv) == 42  # header + 41 points
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["shadowed"] is True

    def test_splice_of_an_overflowing_orbit_is_quiet(self, tmp_path):
        # the orbit of q under linear(2, 0.5) overflows long before the
        # approach budget runs out; the run reports no approach, exit 3,
        # and stderr holds the CLI's own line and no numpy warning
        cfg = {
            "map": {"name": "linear", "a": 2.0, "b": 0.5},
            "delta": 1e-3,
            "experiment": {"q": [0.3, 0.3], "x0": [0.31, 0.31]},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        src = str(Path(dynkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "dynkit.cli", "splice", "--config",
             str(path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"splice: FAILED assertion (exit 3); see {tmp_path / 'out'}"
            "/report.json"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"] == {"spliced": False,
                                     "min_distance": 0.014142135623730963}

    def test_shadow_of_an_overflowing_pseudo_orbit_is_a_config_error(
            self, tmp_path):
        # the 2-D poly saddle (y, -x + 3y - y^3) from near its fixed point
        # overflows within N = 40 steps: exit 2 with one stderr line, no
        # numpy warning, no traceback and no report with a NaN in it
        cfg = {
            "map": {"name": "poly", "dimension": 2, "components": [
                [{"c": 1.0, "e": [0, 1]}],
                [{"c": -1.0, "e": [1, 0]}, {"c": 3.0, "e": [0, 1]},
                 {"c": -1.0, "e": [0, 3]}]]},
            "grid": {"lower": [-2, -2], "upper": [2, 2], "depth": [4, 4]},
            "delta": 0.02, "experiment": {"x0": [0.01, 0.02], "N": 40},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        src = str(Path(dynkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "dynkit.cli", "shadow", "--config",
             str(path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert "not finite" in lines[0] and "point 23" in lines[0]
        assert not (tmp_path / "out").exists()

    def test_shadow_of_a_pseudo_orbit_past_delta_is_a_config_error(
            self, tmp_path):
        # linear(2, 0.5) from (0.3, 0.2): the points round at the ulp of
        # 0.3 * 2^i, so the recomputed defect reaches delta 1e-4 (step 41
        # at rng_seed 0): exit 2 with one stderr line naming delta, N and
        # x0, and no traceback
        cfg = {"map": {"name": "linear", "a": 2.0, "b": 0.5},
               "grid": {"lower": [-1, -1], "upper": [1, 1], "depth": [3, 3]},
               "delta": 1e-4, "rng_seed": 0,
               "experiment": {"x0": [0.3, 0.2], "N": 100},
               "out": str(tmp_path / "out")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        src = str(Path(dynkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "dynkit.cli", "shadow", "--config",
             str(path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert "delta 0.0001" in lines[0] and "experiment.N 100" in lines[0]
        assert "experiment.x0 [0.3, 0.2]" in lines[0]
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_strong_cr_on_translation_finds_nothing(self, tmp_path):
        cfg = {
            "map": {"name": "translation"},
            "grid": {"lower": [0, 0], "upper": [8, 8],
                     "periodic": [False, False], "depth": [5, 5]},
            "experiment": {"eps_fn": "constant", "eps_fn_c": 0.1,
                           "n_samples": 4},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        res = run_cli(["strong-cr", "--config", str(path)])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["any_found"] is False

    def test_poly_map_config(self, tmp_path):
        cfg = {
            "map": {"name": "poly", "dimension": 1,
                    "components": [[{"c": 1.5, "e": [1]},
                                    {"c": -0.5, "e": [3]}]]},
            "grid": {"lower": [-2], "upper": [2],
                     "periodic": [False], "depth": [7]},
            "eps_box_diameters": 0.25,
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        res = run_cli(["conley-verify", "--config", str(path)])
        assert res.exit_code == 0


class TestSeedLatticeBudget:
    # eps / grid_resolution = 2^10: a lattice of 2049^2 points, above the
    # budget; the search itself is replaced, so no large search runs
    @pytest.mark.parametrize("sub, experiment", [
        ("shadow", {"x0": [0.2, 0.3], "N": 5, "eps": 2.0 ** -3,
                    "grid_resolution": 2.0 ** -13}),
        ("splice", {"q": [0.1, 0.2], "x0": [0.3, 0.7], "eps": 2.0 ** -3,
                    "grid_resolution": 2.0 ** -13, "n_back": 2,
                    "n_forward": 3}),
    ])
    def test_one_warning_above_the_budget_and_the_same_report(
            self, tmp_path, monkeypatch, capsys, sub, experiment):
        searched = []

        def search(map_spec, po, eps, grid_resolution):
            searched.append(grid_resolution)
            return dynkit.shadowing.ShadowingResult(
                True, eps, 0.0, po.points[0].copy(), np.zeros(len(po)),
                grid_resolution, "seed")

        monkeypatch.setattr(dynkit.shadowing, "shadow_search", search)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "cat"}, "delta": 2e-2, "experiment": experiment,
            "out": str(tmp_path / "out")}))
        report = tmp_path / "out" / "report.json"
        runs = []
        for budget in (cli.SEED_LATTICE_BUDGET, 2049 ** 2):
            monkeypatch.setattr(cli, "SEED_LATTICE_BUDGET", budget)
            code = run_subcommand(sub, str(path), None, None)
            runs.append((code, report.read_bytes(), capsys.readouterr().err))
        (code, rep, err), (code2, rep2, err2) = runs
        assert code == code2 == 0 and rep == rep2
        assert searched == [2.0 ** -13] * 2
        warnings = [line for line in err.splitlines() if "warning" in line]
        assert len(warnings) == 1 and "4,198,401 points" in warnings[0]
        assert "warning" not in err2

    # np.unravel_index cannot index a lattice of more than 2^63 - 1 points
    @pytest.mark.parametrize("res, size", [(1e-300, "4.000e+596"),
                                           (1e-12, "4.000e+20"),
                                           (1e-320, "Infinity")])
    @pytest.mark.parametrize("sub, experiment", [
        ("shadow", {"x0": [0.2, 0.3], "N": 5}),
        ("splice", {"q": [0.1, 0.2], "x0": [0.3, 0.7], "n_back": 2,
                    "n_forward": 3}),
    ])
    def test_lattice_too_large_to_index_is_refused(
            self, tmp_path, capsys, sub, experiment, res, size):
        path = cat_config(tmp_path, depth=3, delta=2e-2, experiment={
            **experiment, "eps": 1e-2, "grid_resolution": res})
        assert run_subcommand(sub, str(path), None, None) == 2
        err = capsys.readouterr().err
        assert f"experiment.grid_resolution: the seed lattice has {size} " \
            "points" in err
        assert "warning" not in err
        assert not (tmp_path / "out" / "report.json").exists()


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        path = cat_config(tmp_path, depth=4)
        run_cli(["cr", "--config", str(path), "--out", str(tmp_path / "a")])
        run_cli(["cr", "--config", str(path), "--out", str(tmp_path / "b")])
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        # out path differs inside the echo; normalize it before comparing
        ra = ra.replace(b'"a"', b'"X"').replace(str(tmp_path / "a").encode(), b"X")
        rb = rb.replace(b'"b"', b'"X"').replace(str(tmp_path / "b").encode(), b"X")
        assert ra == rb

    def test_timings_sidecar_excluded(self, tmp_path):
        path = cat_config(tmp_path, depth=4)
        run_cli(["cr", "--config", str(path)])
        report = (tmp_path / "out" / "report.json").read_text()
        assert "wall" not in report
        sidecar = json.loads((tmp_path / "out" / "timings.json").read_text())
        assert "wall_s" in sidecar

    def test_threads_key_rejected(self, tmp_path):
        path = cat_config(tmp_path, depth=3, threads=2)
        res = run_cli(["graph", "--config", str(path)])
        assert res.exit_code == 2
        assert "unknown keys" in res.output and "threads" in res.output
        assert not (tmp_path / "out" / "report.json").exists()
        # the retired fifth argument of run_subcommand takes no thread count
        path = cat_config(tmp_path, depth=3)
        assert run_subcommand("graph", str(path), None, None, 2) == 2
        assert run_subcommand("graph", str(path), None, None, None) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "threads" not in report["config"]

    def test_seeded_shadow_reports_identical(self, tmp_path):
        cfg = {
            "map": {"name": "cat"}, "delta": 1e-4,
            "experiment": {"x0": [0.5, 0.5], "N": 30, "eps": 1e-2,
                           "grid_resolution": 1e-3},
            "out": str(tmp_path / "o"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        outs = []
        for sub in ("a", "b"):
            run_cli(["shadow", "--config", str(path),
                     "--out", str(tmp_path / sub), "--seed", "7"])
            txt = (tmp_path / sub / "report.json").read_text()
            outs.append(txt.replace(str(tmp_path / sub), "X"))
        assert outs[0] == outs[1]


class TestSvg:
    def test_full_boxset_tiles_canvas(self, tmp_path):
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (False, False)), (2, 2))
        path = tmp_path / "full.svg"
        emit_plot([{"kind": "boxset", "data": BoxSet.full(g)}], path,
                  (0, 0), (1, 1))
        # background, then one full-height column per ix
        columns = [f'<rect x="{x}.000" y="0.000" width="250.000" '
                   f'height="1000.000" fill="#1f6fb4" fill-opacity="0.6"/>'
                   for x in (0, 250, 500, 750)]
        assert path.read_text().splitlines()[1:-1] == [
            '<rect x="0" y="0" width="1000" height="1000" fill="#ffffff"/>',
            *columns]

    def test_empty_boxset_background_only(self, tmp_path):
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (False, False)), (2, 2))
        path = tmp_path / "empty.svg"
        emit_plot([{"kind": "boxset", "data": BoxSet.empty(g)}], path,
                  (0, 0), (1, 1))
        assert path.read_text().count("<rect") == 1

    @pytest.mark.parametrize("periodic, depth", [
        ((False, False), (3, 2)), ((True, True), (2, 3)),
        ((True, False), (4, 4))])
    def test_boxset_matches_run_reference(self, tmp_path, periodic, depth):
        g = Grid(Domain((-2.0, -2.0), (2.0, 2.0), periodic), depth)
        rng = np.random.default_rng(3)
        for density in (0.0, 0.2, 0.6, 1.0):
            layers = [{"kind": "boxset", "color": 1,
                       "data": BoxSet(g, rng.random(g.nboxes) < density)}]
            path = tmp_path / "b.svg"
            emit_plot(layers, path, (-2, -2), (2, 2))
            assert path.read_bytes() == \
                reference_svg(layers, (-2, -2), (2, 2)).encode()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_no_vertical_neighbours_renders_per_box(self, tmp_path, data):
        # a run of one box prints exactly the rect of that one box
        g = Grid(Domain((-2.0, -1.0), (998.0, 1001.0),
                        data.draw(st.tuples(st.booleans(), st.booleans()))),
                 data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4))))
        cols = np.asarray(data.draw(st.lists(
            st.booleans(), min_size=g.nboxes, max_size=g.nboxes))).reshape(g.shape)
        cols[:, 1:] &= ~cols[:, :-1]  # no set box right above a set box
        boxes = BoxSet(g, cols.ravel())
        path = tmp_path / "v.svg"
        emit_plot([{"kind": "boxset", "data": boxes}], path,
                  (0, 0), (1000, 1000))
        assert path.read_text().splitlines()[2:-1] == \
            per_box_rects(boxes, (0, 0), (1000, 1000), PALETTE[0])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_boxset_parses_back_to_its_boxes(self, tmp_path, data):
        lower = data.draw(st.sampled_from([(0.0, 0.0), (-2.0, -3.0),
                                           (0.25, 5.0)]))
        upper = (lower[0] + data.draw(st.sampled_from([1.0, 4.0, 7.5])),
                 lower[1] + data.draw(st.sampled_from([1.0, 3.0, 10.0])))
        g = Grid(Domain(lower, upper,
                        data.draw(st.tuples(st.booleans(), st.booleans()))),
                 data.draw(st.tuples(st.integers(0, 6), st.integers(0, 6))))
        nx, ny = g.shape
        kind = data.draw(st.one_of(
            st.sampled_from(["empty", "full", "single", "ends"]),
            st.floats(0.0, 1.0)))
        bits = np.full(g.shape, kind == "full")
        if kind == "single":
            bits[data.draw(st.integers(0, nx - 1)),
                 data.draw(st.integers(0, ny - 1))] = True
        elif kind == "ends":  # runs touching iy = 0 and iy = ny - 1
            bits[:, :data.draw(st.integers(0, ny))] = True
            bits[:, ny - data.draw(st.integers(0, ny)):] = True
        elif not isinstance(kind, str):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            bits = rng.random(g.shape) < kind
        path = tmp_path / "r.svg"
        emit_plot([{"kind": "boxset", "data": BoxSet(g, bits.ravel())}],
                  path, lower, upper)
        rects = path.read_text().splitlines()[2:-1]
        covered = np.zeros(g.shape, dtype=int)
        for line in rects:
            ix, iy_lo, n = parse_run(line, g.shape)
            assert n >= 1 and 0 <= iy_lo and iy_lo + n <= ny
            covered[ix, iy_lo:iy_lo + n] += 1
        # every set box once, no unset box, one rect per maximal run
        assert np.array_equal(covered, bits)
        assert len(rects) == np.count_nonzero(bits[:, 0]) + \
            np.count_nonzero(bits[:, 1:] & ~bits[:, :-1])

    def test_non_2d_rejected(self, tmp_path):
        g = Grid(Domain((0.0,), (1.0,), (False,)), (2,))
        with pytest.raises(ValueError):
            emit_plot([{"kind": "boxset", "data": BoxSet.full(g)}],
                      tmp_path / "x.svg", (0,), (1,))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_per_vertex_reference(self, tmp_path, data):
        # sixteenths put many coordinates on %.3f rounding ties, and points
        # just left of or below the window print as -0.000
        coord = st.one_of(st.integers(-16, 16016).map(lambda k: k / 16),
                          st.sampled_from([-1e-9, -0.0, 1000.0 + 1e-9]),
                          st.floats(-50.0, 1050.0))
        points = st.lists(st.tuples(coord, coord), max_size=40).map(
            lambda p: np.asarray(p, dtype=float).reshape(-1, 2))
        g = Grid(Domain((-2.0, -1.0), (998.0, 1001.0), (False, False)), (4, 3))
        layers = [data.draw(st.one_of(
            st.builds(lambda m: {"kind": "boxset", "data": BoxSet(g, m)},
                      st.lists(st.booleans(), min_size=g.nboxes,
                               max_size=g.nboxes).map(np.asarray)),
            st.builds(lambda p: {"kind": "polyline", "data": p}, points),
            st.builds(lambda p: {"kind": "cloud", "data": p}, points)))
            for _ in range(data.draw(st.integers(0, 4)))]
        path = tmp_path / "h.svg"
        emit_plot(layers, path, (0, 0), (1000, 1000))
        assert path.read_text() == reference_svg(layers, (0, 0), (1000, 1000))

    def test_polyline_and_cloud_render(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot([
            {"kind": "polyline",
             "data": np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.2]])},
            {"kind": "cloud", "data": np.array([[0.3, 0.3], [0.7, 0.7]])},
        ], path, (0, 0), (1, 1))
        text = path.read_text()
        assert "<path" in text and text.count("<circle") == 2


def parse_run(line, shape):
    """(ix, iy_lo, n) of a box-set rect drawn over its grid's own domain."""
    w0, w1 = CANVAS / shape[0], CANVAS / shape[1]
    x, y, height = (float(line.split(f' {k}="')[1].split('"')[0])
                    for k in ("x", "y", "height"))
    n = round(height / w1)
    return round(x / w0), round((CANVAS - y) / w1) - n, n


def _top_left(grid, b, lo, hi, w):
    """SVG x, y of box b's top-left corner, from Grid.box_lower."""
    x, y = (grid.box_lower(b) - lo) / (hi - lo) * CANVAS
    return x, CANVAS - y - w[1]


def per_box_rects(boxset, lo, hi, color):
    """One rect per set box, as box sets were drawn before column runs."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    w = boxset.grid.h / (hi - lo) * CANVAS
    out = []
    for b in boxset.indices().tolist():
        x, y = _top_left(boxset.grid, b, lo, hi, w)
        out.append(f'<rect x="{x:.3f}" y="{y:.3f}" width="{w[0]:.3f}" '
                   f'height="{w[1]:.3f}" fill="{color}" fill-opacity="0.6"/>')
    return out


def run_rects(boxset, lo, hi, color):
    """One rect per maximal run of set boxes up each column ix, found by
    walking the column, placed at the run's top box."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    nx, ny = boxset.grid.shape
    w = boxset.grid.h / (hi - lo) * CANVAS
    bits = boxset.bits.tolist()
    out = []
    for ix in range(nx):
        iy = 0
        while iy < ny:
            a = iy
            while iy < ny and bits[ix * ny + iy]:
                iy += 1
            if iy > a:
                x, y = _top_left(boxset.grid, ix * ny + iy - 1, lo, hi, w)
                out.append(f'<rect x="{x:.3f}" y="{y:.3f}" width="{w[0]:.3f}" '
                           f'height="{(iy - a) * w[1]:.3f}" fill="{color}" '
                           f'fill-opacity="0.6"/>')
            iy += 1
    return out


def reference_svg(layers, lower, upper):
    """emit_plot's text, formatted one vertex at a time with f-strings."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)

    def project(pts):
        scaled = (pts - lo) / (hi - lo) * CANVAS
        out = scaled.copy()
        out[..., 1] = CANVAS - scaled[..., 1]
        return out

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
             f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
             f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>']
    for i, layer in enumerate(layers):
        color = PALETTE[layer.get("color", i) % len(PALETTE)]
        if layer["kind"] == "boxset":
            parts.extend(run_rects(layer["data"], lo, hi, color))
        elif layer["kind"] == "polyline":
            pts = np.asarray(layer["data"], dtype=float)
            if pts.shape[0] < 2:
                continue
            proj = project(pts)
            jumps = np.linalg.norm(np.diff(proj, axis=0), axis=1)
            start = 0
            for c in list(np.nonzero(jumps > CANVAS / 2)[0]) + [proj.shape[0] - 1]:
                if c + 1 > start + 1:
                    d = "M " + " L ".join(f"{x:.3f} {y:.3f}"
                                          for x, y in proj[start:c + 1])
                    parts.append(f'<path d="{d}" stroke="{color}" '
                                 f'stroke-width="1.5" fill="none"/>')
                start = c + 1
        else:
            for x, y in project(np.asarray(layer["data"], dtype=float)):
                parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3" '
                             f'fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class TestMoreSubcommands:
    def test_all_runs_graph_suite(self, tmp_path):
        # `all` accepts the experiment keys of the subcommands it runs
        path = cat_config(tmp_path, depth=4,
                          experiment={"dump_edges": True, "samples": 10})
        res = run_cli(["all", "--config", str(path)])
        assert res.exit_code == 0
        assert (tmp_path / "out" / "edges.txt").exists()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for key in ("graph", "cr", "components", "conley-verify", "volume"):
            assert key in report["results"]
        assert report["results"]["volume"]["passed"] is True

    @pytest.mark.parametrize("points, n_builds", [
        (None, 1),  # eight sampled points
        ([[0.0, 0.0], [0.3, 0.6], [0.5, 0.0], [0.7, 0.2]], 1),
        ([[0.0, 0.0], [0.5, 0.0]], 0),  # fixed points: length-1 chains
    ])
    def test_strong_cr_builds_at_most_one_graph(self, tmp_path, monkeypatch,
                                                points, n_builds):
        from dynkit import chain_graph
        builds = []
        build, search = chain_graph.build_graph, chain_graph.strong_chain_search
        monkeypatch.setattr(chain_graph, "build_graph",
                            lambda *a, **k: builds.append(1) or build(*a, **k))
        exp = {"eps_fn_c": 0.05}
        if points is not None:
            exp["points"] = points
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "standard", "K": 0.97},
            "grid": {"lower": [0, 0], "upper": [1, 1],
                     "periodic": [True, True], "depth": [5, 5]},
            "experiment": exp, "rng_seed": 3}))
        reports = []
        for sub in ("one", "each"):
            out = tmp_path / sub
            assert run_cli(["strong-cr", "--config", str(path),
                            "--out", str(out)]).exit_code == 0
            reports.append((out / "report.json").read_text()
                           .replace(str(out), "OUT"))
            if sub == "one":
                assert len(builds) == n_builds
                # the reference: every search builds its own graph
                monkeypatch.setattr(
                    chain_graph, "strong_chain_search",
                    lambda *a, tg=None, **k: search(*a, **k))
        assert reports[0] == reports[1]

    def test_all_builds_one_graph_and_one_scc(self, tmp_path, monkeypatch):
        from dynkit import chain_graph
        builds, sccs = [], []
        build, scc = chain_graph.build_graph, chain_graph._components
        monkeypatch.setattr(chain_graph, "build_graph",
                            lambda *a, **k: builds.append(1) or build(*a, **k))
        monkeypatch.setattr(chain_graph, "_components",
                            lambda *a: sccs.append(1) or scc(*a))
        path = cat_config(tmp_path, depth=4)
        assert run_cli(["all", "--config", str(path)]).exit_code == 0
        assert len(builds) == 1 and len(sccs) == 1

    @pytest.mark.parametrize("sub, name, depth", [
        ("all", "cat", 7), ("cr", "standard", 8), ("components", "standard", 8)])
    def test_torus_recurrence_writes_no_edge(self, tmp_path, monkeypatch,
                                             sub, name, depth):
        """The bench's torus configs run without the CSR or its transpose,
        and their reports and plots are those of the record of one Tarjan
        run over the whole CSR."""
        from dynkit import chain_graph
        from test_chain_graph import whole_graph_record
        cfg = {"map": {"name": name, **({"K": 0.97} if name == "standard"
                                        else {})},
               "grid": {"lower": [0, 0], "upper": [1, 1],
                        "periodic": [True, True], "depth": [depth, depth]},
               "eps_box_diameters": 1.0, "rng_seed": 3}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"

        def run():
            assert run_subcommand(sub, str(path), str(out), None) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                    if p.name != "timings.json"}

        with monkeypatch.context() as mp:
            for fn in ("_materialize_edges", "_transpose"):
                mp.setattr(chain_graph, fn, lambda *a, fn=fn: pytest.fail(fn))
            edge_free = run()
        monkeypatch.setattr(chain_graph, "_components", whole_graph_record)
        assert run() == edge_free

    def test_cr_does_not_import_scipy_sparse(self, tmp_path):
        path = cat_config(tmp_path, depth=4)
        src = str(Path(dynkit.__file__).resolve().parent.parent)
        code = ("import sys; from dynkit.cli import run_subcommand; "
                f"assert run_subcommand('cr', {str(path)!r}, None, None, None) == 0; "
                "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse loaded'")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("sub", ["cr", "all", "shadow", "homoclinic"])
    def test_torus_graph_runs_load_no_sparse_or_masked_arrays(self, tmp_path,
                                                              sub):
        # scipy.sparse costs ~30 MB of RSS and numpy.ma ~1 MB; shadow and
        # homoclinic build no graph and should load neither either
        experiment = {
            "shadow": {"x0": [0.2, 0.3], "N": 40, "eps": 1e-2,
                       "grid_resolution": 1e-3},
            "homoclinic": {"arclength": 3.0, "max_seg": 0.02}}
        path = cat_config(tmp_path, depth=4, delta=1e-4,
                          experiment=experiment.get(sub, {}))
        src = str(Path(dynkit.__file__).resolve().parent.parent)
        code = ("import sys; from dynkit.cli import run_subcommand; "
                f"assert run_subcommand({sub!r}, {str(path)!r}, None, None, "
                "None) == 0; "
                "loaded = {'scipy.sparse', 'numpy.ma'} & set(sys.modules); "
                "assert not loaded, loaded")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_homoclinic_overlay_svg(self, tmp_path):
        cfg = {
            "map": {"name": "cat"},
            "grid": {"lower": [0, 0], "upper": [1, 1],
                     "periodic": [True, True], "depth": [3, 3]},
            "experiment": {"arclength": 3.0, "max_seg": 0.02},
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        res = run_cli(["homoclinic", "--config", str(path)])
        assert res.exit_code == 0
        svg = tmp_path / "out" / "homoclinic.svg"
        text = svg.read_text()
        assert text.count("<path") >= 2  # two polylines, possibly wrapped
        assert "<circle" in text  # hit markers
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["n_hits"] > 0
        # regression: deterministic render size for this configuration
        size = svg.stat().st_size
        assert size == PINNED_HOMOCLINIC_SVG_BYTES, size

    def test_capped_segments_reported(self, tmp_path):
        # cat at arclength 40 needs more than the 4096-parameter cap allows
        # at max_seg 0.005, and no more at 0.01.  homoclinic refuses a
        # capped run (exit 2, one line naming the count, max_seg and
        # arclength); manifolds and accumulate write their report and one
        # stderr warning naming the count and max_seg
        torus = {"lower": [0, 0], "upper": [1, 1],
                 "periodic": [True, True], "depth": [3, 3]}
        cases = [("homoclinic", {"arclength": 40.0, "max_seg": 0.005}, True),
                 ("homoclinic", {"arclength": 40.0, "max_seg": 0.01}, False),
                 ("manifolds", {"arclength": 40.0, "max_seg": 0.005}, True),
                 ("manifolds", {"arclength": 3.0, "max_seg": 0.02}, False),
                 ("accumulate", {"arclength_schedule": [20, 40], "radii": [0.1],
                                 "max_seg": 0.005}, True),
                 ("accumulate", {"arclength_schedule": [2, 4], "radii": [0.1],
                                 "max_seg": 0.02}, False)]
        for k, (sub, exp, capped) in enumerate(cases):
            out = tmp_path / f"{sub}-{k}"
            path = tmp_path / f"{sub}-{k}.json"
            path.write_text(json.dumps({"map": {"name": "cat"}, "grid": torus,
                                        "experiment": exp, "out": str(out)}))
            res = run_cli([sub, "--config", str(path)])
            if sub == "homoclinic" and capped:
                assert res.exit_code == 2
                assert not (out / "report.json").exists()
                err = res.stderr.splitlines()
                assert len(err) == 1 and err[0].startswith("config error: ")
                count = int(err[0].split()[2])
                assert count > 0
                assert f"{count} manifold segments" in err[0]
                assert "max_seg 0.005 at experiment.arclength 40" in err[0]
                continue
            assert res.exit_code == 0, (sub, res.stderr)
            report = json.loads((out / "report.json").read_text())
            count = report["results"]["capped_segments"]
            assert (count > 0) == capped, sub
            warnings = [line for line in res.stderr.splitlines()
                        if line.startswith("warning")]
            assert len(warnings) == capped, sub
            if capped:
                assert f"{count} manifold segments" in warnings[0]
                assert "max_seg 0.005" in warnings[0]

    @pytest.mark.parametrize("sub", ["manifolds", "homoclinic", "accumulate"])
    @pytest.mark.parametrize("K, short", [(0.001, True), (0.05, False)])
    def test_growth_shortfall_reported(self, tmp_path, sub, K, short):
        # standard K = 0.001 at the origin has eigenvalue 1.032, so 300
        # generations from 1e-6 reach arclength 0.0136 of the 0.5 asked
        # for; K = 0.05 (eigenvalue 1.25) gets there.  A short run writes
        # its report with `reached_arclength` and one stderr warning
        # naming the target and the reached arclength; a full one adds
        # neither
        torus = {"lower": [0, 0], "upper": [1, 1],
                 "periodic": [True, True], "depth": [3, 3]}
        exp = {"period": 1, "max_seg": 0.01,
               **({"arclength_schedule": [0.5], "radii": [0.1],
                   "allow_missing": True} if sub == "accumulate"
                  else {"arclength": 0.5})}
        out = tmp_path / "out"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"map": {"name": "standard", "K": K},
                                    "grid": torus, "experiment": exp,
                                    "out": str(out)}))
        res = run_cli([sub, "--config", str(path)])
        assert res.exit_code == 0, res.stderr
        results = json.loads((out / "report.json").read_text())["results"]
        warnings = [line for line in res.stderr.splitlines()
                    if line.startswith("warning")]
        if short:
            reached = results["reached_arclength"]
            assert 0.013 < reached < 0.014
            assert len(warnings) == 1
            assert f"reached arclength {reached:g} of its target 0.5" \
                in warnings[0]
        else:
            assert "reached_arclength" not in results and not warnings

    def test_accumulate_reads_tol_int(self, tmp_path, monkeypatch):
        # the whole schedule shares one crossing pass, which gets tol_int
        from dynkit import manifolds
        seen = []
        real = manifolds._crossings
        monkeypatch.setattr(manifolds, "_crossings", lambda *a: seen.append(a[2])
                            or real(*a))
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "cat"}, "tolerances": {"tol_int": 1e-6},
            "grid": {"lower": [0, 0], "upper": [1, 1],
                     "periodic": [True, True], "depth": [3, 3]},
            "experiment": {"arclength_schedule": [2, 4], "radii": [0.1],
                           "max_seg": 0.02},
            "out": str(tmp_path / "out")}))
        assert run_cli(["accumulate", "--config", str(path)]).exit_code == 0
        assert seen == [1e-6]

# regression value recorded from a run of this configuration; the hit on
# the seam y = 0 lies at y = 1 - 1.1e-16 and is drawn at cy="0.000" (cat
# hits are not polished; the polish moved it to y = 0, cy="1000.000")
PINNED_HOMOCLINIC_SVG_BYTES = 11575


class TestGraphDump:
    def test_edge_dump_matches_stats(self, tmp_path):
        path = cat_config(tmp_path, depth=3,
                          experiment={"dump_edges": True})
        res = run_cli(["graph", "--config", str(path)])
        assert res.exit_code == 0
        lines = (tmp_path / "out" / "edges.txt").read_text().splitlines()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(lines) == report["results"]["graph"]["n_edges"]
        src, tgt = lines[0].split()
        assert src.isdigit() and tgt.isdigit()

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 18])
    @pytest.mark.parametrize("config", [
        {"map": {"name": "cat"}, "eps_box_diameters": 1.0,
         "grid": {"lower": [0, 0], "upper": [1, 1],
                  "periodic": [True, True], "depth": [3, 3]}},
        {"map": {"name": "translation"}, "eps": 0.3,
         "grid": {"lower": [0, 0], "upper": [4, 1], "depth": [4, 4]}},
    ])
    def test_edge_dump_matches_per_edge_writer(self, tmp_path, monkeypatch,
                                               chunk, config):
        from dynkit import chain_graph
        monkeypatch.setattr(chain_graph, "_CHUNK_EDGES", chunk)
        built = []
        real = chain_graph.build_graph
        monkeypatch.setattr(chain_graph, "build_graph",
                            lambda *a, **k: built.append(real(*a, **k)) or built[-1])
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**config, "out": str(tmp_path / "out"),
                                    "experiment": {"dump_edges": True}}))
        assert run_cli(["graph", "--config", str(path)]).exit_code == 0
        tg, = built
        assert config["map"]["name"] == "cat" or tg.escaping_boxes() > 0
        # the writer the chunked dump replaced: one write per edge, the
        # escaping boxes' edges to the sink (node nboxes) included
        sink = tg.nboxes
        want = "".join(f"{b} {t}\n" for b in range(sink)
                       for t in [*tg.out(b), *[sink] * int(tg.escapes[b])])
        want += f"{sink} {sink}\n"
        assert (tmp_path / "out" / "edges.txt").read_bytes() == want.encode()


class TestBenchShapeSvg:
    @pytest.mark.parametrize("sub, mp, depth", [
        ("cr", {"name": "standard", "K": 0.97}, 8), ("all", {"name": "cat"}, 7)])
    def test_full_cr_set_is_one_rect_per_column(self, tmp_path, sub, mp, depth):
        # the bench torus-cr shapes: the CR set is every box, so each
        # column is one run (the per-box form wrote 6.2 MB at depth 8)
        path = cat_config(tmp_path, depth=depth, map=mp)
        assert run_cli([sub, "--config", str(path)]).exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        cr = report["results"]["cr"] if sub == "all" else report["results"]
        assert cr["chain_recurrent_fraction"] == 1.0
        svg = tmp_path / "out" / "chain_recurrent.svg"
        assert svg.read_text().count("<rect") == 1 + 2 ** depth
        assert svg.stat().st_size < 64 * 1024


def per_cell_csv(path, header, rows):
    """The CSV writer before rows went through one %-format: each cell
    formatted on its own, floats by f"{x:.17g}" and the rest by str."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                              for x in row) + "\n")


EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
               -5e-324, 1e16, 0.1, 1.0, -1.5, 2.0 ** 53 + 1, 1.7976931348623157e308,
               2.2250738585072014e-308, 1 / 3, 123456789012345680.0]


class TestCsv:
    def _same_as_per_cell(self, tmp_path, header, values):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_csv(new, header, values)
        per_cell_csv(old, header, ([i] + [float(x) for x in row]
                                   for i, row in enumerate(values)))
        assert new.read_bytes() == old.read_bytes()

    def test_edge_floats_match_per_cell_writer(self, tmp_path):
        values = np.array(EDGE_FLOATS).reshape(-1, 2)
        self._same_as_per_cell(tmp_path, ["index", "x0", "x1"], values)
        self._same_as_per_cell(tmp_path, ["index", "x"], values.reshape(-1, 1))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.floats(width=64), min_size=k, max_size=k), max_size=30)))
    def test_floats_match_per_cell_writer(self, tmp_path, values):
        k = len(values[0]) if values else 2
        self._same_as_per_cell(tmp_path, ["index"] + [f"x{i}" for i in range(k)],
                               np.asarray(values, dtype=float).reshape(-1, k))

    def test_empty_rows_write_header_only(self, tmp_path):
        write_csv(tmp_path / "e.csv", ["index", "x0", "x1", "angle"], [])
        assert (tmp_path / "e.csv").read_text() == "index,x0,x1,angle\n"

    def test_int_rows_print_as_str(self):
        ints = np.array([[0, -1], [2 ** 62, -2 ** 63], [7, 2 ** 31]],
                        dtype=np.int64)
        assert fill_rows("%d %d\n", ints, "") == "".join(
            f"{a} {b}\n" for a, b in ints)
        assert fill_rows("%d,%d;", ints.astype(np.int32), "") == "".join(
            f"{int(a)},{int(b)};" for a, b in ints.astype(np.int32))


# the 3-D polynomial (2x + 0.3y, 0.5y + 0.2x^2, 0.3z + 0.1y^2): a saddle at
# the origin with one unstable and two stable directions
POLY_3D = {"name": "poly", "dimension": 3, "components": [
    [{"c": 2.0, "e": [1, 0, 0]}, {"c": 0.3, "e": [0, 1, 0]}],
    [{"c": 0.5, "e": [0, 1, 0]}, {"c": 0.2, "e": [2, 0, 0]}],
    [{"c": 0.3, "e": [0, 0, 1]}, {"c": 0.1, "e": [0, 2, 0]}]]}

# one small map and grid per dimension: the 1-D cubic, cat on its unit
# torus and the 3-D polynomial
DIMENSION_CASES = {
    1: ({"name": "poly", "dimension": 1,
         "components": [[{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]]},
        {"lower": [-2], "upper": [2], "depth": [3]}),
    2: ({"name": "cat"},
        {"lower": [0, 0], "upper": [1, 1], "periodic": [True, True],
         "depth": [3, 3]}),
    3: (POLY_3D, {"lower": [-1] * 3, "upper": [1] * 3, "depth": [2] * 3}),
}


def small_experiment(sub, dim):
    """The experiment keys `sub` requires, and short manifolds and orbits."""
    manifold = {"arclength": 2.0, "max_seg": 0.05}
    return {"escape": {"K_lower": [-0.5] * dim, "K_upper": [0.5] * dim},
            "splice": {"q": [0.1] * dim, "x0": [0.0] * dim},
            "shadow": {"N": 10},
            "manifolds": manifold, "homoclinic": manifold,
            "accumulate": {"arclength_schedule": [1.0, 2.0], "radii": [0.1],
                           "max_seg": 0.05}}.get(sub, {})


def dimension_config(tmp_path, sub, dim, **grid):
    mp, grid_cfg = DIMENSION_CASES[dim]
    path = tmp_path / f"{sub}-{dim}.json"
    path.write_text(json.dumps({
        "map": mp, "grid": {**grid_cfg, **grid},
        "experiment": small_experiment(sub, dim),
        "out": str(tmp_path / f"{sub}-{dim}")}))
    return path


class TestEveryDimension:
    """Every subcommand on a 1-D, 2-D and 3-D map ends in an exit code:
    0, 2 for a config it refuses, 3 for a failed experiment assertion;
    never a traceback."""

    @pytest.mark.parametrize("dim", sorted(DIMENSION_CASES))
    @pytest.mark.parametrize("sub", sorted([*cli._SUBCOMMANDS, "all"]))
    def test_every_subcommand_exits_with_a_code(self, tmp_path, sub, dim):
        path = dimension_config(tmp_path, sub, dim)
        assert run_subcommand(sub, str(path), None, None) in (0, 2, 3)

    def test_3d_manifold_csv_has_a_column_per_coordinate(self, tmp_path):
        path = dimension_config(tmp_path, "manifolds", 3)
        assert run_subcommand("manifolds", str(path), None, None) == 0
        out = tmp_path / "manifolds-3"
        report = json.loads((out / "report.json").read_text())["results"]
        for side in ("unstable", "stable"):
            lines = (out / f"manifold_{side}.csv").read_text().splitlines()
            assert lines[0] == "index,x0,x1,x2"
            assert len(lines) - 1 == report[f"{side}_vertices"]
            assert all(line.count(",") == 3 for line in lines)

    def test_anchor_is_a_saddle(self, tmp_path, capsys):
        # the 2-D cubic (1.5x - 0.5x^3, 0.5y): the sink (-1, 0) comes
        # before the saddle (0, 0) among the hyperbolic points, and the 1-D
        # cubic has no point with both a stable and an unstable direction
        mp = {"name": "poly", "dimension": 2, "components": [
            [{"c": 1.5, "e": [1, 0]}, {"c": -0.5, "e": [3, 0]}],
            [{"c": 0.5, "e": [0, 1]}]]}
        grid = {"lower": [-2, -2], "upper": [2, 2], "depth": [3, 3]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": mp, "grid": grid, "out": str(tmp_path / "out"),
            "experiment": {"arclength": 2.0, "max_seg": 0.05}}))
        assert run_subcommand("manifolds", str(path), None, None) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["anchor"] == [0.0, 0.0]
        assert run_subcommand("manifolds",
                              str(dimension_config(tmp_path, "manifolds", 1)),
                              None, None) == 2
        assert "no hyperbolic saddle found" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["homoclinic", "accumulate"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_homoclinic_runs_refuse_non_planar_maps(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     sub, dim):
        from dynkit import manifolds
        grown = []
        monkeypatch.setattr(manifolds, "grow_manifold",
                            lambda *a, **k: grown.append(1))
        path = dimension_config(tmp_path, sub, dim)
        assert run_subcommand(sub, str(path), None, None) == 2
        assert f"dimension {dim}" in capsys.readouterr().err
        assert not grown
        assert not (tmp_path / f"{sub}-{dim}" / "report.json").exists()


# configs that overflow a closed-form Lipschitz constant or a bound over
# the whole grid window: a map is its formula alone, so none of them may
# end in a traceback or a numpy warning
OVERFLOW_CASES = {
    "standard-huge-K": ({"name": "standard", "K": 1e300},
                        DIMENSION_CASES[2][1]),
    "quartic-huge-coefficient": (
        {"name": "poly", "dimension": 1,
         "components": [[{"c": 1e300, "e": [4]}]]},
        {"lower": [-2], "upper": [2], "depth": [3]}),
    "cubic-huge-window": (
        {"name": "poly", "dimension": 2, "components": [
            [{"c": 1.5, "e": [1, 0]}, {"c": -0.5, "e": [3, 0]}],
            [{"c": 1.5, "e": [0, 1]}, {"c": -0.5, "e": [0, 3]}]]},
        {"lower": [-1e308] * 2, "upper": [1e308] * 2, "depth": [3, 3]}),
}


class TestOverflowingConfigs:
    @pytest.mark.parametrize("case, sub", [
        *(("standard-huge-K", sub)
          for sub in ("cr", "all", "shadow", "manifolds", "homoclinic")),
        *(("quartic-huge-coefficient", sub)
          for sub in ("cr", "escape", "manifolds", "strong-cr")),
        ("cubic-huge-window", "cr")])
    def test_exits_with_a_code_and_no_warning(self, tmp_path, capsys, case,
                                              sub):
        mp, grid = OVERFLOW_CASES[case]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": mp, "grid": grid,
            "experiment": small_experiment(sub, len(grid["lower"])),
            "out": str(tmp_path / "out")}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_subcommand(sub, str(path), None, None)
        assert code in (0, 2, 3)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize("mp, grid", [
        ({"name": "cat"}, {"lower": [0, 0], "upper": [1, 1],
                           "periodic": [True, True], "depth": [3, 3]}),
        ({"name": "contraction", "c": 0.5, "dim": 2},
         {"lower": [-1, -1], "upper": [1, 1], "depth": [3, 3]})])
    def test_cr_at_huge_eps_raises_no_warning(self, tmp_path, mp, grid):
        # the box indices of a rectangle 1e308 wide overflow to infinity
        # and are clamped or reduced to the whole window
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"map": mp, "grid": grid, "eps": 1e308,
                                    "out": str(tmp_path / "out")}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_subcommand("cr", str(path), None, None) == 0
        results = json.loads(
            (tmp_path / "out" / "report.json").read_text())["results"]
        assert results["chain_recurrent_fraction"] == 1.0
        assert results["graph"]["out_degree_min"] >= 64

    @pytest.mark.parametrize("K", [1e20, 1e300])
    def test_splice_off_the_coordinates_precision_is_a_config_error(
            self, tmp_path, capsys, K):
        # at a huge K the backward tail of q from the standard map's inverse
        # is no orbit: exit 2 with one stderr line naming defect and delta
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "map": {"name": "standard", "K": K}, "delta": 1e-4,
            "experiment": {"q": [0.1, 0.1], "x0": [0.0, 0.0]},
            "out": str(tmp_path / "out")}))
        assert run_subcommand("splice", str(path), None, None) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "defect" in err[0] and "delta 1.000e-04" in err[0]
        assert not (tmp_path / "out" / "report.json").exists()


class TestTorusGrid:
    """A torus map runs only on a grid that is its unit torus."""

    @pytest.mark.parametrize("grid", [
        {"upper": [2, 2]},
        {"periodic": [False, False]},
        {"periodic": [True, False]},
        {"lower": [0, 0.5], "upper": [1, 1]},
    ], ids=["two-periods-wide", "not-periodic", "one-axis-periodic",
            "half-period-high"])
    @pytest.mark.parametrize("sub", ["cr", "manifolds", "volume"])
    def test_other_grids_exit_2(self, tmp_path, capsys, sub, grid):
        path = dimension_config(tmp_path, sub, 2, **grid)
        assert run_subcommand(sub, str(path), None, None) == 2
        assert "unit torus" in capsys.readouterr().err
        assert not (tmp_path / f"{sub}-2" / "report.json").exists()

    def test_shifted_unit_window_runs(self, tmp_path):
        path = dimension_config(tmp_path, "cr", 2, lower=[0.5, -0.25],
                                upper=[1.5, 0.75])
        assert run_subcommand("cr", str(path), None, None) == 0
        report = json.loads((tmp_path / "cr-2" / "report.json").read_text())
        assert report["results"]["chain_recurrent_fraction"] == 1.0
        assert report["results"]["graph"]["escaping_boxes"] == 0

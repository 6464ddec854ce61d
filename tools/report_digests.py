"""sha256 digests of the reports and artifacts of a fixed list of CLI runs.

Each run writes a config into a temporary directory and calls the CLI on
it.  For every seed and run this prints its exit code and the sha256 of
its `report.json` (with `config.out`, the temporary path, removed) and of
each CSV, SVG and text file it wrote, one `s<seed>/run/file digest` line
each, after a `versions` line naming the Python and numpy versions.  Two
checkouts give the same lines when their reports are byte-identical:

    PYTHONPATH=src python3 tools/report_digests.py --seed 0 1 > digests.txt
    PYTHONPATH=src python3 tools/report_digests.py --seed 0 1 --against digests.txt

With `--against FILE` it exits 1 and names each line that differs from,
or is missing in, FILE.  `tests/report_digests.txt` holds the lines of
seeds 0 and 1, and a tier-1 test compares against it; a change that moves
a report regenerates that file with the first command above.

The list holds the bench's eight CLI ops, the homoclinic and accumulate
runs on the standard map at K = 0.97 (period 3), 1.5 and 2.0, two
`manifolds` runs whose grids have a periodic point on the torus seam,
`shadow` and `splice` runs on the cat, standard, linear and 1-D cubic
maps, `graph` runs with an edge dump on windows that boxes escape (no
bench graph has an escaping box), and off the torus: `strong-cr` with a
radial and a constant threshold, `escape`, `attractors` with its basins
and SVG, `conley-verify` with escaping boxes, `components` (one run with 128
components) and `volume`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from dynkit import cli


def _torus(depth):
    return {"lower": [0.0, 0.0], "upper": [1.0, 1.0],
            "periodic": [True, True], "depth": [depth, depth]}


_CUBIC = [{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]
_CUBIC_2D = {"name": "poly", "dimension": 2, "components": [
    [{"c": t["c"], "e": t["e"] + [0]} for t in _CUBIC],
    [{"c": t["c"], "e": [0] + t["e"]} for t in _CUBIC]]}
_CAT = {"name": "cat"}
_POLY_3D = {"name": "poly", "dimension": 3, "components": [
    [{"c": 0.9, "e": [1, 0, 0]}, {"c": 0.3, "e": [0, 1, 1]}],
    [{"c": -0.5, "e": [2, 0, 0]}, {"c": 0.7, "e": [0, 1, 0]}],
    [{"c": 0.2, "e": [1, 1, 0]}, {"c": 0.5, "e": [0, 0, 3]}]]}
_DUMP = {"dump_edges": True}


def _standard(K):
    return {"name": "standard", "K": K}


# (name, subcommand, map, grid, experiment or None, extra config keys)
RUNS = [
    # the bench's CLI ops
    ("cat-all", "all", _CAT, _torus(7), None, {"eps_box_diameters": 1.0}),
    ("standard-cr", "cr", _standard(0.97), _torus(8), None,
     {"eps_box_diameters": 1.0}),
    ("cubic1-verify", "conley-verify",
     {"name": "poly", "dimension": 1, "components": [_CUBIC]},
     {"lower": [-2.0], "upper": [2.0], "depth": [12]}, None,
     {"eps": 4.0 / 2 ** 14}),
    ("cubic1-attractors", "attractors",
     {"name": "poly", "dimension": 1, "components": [_CUBIC]},
     {"lower": [-2.0], "upper": [2.0], "depth": [12]}, None,
     {"eps": 4.0 / 2 ** 14}),
    ("cubic2-verify", "conley-verify", _CUBIC_2D,
     {"lower": [-2.0, -2.0], "upper": [2.0, 2.0], "depth": [6, 6]}, None,
     {"eps": 0.015625}),
    ("cat-homoclinic", "homoclinic", _CAT, _torus(3),
     {"arclength": 40, "max_seg": 0.01}, {}),
    ("standard-manifolds", "manifolds", _standard(0.97), _torus(6),
     {"period": 3, "arclength": 5}, {}),
    ("cat-accumulate", "accumulate", _CAT, _torus(3),
     {"arclength_schedule": [5, 10, 20, 40], "max_seg": 0.02,
      "radii": [0.1, 0.03, 0.01]}, {}),
    # the homoclinic layer on the standard map
    ("standard-0.97-homoclinic", "homoclinic", _standard(0.97), _torus(6),
     {"period": 3, "arclength": 5, "max_seg": 0.02}, {}),
    ("standard-0.97-accumulate", "accumulate", _standard(0.97), _torus(6),
     {"period": 3, "arclength_schedule": [1, 2, 4, 5], "max_seg": 0.02,
      "q_arclength": 1.0, "radii": [0.3, 0.1, 0.05, 0.03, 0.01]}, {}),
    ("standard-1.5-homoclinic", "homoclinic", _standard(1.5), _torus(3),
     {"arclength": 6, "max_seg": 0.01}, {}),
    ("standard-1.5-accumulate", "accumulate", _standard(1.5), _torus(3),
     {"arclength_schedule": [1, 2, 4, 6], "max_seg": 0.01,
      "q_arclength": 1.0, "radii": [0.3, 0.1, 0.05, 0.03, 0.01]}, {}),
    ("standard-2.0-homoclinic", "homoclinic", _standard(2.0), _torus(3),
     {"arclength": 4, "max_seg": 0.01}, {}),
    ("standard-2.0-accumulate", "accumulate", _standard(2.0), _torus(3),
     {"arclength_schedule": [1, 2, 4], "max_seg": 0.01,
      "q_arclength": 1.0, "radii": [0.3, 0.1, 0.05, 0.03, 0.01]}, {}),
    # a periodic point on the seam x1 = 0 of the torus
    ("seam-standard-0.97-p3", "manifolds", _standard(0.97), _torus(3),
     {"period": 3, "arclength": 5}, {}),
    ("seam-standard-1.5-p1", "manifolds", _standard(1.5), _torus(2),
     {"arclength": 4}, {}),
    # shadow searches: a refined cat witness, a standard-map seed within
    # eps and an unshadowed one, maps without a refinement, a cat splice
    ("cat-shadow", "shadow", _CAT, _torus(3), {"x0": [0.25, 0.6], "N": 30},
     {}),
    ("standard-0.97-shadow-seed", "shadow", _standard(0.97), _torus(3),
     {"x0": [0.5, 0.5], "N": 50}, {}),
    ("standard-0.97-shadow-unshadowed", "shadow", _standard(0.97),
     _torus(3), {"x0": [0.1, 0.1], "N": 50}, {}),
    ("linear-shadow", "shadow", {"name": "linear", "a": 2.0, "b": 0.5},
     {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "depth": [3, 3]},
     {"x0": [0.3, 0.2], "N": 5}, {}),
    ("cubic1-shadow", "shadow",
     {"name": "poly", "dimension": 1, "components": [_CUBIC]},
     {"lower": [-2.0], "upper": [2.0], "depth": [4]},
     {"x0": [0.5], "N": 30}, {}),
    ("cat-splice", "splice", _CAT, _torus(3),
     {"q": [0.1, 0.2], "x0": [0.3, 0.7], "eps": 5e-2,
      "grid_resolution": 5e-3, "n_back": 10, "n_forward": 10},
     {"delta": 2e-2}),
    # edge dumps of graphs with escaping boxes: a translation, a 3-D poly,
    # a linear map under which every box escapes and the cubic on a window
    # wider than its attractor
    ("translation-graph", "graph", {"name": "translation"},
     {"lower": [0.0, 0.0], "upper": [4.0, 1.0], "depth": [4, 4]}, _DUMP,
     {"eps": 0.3}),
    ("poly3-graph", "graph", _POLY_3D,
     {"lower": [-1.0] * 3, "upper": [1.0] * 3, "depth": [3, 3, 3]}, _DUMP,
     {"eps": 0.05}),
    ("linear-escape-graph", "graph", {"name": "linear", "a": 40.0, "b": 0.5},
     {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "depth": [3, 3]}, _DUMP,
     {}),
    ("cubic1-graph", "graph",
     {"name": "poly", "dimension": 1, "components": [_CUBIC]},
     {"lower": [-3.0], "upper": [3.0], "depth": [8]}, _DUMP, {"eps": 0.01}),
    # chain searches (the one CLI user of the BFS path), the escape and
    # volume experiments, basins with an SVG, absorbed basins seeded by
    # escaping boxes and components on windows off the torus
    ("cat-strong-cr-radial", "strong-cr", _CAT, _torus(5),
     {"eps_fn": "radial", "eps_fn_c": 0.05, "n_samples": 6}, {}),
    ("cubic2-strong-cr", "strong-cr", _CUBIC_2D,
     {"lower": [-2.0, -2.0], "upper": [2.0, 2.0], "depth": [5, 5]},
     {"eps_fn_c": 0.2, "n_samples": 6}, {}),
    ("contraction2-escape", "escape",
     {"name": "contraction", "c": 0.5, "dim": 2},
     {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "depth": [3, 3]},
     {"K_lower": [-0.5, -0.5], "K_upper": [0.5, 0.5], "radius": 0.3,
      "n_max": 5, "samples": 200}, {}),
    ("cubic2-attractors", "attractors", _CUBIC_2D,
     {"lower": [-2.0, -2.0], "upper": [2.0, 2.0], "depth": [6, 6]}, None,
     {"eps": 0.015625}),
    ("cubic1-wide-verify", "conley-verify",
     {"name": "poly", "dimension": 1, "components": [_CUBIC]},
     {"lower": [-3.0], "upper": [3.0], "depth": [10]}, None, {"eps": 0.01}),
    ("cubic2-components", "components", _CUBIC_2D,
     {"lower": [-2.0, -2.0], "upper": [2.0, 2.0], "depth": [5, 5]}, None,
     {"eps": 0.03125}),
    ("shear-components", "components", {"name": "shear"},
     {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "depth": [6, 6]}, None,
     {"eps": 0.0}),
    ("shear-volume", "volume", {"name": "shear"},
     {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "depth": [3, 3]},
     {"samples": 200}, {}),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> str:
    """The `versions` line: float results may move with either version."""
    return f"versions python {platform.python_version()} numpy {np.__version__}"


def digests(seeds) -> list[str]:
    """The `versions` line, then the `s<seed>/run/file digest` lines of
    every run, in the order of RUNS, for each seed in turn."""
    lines = [versions()]
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name, sub, map_cfg, grid, exp, extra in RUNS:
                config = {"map": map_cfg, "grid": grid, "rng_seed": seed,
                          **extra}
                if exp is not None:
                    config["experiment"] = exp
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(config))
                out = Path(tmp) / f"s{seed}" / name
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run_subcommand(sub, str(path), str(out), None)
                key = f"s{seed}/{name}"
                lines.append(f"{key}/exit {code}")
                report = out / "report.json"
                if report.exists():
                    rep = json.loads(report.read_text())
                    rep["config"].pop("out", None)
                    lines.append(f"{key}/report.json " + _sha256(
                        json.dumps(rep, sort_keys=True, indent=2).encode()))
                for f in sorted(p for p in out.glob("*")
                                if p.suffix in (".csv", ".svg", ".txt")):
                    lines.append(f"{key}/{f.name} {_sha256(f.read_bytes())}")
    return lines


def differences(want: list[str], got: list[str]) -> list[str]:
    """One `differs:` line per key whose digest differs between the two
    lists of lines or is missing in one of them."""
    want = dict(line.split(" ", 1) for line in want if line.strip())
    got = dict(line.split(" ", 1) for line in got if line.strip())
    return [f"differs: {key} (was {want.get(key)}, now {got.get(key)})"
            for key in dict.fromkeys([*want, *got])
            if want.get(key) != got.get(key)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, nargs="+", default=[0],
                    help="rng_seed of every config, one pass per seed "
                         "(default 0)")
    ap.add_argument("--against", type=Path, default=None,
                    help="digest lines printed earlier; exit 1 on any "
                         "difference")
    args = ap.parse_args(argv)
    lines = digests(args.seed)
    print("\n".join(lines))
    if args.against is None:
        return 0
    diff = differences(args.against.read_text().splitlines(), lines)
    for line in diff:
        print(line, file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

"""Work and time of `grow_manifold` per side on the manifold configs.

For each case this finds the CLI's anchor (the same `_find_anchor` the
`manifolds`, `homoclinic` and `accumulate` subcommands use) and grows its
W^u and W^s to the case's arclength (the longest of an accumulate
schedule).  Per side it reports:

- `rounds`: refinement rounds that bisected at least one interval;
- `first_only`: those of them that bisected only the first interval of
  their generation, the one that starts at the previous generation's end;
- `pruned`: parameters the rounds dropped as lying past the first image
  at the target arclength;
- `mapped_rows`: chord points handed to the f^±period steps, and
  `map_steps`: single steps of f^±1 they took (rows times steps);
- `vertices` and `capped` of the polyline;
- `grow_s`: the best of `--reps` plain `grow_manifold` calls, in seconds.

    PYTHONPATH=src python3 tools/manifold_stages.py --reps 5
    PYTHONPATH=src python3 tools/manifold_stages.py --case standard-manifolds

The cases are the bench's `homoclinic` workload configs and the standard
map at K = 1.5 and 2.0.  The last line of output is the JSON record of
every case.
"""

from __future__ import annotations

import argparse
import json
import time
from unittest import mock

import numpy as np

from dynkit import cli
from dynkit import manifolds as mf


def _torus(depth):
    return {"lower": [0.0, 0.0], "upper": [1.0, 1.0],
            "periodic": [True, True], "depth": [depth, depth]}


# name: (subcommand, map, grid, experiment)
CASES = {
    "cat-homoclinic": ("homoclinic", {"name": "cat"}, _torus(3),
                       {"arclength": 40, "max_seg": 0.01}),
    "standard-manifolds": ("manifolds", {"name": "standard", "K": 0.97},
                           _torus(6), {"period": 3, "arclength": 5}),
    "cat-accumulate": ("accumulate", {"name": "cat"}, _torus(3),
                       {"arclength_schedule": [5, 10, 20, 40],
                        "max_seg": 0.02, "radii": [0.1, 0.03, 0.01]}),
    "standard-1.5": ("homoclinic", {"name": "standard", "K": 1.5},
                     _torus(3), {"arclength": 6, "max_seg": 0.01}),
    "standard-2.0": ("homoclinic", {"name": "standard", "K": 2.0},
                     _torus(3), {"arclength": 4, "max_seg": 0.01}),
}


def _setup(name: str):
    """Map, anchor, arclength and max_seg of a case, read as the CLI reads
    its config."""
    sub, map_cfg, grid_cfg, exp = CASES[name]
    cfg = cli.validate_config({"map": map_cfg, "grid": grid_cfg,
                               "experiment": exp})
    map_spec, grid = cli._map_and_grid(sub, cfg)
    exp = cli.read_experiment(sub, cfg["experiment"], map_spec.dim, grid)
    hp, _ = cli._find_anchor(cfg, exp, map_spec, grid)
    arclength = exp["arclength"] if "arclength" in exp \
        else max(exp["arclength_schedule"])
    return map_spec, hp, float(arclength), exp["max_seg"]


def _counted(map_spec, hp, side, arclength, max_seg) -> dict:
    """One growth with its rounds and mapped rows counted."""
    n = {"rounds": 0, "first_only": 0, "pruned": 0, "mapped_rows": 0,
         "map_steps": 0}
    bad_intervals, apply_steps = mf._bad_intervals, mf._apply_steps
    # parameters the next round starts from: the last round's, with its
    # midpoints if it bisected; a generation starts from the last one's
    size = [9]

    def bad_counted(deltas, ts, max_seg, turn_max):
        n["pruned"] += size[0] - len(ts)
        bad = bad_intervals(deltas, ts, max_seg, turn_max)
        bisects = bad.any() and len(ts) <= 4096
        if bisects:
            n["rounds"] += 1
            n["first_only"] += int(bad[0] and not bad[1:].any())
        size[0] = len(ts) + (int(np.count_nonzero(bad)) if bisects else 0)
        return bad

    def steps_counted(map_spec, pts, steps, inverse):
        rows = np.atleast_2d(pts).shape[0]
        n["mapped_rows"] += rows
        n["map_steps"] += rows * steps
        return apply_steps(map_spec, pts, steps, inverse)

    with mock.patch.object(mf, "_bad_intervals", bad_counted), \
            mock.patch.object(mf, "_apply_steps", steps_counted):
        poly = mf.grow_manifold(map_spec, hp, side, arclength, max_seg)
    return {**n, "vertices": int(poly.vertices.shape[0]),
            "capped": poly.capped}


def run_case(name: str, reps: int) -> dict:
    map_spec, hp, arclength, max_seg = _setup(name)
    row = {"case": name, "anchor": [float(x) for x in hp.point],
           "arclength": arclength, "max_seg": max_seg}
    for side in ("unstable", "stable"):
        rec = _counted(map_spec, hp, side, arclength, max_seg)
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            mf.grow_manifold(map_spec, hp, side, arclength, max_seg)
            best = min(best, time.perf_counter() - t0)
        row[side] = {**rec, "grow_s": round(best, 4)}
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", choices=list(CASES),
                    help="case to run (repeatable; default: all)")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    rows = [run_case(name, args.reps) for name in args.case or CASES]
    for r in rows:
        for side in ("unstable", "stable"):
            s = r[side]
            print(f"{r['case']:18s} {side:8s} rounds {s['rounds']:4d}"
                  f" (first only {s['first_only']:4d})"
                  f"  pruned {s['pruned']:5d}"
                  f"  mapped rows {s['mapped_rows']:6d}"
                  f"  steps {s['map_steps']:7d}"
                  f"  vertices {s['vertices']:6d}  capped {s['capped']:3d}"
                  f"  grow {s['grow_s']:.4f} s")
    print(json.dumps(rows))


if __name__ == "__main__":
    main()

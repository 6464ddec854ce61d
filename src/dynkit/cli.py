"""Command-line entry point: parse a config file, dispatch experiments,
emit deterministic reports and plot files.

Reports are byte-identical across runs with the same config and seed; the
random generator is numpy's PCG64, seeded from the config (overridable
with --seed).  Wall-clock timings go to a sidecar timings.json excluded
from the determinism surface.  Exit codes: 0 success, 2 validation
failure, 3 experiment-level assertion failure.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .phase_space import BoxSet, Domain, Grid
from .system import MapSpec, make_map, polynomial_map, volume_check
from . import chain_graph as cg
from . import conley
from . import shadowing as sh
from . import manifolds as mf
from .svg import emit_plot

VALIDATION_EXIT = 2
ASSERTION_EXIT = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_TOL_DEFAULTS = {
    "tol_fix": 1e-10,
    "tol_hyp": 1e-6,
    "tol_int": 1e-9,
    "tol_rec": 1e-3,
    "tol_inv": 1e-10,
}

_TOP_KEYS = {"map", "grid", "eps", "eps_box_diameters", "delta", "tolerances",
             "experiment", "rng_seed", "out"}

_MAP_KEYS = {"name", "K", "a", "b", "c", "dim", "alpha", "components",
             "dimension"}

_GRID_KEYS = {"lower", "upper", "periodic", "depth"}

_EXPERIMENT_KEYS = {
    # shadow / splice
    "x0", "N", "eps", "grid_resolution", "q", "n_back", "n_forward",
    # manifolds / homoclinic / accumulate
    "period", "anchor", "arclength", "max_seg", "radii",
    "arclength_schedule", "q_arclength", "allow_missing",
    # strong-cr
    "eps_fn", "eps_fn_c", "n_samples", "points", "max_len",
    # escape
    "K_lower", "K_upper", "radius", "n_max", "samples",
    # attractors / graph / volume
    "candidate_rle", "include_sink", "tol", "dump_edges",
}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"unreadable config: {e}") from e
    if not text.strip():
        raise ConfigError("empty config file: missing required field 'map'")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config does not parse: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "map" not in raw:
        raise ConfigError("missing required field 'map'")
    mp = dict(raw["map"])
    _reject_unknown(mp, _MAP_KEYS, "map")
    if "name" not in mp:
        raise ConfigError("missing required field 'map.name'")

    cfg = {
        "map": mp,
        "grid": None,
        "eps": raw.get("eps"),
        "eps_box_diameters": raw.get("eps_box_diameters"),
        "delta": raw.get("delta", 1e-4),
        "tolerances": dict(_TOL_DEFAULTS),
        "experiment": dict(raw.get("experiment", {})),
        "rng_seed": int(raw.get("rng_seed", 0)),
        "out": raw.get("out", "out"),
    }
    _reject_unknown(cfg["experiment"], _EXPERIMENT_KEYS, "experiment")
    tol = raw.get("tolerances", {})
    _reject_unknown(tol, set(_TOL_DEFAULTS), "tolerances")
    cfg["tolerances"].update({k: float(v) for k, v in tol.items()})
    for name, v in cfg["tolerances"].items():
        if v <= 0:
            raise ConfigError(f"tolerance {name} must be > 0")
    if cfg["delta"] is not None and float(cfg["delta"]) < 0:
        raise ConfigError("delta must be >= 0")

    if "grid" in raw and raw["grid"] is not None:
        gr = dict(raw["grid"])
        _reject_unknown(gr, _GRID_KEYS, "grid")
        for key in ("lower", "upper", "depth"):
            if key not in gr:
                raise ConfigError(f"missing required field 'grid.{key}'")
        depth = [int(d) for d in gr["depth"]]
        if any(d > 12 or d < 0 for d in depth):
            raise ConfigError("grid.depth entries must lie in [0, 12]")
        periodic = gr.get("periodic", [False] * len(depth))
        cfg["grid"] = {"lower": [float(x) for x in gr["lower"]],
                       "upper": [float(x) for x in gr["upper"]],
                       "periodic": [bool(b) for b in periodic],
                       "depth": depth}
    if cfg["eps"] is None and cfg["eps_box_diameters"] is None:
        cfg["eps_box_diameters"] = 1.0
    return cfg


def build_map(cfg: dict) -> MapSpec:
    mp = cfg["map"]
    name = mp["name"]
    try:
        if name == "poly":
            dim = int(mp.get("dimension", mp.get("dim", 0)))
            if dim < 1:
                raise ConfigError("polynomial map needs 'dimension'")
            window = None
            if cfg["grid"] is not None:
                window = (cfg["grid"]["lower"], cfg["grid"]["upper"])
            return polynomial_map(mp["components"], dim, window=window)
        params = {k: v for k, v in mp.items() if k not in ("name", "dimension")}
        return make_map(name, **params)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad map spec: {e}") from e


def build_grid(cfg: dict) -> Grid:
    if cfg["grid"] is None:
        raise ConfigError("missing required field 'grid'")
    g = cfg["grid"]
    try:
        dom = Domain(tuple(g["lower"]), tuple(g["upper"]), tuple(g["periodic"]))
        return Grid(dom, tuple(g["depth"]))
    except ValueError as e:
        raise ConfigError(f"bad grid: {e}") from e


def _map_and_grid(cfg: dict) -> tuple[MapSpec, Grid]:
    """The configured map and grid, checked to share one dimension."""
    map_spec = build_map(cfg)
    grid = build_grid(cfg)
    if map_spec.dim != grid.dim:
        raise ConfigError(f"map {map_spec.name!r} has dimension "
                          f"{map_spec.dim} but the grid has {grid.dim}")
    return map_spec, grid


def _build_graph(cfg: dict, blocks: bool = False) -> cg.TransitionGraph:
    """The configured transition graph; `blocks` marks a run that looks for
    attractor blocks, which need the fattening of a graph with eps > 0."""
    map_spec, grid = _map_and_grid(cfg)
    eps = resolve_eps(cfg, grid)
    if blocks and eps == 0:
        raise ConfigError("attractor blocks need a graph built with eps > 0")
    if grid.nboxes > cg.MAX_NBOXES:
        raise ConfigError(f"grid has {grid.nboxes} boxes; the transition "
                          f"graph holds at most {cg.MAX_NBOXES}")
    return cg.build_graph(grid, map_spec, eps)


def _as_point(value, where: str, dim: int) -> np.ndarray:
    """A config value as a point of the map's dimension."""
    try:
        p = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where} is not a point: {e}") from e
    if p.shape != (dim,):
        raise ConfigError(f"{where} needs {dim} coordinates, got {value!r}")
    return p


def _point(exp: dict, key: str, dim: int, default=None) -> np.ndarray:
    """experiment[key] as a point of the map's dimension."""
    return _as_point(exp.get(key, default), f"experiment.{key}", dim)


def _check_search(eps: float, res: float) -> None:
    """The shadow search needs a positive eps and grid resolution."""
    if not (eps > 0 and res > 0):
        raise ConfigError("experiment.eps and experiment.grid_resolution "
                          "must be > 0")


def resolve_eps(cfg: dict, grid: Grid) -> float:
    if cfg["eps"] is not None:
        eps = float(cfg["eps"])
    else:
        eps = float(cfg["eps_box_diameters"]) * grid.box_diameter
    if eps < 0:
        raise ConfigError("eps must be >= 0")
    return eps


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, BoxSet):
        return {"rle": obj.rle(), "count": len(obj)}
    return obj


def write_report(out_dir: Path, subcommand: str, cfg: dict, results: dict,
                 artifacts: list, wall_s: float) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "tool": {"name": "dynkit", "version": __version__},
        "subcommand": subcommand,
        "config": _jsonable(cfg),
        "results": _jsonable(results),
        "artifacts": sorted(str(a) for a in artifacts),
    }
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out_dir / "timings.json").write_text(
        json.dumps({"wall_s": wall_s}, indent=2) + "\n")
    return path


def write_csv(path: Path, header: list, rows) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                              for x in row) + "\n")
    return path


def _orbit_csv_rows(points: np.ndarray, defects=None):
    for i, p in enumerate(points):
        row = [i] + [float(x) for x in p]
        if defects is not None:
            row.append(float(defects[i]) if i < len(defects) else 0.0)
        yield row


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

def _graph_stats(tg) -> dict:
    deg = tg.out_degrees()[:-1]
    return {
        "nboxes": tg.nboxes,
        "n_edges": tg.n_edges,
        "eps": tg.eps,
        "lipschitz_used": tg.lipschitz_used,
        "out_degree_min": int(deg.min()),
        "out_degree_max": int(deg.max()),
        "escaping_boxes": int(np.count_nonzero(
            tg.targets == tg.sink) - 1),
    }


def run_graph(cfg, out_dir, tg=None):
    if tg is None:
        tg = _build_graph(cfg)
    artifacts = []
    if cfg["experiment"].get("dump_edges"):
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "edges.txt"
        src = np.repeat(np.arange(tg.n_nodes), tg.out_degrees())
        with open(path, "w", encoding="utf-8") as fh:
            for a, b in zip(src, tg.targets):
                fh.write(f"{a} {b}\n")
        artifacts.append(path.name)
    return {"graph": _graph_stats(tg)}, artifacts, 0


def run_cr(cfg, out_dir, tg=None):
    if tg is None:
        tg = _build_graph(cfg)
    grid = tg.grid
    crset = cg.chain_recurrent_boxes(tg)
    results = {
        "graph": _graph_stats(tg),
        "chain_recurrent_boxes": crset,
        "chain_recurrent_fraction": len(crset) / grid.nboxes,
    }
    artifacts = []
    if grid.dim == 2:
        svg = out_dir / "chain_recurrent.svg"
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_plot([{"kind": "boxset", "data": crset}], svg,
                  grid.domain.lower, grid.domain.upper)
        artifacts.append(svg.name)
    return results, artifacts, 0


def run_components(cfg, out_dir, tg=None):
    if tg is None:
        tg = _build_graph(cfg)
    comps = cg.chain_components(tg)
    results = {
        "graph": _graph_stats(tg),
        "n_components": len(comps),
        "components": [{"id": c.id, "size": len(c.boxes),
                        "boxes": c.boxes} for c in comps],
        "chain_transitive": cg.is_chain_transitive(tg),
    }
    return results, [], 0


def run_attractors(cfg, out_dir):
    exp = cfg["experiment"]
    include_sink = exp.get("include_sink", False)
    if not isinstance(include_sink, bool):
        raise ConfigError(f"include_sink must be true or false, got {include_sink!r}")
    tg = _build_graph(cfg, blocks=not include_sink)
    grid = tg.grid
    candidates = None
    if "candidate_rle" in exp:
        try:
            candidates = [BoxSet.from_rle(grid, exp["candidate_rle"])]
        except ValueError as e:
            raise ConfigError(f"bad candidate_rle: {e}") from e
    blocks = conley.find_attractor_blocks(tg, candidates=candidates) \
        if not include_sink else (candidates or [])
    try:
        records = conley.build_attractor_records(
            tg, tg.map_spec, blocks, rng_seed=cfg["rng_seed"],
            include_sink=include_sink)
    except conley.NotABlockError as e:
        raise ConfigError(
            f"candidate_rle is not an attractor block: {e}") from e
    results = {
        "graph": _graph_stats(tg),
        "n_blocks": len(records),
        # per-block basins only; their union is a lower bound for the
        # extended basin (no finite enumeration of absorbing sets exists)
        "extended_basin_is_lower_bound": True,
        "records": [{
            "block": r.block, "attractor": r.attractor, "basin": r.basin,
            "iterations_to_fixpoint": r.iterations_to_fixpoint,
            "flags": {
                "invariant": r.flags.invariant,
                "orbit_disjoint": r.flags.orbit_disjoint,
                "boundary_forward_invariant": r.flags.boundary_forward_invariant,
            }} for r in records],
    }
    artifacts = []
    if grid.dim == 2 and records:
        svg = out_dir / "attractors.svg"
        out_dir.mkdir(parents=True, exist_ok=True)
        layers = []
        for i, r in enumerate(records[:4]):
            layers.append({"kind": "boxset", "data": r.basin, "color": 7})
            layers.append({"kind": "boxset", "data": r.attractor, "color": i})
        emit_plot(layers, svg, grid.domain.lower, grid.domain.upper)
        artifacts.append(svg.name)
    return results, artifacts, 0


def run_conley_verify(cfg, out_dir, tg=None):
    if tg is None:
        tg = _build_graph(cfg, blocks=True)
    report = conley.verify_conley_decomposition(tg)
    results = {
        "graph": _graph_stats(tg),
        # with escaping mass the block enumeration is only a lower bound
        # (no finite procedure lists absorbing sets on a window truncation)
        "has_escaping_mass": tg.has_sink_edges(),
        "n_blocks": report.n_blocks,
        "lhs_count": report.lhs_count,
        "rhs_count": report.rhs_count,
        "symmetric_difference": report.symmetric_difference,
        "lhs_only": report.lhs_only,
        "rhs_only": report.rhs_only,
        "identity_holds": report.identity_holds,
    }
    return results, [], 0 if report.identity_holds else ASSERTION_EXIT


def run_strong_cr(cfg, out_dir):
    map_spec, grid = _map_and_grid(cfg)
    exp = cfg["experiment"]
    kind = exp.get("eps_fn", "constant")
    c = float(exp.get("eps_fn_c", 0.1))
    eps_fn = cg.ConstantEps(c) if kind == "constant" else cg.RadialEps(c)
    pts = exp.get("points")
    if pts is None:
        rng = np.random.default_rng(cfg["rng_seed"])
        full = BoxSet.full(grid)
        pts = full.sample_points(int(exp.get("n_samples", 8)), rng).tolist()
    if not isinstance(pts, list):
        raise ConfigError("experiment.points must be a list of points")
    pts = [_as_point(p, "experiment.points entry", map_spec.dim) for p in pts]
    rows = []
    found_any = False
    tg = None  # one graph for every point that is not fixed within eps
    for p in pts:
        if tg is None and cg.fixed_point_chain(map_spec, p, eps_fn) is None:
            tg = cg.build_graph(grid, map_spec, 0.0, eps_fn=eps_fn)
        chain = cg.strong_chain_search(map_spec, p, eps_fn, grid,
                                       max_len=exp.get("max_len"), tg=tg)
        found_any |= chain is not None
        rows.append({"point": list(map(float, p)),
                     "found": chain is not None,
                     "length": None if chain is None else len(chain)})
    results = {"eps_fn": {"kind": kind, "c": c}, "searches": rows,
               "any_found": found_any}
    return results, [], 0


def run_escape(cfg, out_dir):
    map_spec, grid = _map_and_grid(cfg)
    exp = cfg["experiment"]
    lo = np.asarray(exp.get("K_lower"), dtype=float)
    hi = np.asarray(exp.get("K_upper"), dtype=float)
    if lo.shape != (grid.dim,) or hi.shape != (grid.dim,):
        raise ConfigError("escape experiment needs K_lower/K_upper of grid dim")
    centers = grid.centers()
    mask = np.all((centers >= lo) & (centers < hi), axis=1)
    K = BoxSet(grid, mask)
    fraction = conley.escape_fraction(
        map_spec, K, float(exp.get("radius", 10.0)),
        int(exp.get("n_max", 20)), int(exp.get("samples", 1000)),
        rng_seed=cfg["rng_seed"])
    results = {"K_boxes": len(K), "radius": float(exp.get("radius", 10.0)),
               "n_max": int(exp.get("n_max", 20)),
               "bounded_fraction": fraction}
    return results, [], 0


def run_shadow(cfg, out_dir):
    map_spec = build_map(cfg)
    exp = cfg["experiment"]
    x0 = _point(exp, "x0", map_spec.dim, [0.1] * map_spec.dim)
    N = int(exp.get("N", 100))
    eps = float(exp.get("eps", 1e-2))
    res = float(exp.get("grid_resolution", eps / 10.0))
    _check_search(eps, res)
    if N < 1:
        raise ConfigError("experiment.N must be >= 1")
    po = sh.random_pseudo_orbit(map_spec, x0, float(cfg["delta"]), N,
                                rng_seed=cfg["rng_seed"])
    result = sh.shadow_search(map_spec, po, eps, res)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "pseudo_orbit.csv"
    sh.pseudo_orbit_to_csv(po, csv)
    results = {
        "delta": po.delta, "N": N, "eps": eps,
        "shadowed": result.shadowed, "achieved_eps": result.achieved_eps,
        "method": result.method, "seed_point": result.x,
        "search_resolution": result.search_resolution,
    }
    return results, [csv.name], 0


def run_splice(cfg, out_dir):
    map_spec = build_map(cfg)
    exp = cfg["experiment"]
    q = _point(exp, "q", map_spec.dim)
    x0 = _point(exp, "x0", map_spec.dim)
    eps = float(exp.get("eps", 1e-4))
    res = float(exp.get("grid_resolution", 1e-5))
    _check_search(eps, res)
    try:
        po = sh.splice_pseudo_orbit(map_spec, q, x0, float(cfg["delta"]),
                                    n_back=int(exp.get("n_back", 30)),
                                    n_forward=int(exp.get("n_forward", 30)))
    except sh.NoApproachError as e:
        return {"spliced": False, "min_distance": e.min_distance}, [], ASSERTION_EXIT
    result = sh.shadow_search(map_spec, po, eps, res)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "splice_orbit.csv"
    sh.pseudo_orbit_to_csv(po, csv)
    results = {
        "spliced": True, "n0": po.provenance["n0"],
        "delta": po.delta, "eps": eps,
        "shadowed": result.shadowed, "achieved_eps": result.achieved_eps,
        "method": result.method,
    }
    return results, [csv.name], 0


def _find_anchor(map_spec, grid, cfg, exp):
    period = int(exp.get("period", 1))
    tol_fix = cfg["tolerances"]["tol_fix"]
    points = mf.find_periodic_points(map_spec, period, grid, tol_fix=tol_fix)
    hyper = [p for p in points if p.is_hyperbolic]
    if not hyper:
        raise ConfigError("no hyperbolic periodic point found")
    if exp.get("anchor") is not None:
        target = _point(exp, "anchor", map_spec.dim)
        hyper.sort(key=lambda h: float(map_spec.distance(h.point, target)))
    return hyper[0], points


def run_manifolds(cfg, out_dir):
    map_spec, grid = _map_and_grid(cfg)
    exp = cfg["experiment"]
    hp, all_points = _find_anchor(map_spec, grid, cfg, exp)
    L = float(exp.get("arclength", 10.0))
    max_seg = float(exp.get("max_seg", 0.01))
    Wu = mf.grow_manifold(map_spec, hp, "unstable", L, max_seg)
    Ws = mf.grow_manifold(map_spec, hp, "stable", L, max_seg)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for poly, nm in ((Wu, "unstable"), (Ws, "stable")):
        csv = out_dir / f"manifold_{nm}.csv"
        write_csv(csv, ["index", "x0", "x1"],
                  _orbit_csv_rows(poly.vertices))
        artifacts.append(csv.name)
    if map_spec.dim == 2:
        svg = out_dir / "manifolds.svg"
        emit_plot([{"kind": "polyline", "data": Wu.vertices, "color": 1},
                   {"kind": "polyline", "data": Ws.vertices, "color": 0}],
                  svg, grid.domain.lower, grid.domain.upper)
        artifacts.append(svg.name)
    results = {
        "n_periodic_points": len(all_points),
        "anchor": hp.point,
        "eigenvalues": [complex(v).real for v in hp.eigenvalues],
        "unstable_vertices": int(Wu.vertices.shape[0]),
        "stable_vertices": int(Ws.vertices.shape[0]),
        "arclength": L,
        "capped_segments": Wu.capped + Ws.capped,
    }
    return results, artifacts, 0


def run_homoclinic(cfg, out_dir):
    map_spec, grid = _map_and_grid(cfg)
    exp = cfg["experiment"]
    hp, _ = _find_anchor(map_spec, grid, cfg, exp)
    L = float(exp.get("arclength", 10.0))
    max_seg = float(exp.get("max_seg", 0.01))
    Wu = mf.grow_manifold(map_spec, hp, "unstable", L, max_seg)
    Ws = mf.grow_manifold(map_spec, hp, "stable", L, max_seg)
    hits = mf.homoclinic_points(Wu, Ws, map_spec=map_spec,
                                tol_int=cfg["tolerances"]["tol_int"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "homoclinic_points.csv"
    write_csv(csv, ["index", "x0", "x1", "angle", "dist_from_anchor"],
              ([i] + [float(x) for x in h.point] +
               [float(h.angle), float(h.distance_from_anchor)]
               for i, h in enumerate(hits)))
    artifacts = [csv.name]
    if map_spec.dim == 2:
        svg = out_dir / "homoclinic.svg"
        layers = [{"kind": "polyline", "data": Wu.vertices, "color": 1},
                  {"kind": "polyline", "data": Ws.vertices, "color": 0}]
        if hits:
            layers.append({"kind": "cloud",
                           "data": np.asarray([h.point for h in hits]),
                           "color": 4})
        emit_plot(layers, svg, grid.domain.lower, grid.domain.upper)
        artifacts.append(svg.name)
    results = {
        "anchor": hp.point,
        "arclength": L,
        "n_hits": len(hits),
        "nearest_distance": hits[0].distance_from_anchor if hits else None,
        "capped_segments": Wu.capped + Ws.capped,
    }
    return results, artifacts, 0


def run_accumulate(cfg, out_dir):
    map_spec, grid = _map_and_grid(cfg)
    exp = cfg["experiment"]
    hp, _ = _find_anchor(map_spec, grid, cfg, exp)
    radii = [float(r) for r in exp.get("radii", [0.1, 0.03, 0.01])]
    schedule = [float(L) for L in exp.get("arclength_schedule", [5, 10, 20])]
    max_seg = float(exp.get("max_seg", 0.01))
    if "q" in exp:
        q = _point(exp, "q", map_spec.dim)
    else:
        arc = float(exp.get("q_arclength", 0.3))
        Wu = mf.grow_manifold(map_spec, hp, "unstable", arc * 1.2, max_seg)
        k = int(np.searchsorted(Wu.arclength, arc))
        q = Wu.vertices[min(k, Wu.vertices.shape[0] - 1)]
    rows = mf.accumulation_check(map_spec, hp, q, radii, schedule,
                                 max_seg=max_seg)
    results = {
        "anchor": hp.point, "q": q,
        "rows": [{"radius": r.radius, "found": r.found,
                  "arclength_used": r.arclength_used,
                  "hit": None if r.hit is None else list(map(float, r.hit.point))}
                 for r in rows],
        "all_found": all(r.found for r in rows),
        "capped_segments": max((r.capped for r in rows), default=0),
    }
    code = 0 if bool(exp.get("allow_missing", True)) or results["all_found"] \
        else ASSERTION_EXIT
    return results, [], code


def run_volume(cfg, out_dir):
    exp = cfg["experiment"]
    if cfg["grid"] is not None:
        map_spec, _ = _map_and_grid(cfg)
        window = (cfg["grid"]["lower"], cfg["grid"]["upper"])
    else:
        map_spec = build_map(cfg)
        window = ([0.0] * map_spec.dim, [1.0] * map_spec.dim)
    rep = volume_check(map_spec, window, int(exp.get("samples", 1000)),
                       float(exp.get("tol", 1e-9)), rng_seed=cfg["rng_seed"])
    results = {"max_deviation": rep.max_deviation, "passed": rep.passed,
               "samples": rep.samples, "tol": rep.tol}
    return results, [], 0


_SUBCOMMANDS = {
    "graph": run_graph,
    "cr": run_cr,
    "components": run_components,
    "attractors": run_attractors,
    "conley-verify": run_conley_verify,
    "strong-cr": run_strong_cr,
    "escape": run_escape,
    "shadow": run_shadow,
    "splice": run_splice,
    "manifolds": run_manifolds,
    "homoclinic": run_homoclinic,
    "accumulate": run_accumulate,
    "volume": run_volume,
}

# run by `all`, in this order; all but volume share one graph
_ALL_SAFE = ["graph", "cr", "components", "conley-verify", "volume"]


def run_subcommand(name: str, config_path: str, out: str | None,
                   seed: int | None, threads=None) -> int:
    """Run one subcommand and write its report; returns the exit code.

    `threads` is a retired fifth argument, kept so that five-argument
    callers keep working. dynkit starts no worker threads, and any value
    but None is a config error.
    """
    try:
        if threads is not None:
            raise ConfigError("threads is no longer supported")
        cfg = load_config(config_path)
        if seed is not None:
            cfg["rng_seed"] = int(seed)
        out_dir = Path(out) if out is not None else Path(cfg["out"])
        cfg["out"] = str(out_dir)
    except (ConfigError, ValueError) as e:
        click.echo(f"config error: {e}", err=True)
        return VALIDATION_EXIT

    t0 = time.perf_counter()
    try:
        if name == "all":
            results = {}
            artifacts = []
            code = 0
            tg = _build_graph(cfg, blocks=True)
            for sub in _ALL_SAFE:
                run = _SUBCOMMANDS[sub]
                if sub == "volume":
                    r, a, c = run(cfg, Path(out_dir))
                else:
                    r, a, c = run(cfg, Path(out_dir), tg)
                results[sub] = r
                artifacts.extend(a)
                code = max(code, c)
        else:
            results, artifacts, code = _SUBCOMMANDS[name](cfg, Path(out_dir))
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        return VALIDATION_EXIT
    wall = time.perf_counter() - t0
    write_report(Path(out_dir), name, cfg, results, artifacts, wall)
    if code == 0:
        click.echo(f"{name}: ok ({out_dir}/report.json)")
    else:
        click.echo(f"{name}: FAILED assertion (exit {code}); see "
                   f"{out_dir}/report.json", err=True)
    return code


@click.group()
@click.version_option(version=__version__, prog_name="dynkit")
def main():
    """Set-oriented experiments on discrete-time dynamical systems."""


def _register(name: str, doc: str):
    @main.command(name=name, help=doc)
    @click.option("--config", "config_path", required=True,
                  type=click.Path(), help="Path to the JSON config file.")
    @click.option("--out", default=None, type=click.Path(),
                  help="Output directory (overrides config).")
    @click.option("--seed", default=None, type=int,
                  help="RNG seed (overrides config).")
    def _cmd(config_path, out, seed, _name=name):
        sys.exit(run_subcommand(_name, config_path, out, seed))


_register("graph", "Build the transition graph and report statistics.")
_register("cr", "Chain recurrent boxes at the configured resolution.")
_register("components", "Chain components (nontrivial SCCs).")
_register("attractors", "Attractor blocks, attractors, basins and flags.")
_register("conley-verify", "Check the attractor-basin decomposition identity.")
_register("strong-cr", "Variable-threshold (strong) chain recurrence search.")
_register("escape", "Bounded-orbit fraction near an attractor.")
_register("shadow", "Random pseudo-orbit and shadow search.")
_register("splice", "Two-orbit splice pseudo-orbit and shadow search.")
_register("manifolds", "Stable/unstable manifold polylines.")
_register("homoclinic", "Homoclinic intersections of the manifolds.")
_register("accumulate", "Homoclinic accumulation around a W^u point.")
_register("volume", "Volume-preservation diagnostic.")
_register("all", "Run the graph-based experiments in sequence.")


if __name__ == "__main__":
    main()

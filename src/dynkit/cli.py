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
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from ._util import fill_rows, write_csv
from .phase_space import BoxSet, Domain, Grid
from .system import MapSpec, make_map, polynomial_map, volume_check
from . import chain_graph as cg
from . import conley
from . import shadowing as sh
from . import manifolds as mf
from .svg import emit_plot

VALIDATION_EXIT = 2
ASSERTION_EXIT = 3

# seed lattice points above which `shadow` and `splice` warn on stderr; a
# lattice of 361k points (eps / grid_resolution = 300 in 2-D) took 43 s
SEED_LATTICE_BUDGET = 1_000_000


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

# A reader(value, where, dim, grid) checks one config value, named `where`
# in errors, against the run's map dimension and grid; it returns it typed.

def _number(lo=-math.inf, strict=True, integer=False):
    """Reader of a finite number, or an integer if `integer`, above `lo`
    (at least `lo` if not `strict`)."""
    what = "an integer" if integer else "a number"
    if lo > -math.inf:
        what += f" {'>' if strict else '>='} {lo}"

    def read(v, where, dim=None, grid=None):
        if not (type(v) in (int, float) and abs(v) <= sys.float_info.max
                and (not integer or v == int(v))
                and (v > lo if strict else v >= lo)):
            raise ConfigError(f"{where} must be {what}, got {v!r}")
        return int(v) if integer else float(v)
    return read


def _flag(v, where, dim=None, grid=None):
    if not isinstance(v, bool):
        raise ConfigError(f"{where} must be true or false, got {v!r}")
    return v


def _choice(*names):
    """Reader of one of `names`."""
    def read(v, where, dim=None, grid=None):
        if v not in names:
            raise ConfigError(f"{where} must be one of {list(names)}, got {v!r}")
        return v
    return read


def _list(item):
    """Reader of a nonempty list of `item` values."""
    def read(v, where, dim=None, grid=None):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{where} must be a nonempty list, got {v!r}")
        return [item(x, f"{where}[{i}]", dim, grid) for i, x in enumerate(v)]
    return read


_REALS = _list(_number())
_POSITIVE = _number(0)
_NONNEGATIVE = _number(0, strict=False)
_COUNT = _number(1, strict=False, integer=True)
_NATURAL = _number(0, strict=False, integer=True)


def _coords(v, where, dim, grid=None):
    """Reader of a point of the map's dimension."""
    if not isinstance(v, list) or len(v) != dim:
        raise ConfigError(f"{where} must be a point of {dim} coordinates, "
                          f"got {v!r}")
    return np.array(_REALS(v, where))


def _rle(v, where, dim, grid):
    """Reader of a nonempty box set of the run's grid, as [start, length]
    runs."""
    if isinstance(v, list) and not v:
        raise ConfigError(f"bad {where}: the run list is empty")
    try:
        return BoxSet.from_rle(grid, v)
    except ValueError as e:
        raise ConfigError(f"bad {where}: {e}") from e


_TOP_KEYS = {"map", "grid", "eps", "eps_box_diameters", "delta", "tolerances",
             "experiment", "rng_seed", "out"}

_MAP_KEYS = {"name", "K", "a", "b", "c", "dim", "alpha", "components",
             "dimension"}

# tables of {key: (reader, default)}; a default of ... marks a required
# key, and None one whose absence the run handles itself
_TOLERANCES = {"tol_fix": (_POSITIVE, 1e-10), "tol_hyp": (_POSITIVE, 1e-6),
               "tol_int": (_POSITIVE, 1e-9)}

_GRID = {"lower": (_REALS, ...), "upper": (_REALS, ...),
         "periodic": (_list(_flag), None),
         "depth": (_list(_NATURAL), ...)}

_ANCHOR = {"period": (_COUNT, 1), "anchor": (_coords, None),
           "max_seg": (_POSITIVE, 0.01)}

# the experiment keys of each subcommand: each one accepts only what it reads
_EXPERIMENT = {
    "graph": {"dump_edges": (_flag, False)},
    "cr": {}, "components": {}, "conley-verify": {},
    "attractors": {"candidate_rle": (_rle, None),
                   "include_sink": (_flag, False)},
    "strong-cr": {"eps_fn": (_choice("constant", "radial"), "constant"),
                  "eps_fn_c": (_POSITIVE, 0.1), "n_samples": (_COUNT, 8),
                  "points": (_list(_coords), None), "max_len": (_COUNT, None)},
    "escape": {"K_lower": (_coords, ...), "K_upper": (_coords, ...),
               "radius": (_POSITIVE, 10.0), "n_max": (_NATURAL, 20),
               "samples": (_COUNT, 1000)},
    "shadow": {"x0": (_coords, None), "N": (_COUNT, 100),
               "eps": (_POSITIVE, 1e-2), "grid_resolution": (_POSITIVE, None)},
    "splice": {"q": (_coords, ...), "x0": (_coords, ...),
               "eps": (_POSITIVE, 1e-4), "grid_resolution": (_POSITIVE, 1e-5),
               "n_back": (_NATURAL, 30), "n_forward": (_NATURAL, 30)},
    "manifolds": {**_ANCHOR, "arclength": (_POSITIVE, 10.0)},
    "homoclinic": {**_ANCHOR, "arclength": (_POSITIVE, 10.0)},
    "accumulate": {**_ANCHOR, "radii": (_list(_POSITIVE), [0.1, 0.03, 0.01]),
                   "arclength_schedule": (_list(_POSITIVE), [5.0, 10.0, 20.0]),
                   "q": (_coords, None), "q_arclength": (_POSITIVE, 0.3),
                   "allow_missing": (_flag, True)},
    "volume": {"samples": (_COUNT, 1000), "tol": (_NONNEGATIVE, 1e-9)},
}

# run by `all`, in this order; all but volume share one graph
_ALL_SAFE = ["graph", "cr", "components", "conley-verify", "volume"]
_EXPERIMENT["all"] = {key: entry for sub in _ALL_SAFE
                      for key, entry in _EXPERIMENT[sub].items()}

# subcommands that run on the configured transition graph, mapped to
# whether they look for attractor blocks, which need a graph with eps > 0
_ON_GRAPH = {"graph": False, "cr": False, "components": False,
             "conley-verify": True, "attractors": True, "all": True}


def _fields(d, allowed, where: str) -> dict:
    """`d`, checked to be an object whose keys all lie in `allowed`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}; "
                          f"it accepts {sorted(allowed)}")
    return d


def _read(d, table: dict, where: str, dim=None, grid=None) -> dict:
    """The object `d` read through `table`: each key given is checked by
    its reader, each key left out takes its default."""
    _fields(d, table, where)
    out = {}
    for key, (read, default) in table.items():
        if key in d:
            out[key] = read(d[key], f"{where}.{key}", dim, grid)
        elif default is ...:
            raise ConfigError(f"missing required field '{where}.{key}'")
        else:
            out[key] = default
    return out


def read_experiment(name: str, exp, dim: int, grid: Grid | None) -> dict:
    """The experiment keys subcommand `name` reads, checked and with
    defaults filled in; any other key is a config error."""
    return _read(exp, _EXPERIMENT[name], "experiment", dim, grid)


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
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    """The checked config; eps, eps_box_diameters, delta and experiment
    keep their given values, and read_experiment reads the experiment."""
    _fields(raw, _TOP_KEYS, "config")
    if "map" not in raw:
        raise ConfigError("missing required field 'map'")
    mp = dict(_fields(raw["map"], _MAP_KEYS, "map"))
    if "name" not in mp:
        raise ConfigError("missing required field 'map.name'")

    cfg = {
        "map": mp,
        "grid": None,
        "eps": raw.get("eps"),
        "eps_box_diameters": raw.get("eps_box_diameters"),
        "delta": raw.get("delta", 1e-4),
        "tolerances": _read(raw.get("tolerances", {}), _TOLERANCES,
                            "tolerances"),
        "experiment": raw.get("experiment", {}),
        "rng_seed": _NATURAL(raw.get("rng_seed", 0), "rng_seed"),
        "out": raw.get("out", "out"),
    }
    for key in ("eps", "eps_box_diameters"):
        if cfg[key] is not None:
            _NONNEGATIVE(cfg[key], key)
    _NONNEGATIVE(cfg["delta"], "delta")
    if not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a path, got {cfg['out']!r}")
    if raw.get("grid") is not None:
        cfg["grid"] = gr = _read(raw["grid"], _GRID, "grid")
        if gr["periodic"] is None:
            gr["periodic"] = [False] * len(gr["depth"])
    if cfg["eps"] is None and cfg["eps_box_diameters"] is None:
        cfg["eps_box_diameters"] = 1.0
    return cfg


def build_map(cfg: dict) -> MapSpec:
    mp = cfg["map"]
    name = mp["name"]
    try:
        if name == "poly":
            key = "dimension" if "dimension" in mp else "dim"
            if key not in mp:
                raise ConfigError("polynomial map needs 'dimension'")
            unread = set(mp) - {"name", "components", key}
            if unread:
                raise ConfigError(f"map 'poly' does not read {sorted(unread)}")
            dim = _COUNT(mp[key], f"map.{key}")
            return polynomial_map(mp["components"], dim)
        params = {k: v for k, v in mp.items() if k != "name"}
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


def _map_and_grid(name: str, cfg: dict) -> tuple[MapSpec, Grid | None]:
    """The configured map and, unless subcommand `name` runs without one,
    the grid, checked to share the map's dimension and, for a torus map,
    to be its unit torus.  The homoclinic subcommands need a 2-D map."""
    map_spec = build_map(cfg)
    if name in ("homoclinic", "accumulate") and map_spec.dim != 2:
        raise ConfigError(f"{name} intersects planar manifolds; map "
                          f"{map_spec.name!r} has dimension {map_spec.dim}")
    if name in ("shadow", "splice") or (name == "volume" and cfg["grid"] is None):
        return map_spec, None
    grid = build_grid(cfg)
    if map_spec.dim != grid.dim:
        raise ConfigError(f"map {map_spec.name!r} has dimension "
                          f"{map_spec.dim} but the grid has {grid.dim}")
    # torus images are wrapped into one unit period per axis, so boxes of
    # a wider or non-periodic window would have no preimage or escape
    if map_spec.periods is not None and not (
            all(grid.domain.periodic) and np.all(grid.domain.widths == 1.0)):
        raise ConfigError(f"map {map_spec.name!r} lives on the unit torus: "
                          f"every grid axis must be periodic and 1.0 wide")
    return map_spec, grid


def _build_graph(cfg: dict, map_spec: MapSpec, grid: Grid, blocks: bool,
                 eps_fn=None) -> cg.TransitionGraph:
    """The configured transition graph, or with `eps_fn` the eps = 0 graph
    fattened by it; `blocks` marks a run that looks for attractor blocks,
    which need the fattening of a graph with eps > 0.  A graph the build
    refuses (non-finite image rectangles) is a config error."""
    eps = 0.0 if eps_fn is not None else resolve_eps(cfg, grid)
    if blocks and eps == 0:
        raise ConfigError("attractor blocks need a graph built with eps > 0")
    if grid.nboxes > cg.MAX_NBOXES:
        raise ConfigError(f"grid has {grid.nboxes} boxes; the transition "
                          f"graph holds at most {cg.MAX_NBOXES}")
    try:
        return cg.build_graph(grid, map_spec, eps, eps_fn=eps_fn)
    except ValueError as e:
        raise ConfigError(f"cannot build the transition graph: {e}") from e


def resolve_eps(cfg: dict, grid: Grid) -> float:
    if cfg["eps"] is not None:
        return float(cfg["eps"])
    return float(cfg["eps_box_diameters"]) * grid.box_diameter


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


def _plot(out_dir: Path, name: str, layers: list, grid: Grid) -> str:
    """Write `layers` over the grid's window to out_dir/name; returns name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_plot(layers, out_dir / name, grid.domain.lower, grid.domain.upper)
    return name


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------
# Each run takes the config, its checked experiment keys and the output
# directory, then the graph (subcommands in _ON_GRAPH) or the map and grid.

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


def run_graph(cfg, exp, out_dir, tg):
    artifacts = []
    if exp["dump_edges"]:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "edges.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for src, tgt in tg.edge_chunks():
                fh.write(fill_rows("%d %d\n", np.column_stack((src, tgt)), ""))
        artifacts.append(path.name)
    return {"graph": _graph_stats(tg)}, artifacts, 0


def run_cr(cfg, exp, out_dir, tg):
    grid = tg.grid
    crset = cg.chain_recurrent_boxes(tg)
    results = {
        "graph": _graph_stats(tg),
        "chain_recurrent_boxes": crset,
        "chain_recurrent_fraction": len(crset) / grid.nboxes,
    }
    artifacts = []
    if grid.dim == 2:
        artifacts.append(_plot(out_dir, "chain_recurrent.svg",
                               [{"kind": "boxset", "data": crset}], grid))
    return results, artifacts, 0


def run_components(cfg, exp, out_dir, tg):
    comps = cg.chain_components(tg)
    results = {
        "graph": _graph_stats(tg),
        "n_components": len(comps),
        "components": [{"id": c.id, "size": len(c.boxes),
                        "boxes": c.boxes} for c in comps],
        "chain_transitive": cg.is_chain_transitive(tg),
    }
    return results, [], 0


def run_attractors(cfg, exp, out_dir, tg):
    grid = tg.grid
    include_sink = exp["include_sink"]
    candidates = None if exp["candidate_rle"] is None else [exp["candidate_rle"]]
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
        layers = []
        for i, r in enumerate(records[:4]):
            layers.append({"kind": "boxset", "data": r.basin, "color": 7})
            layers.append({"kind": "boxset", "data": r.attractor, "color": i})
        artifacts.append(_plot(out_dir, "attractors.svg", layers, grid))
    return results, artifacts, 0


def run_conley_verify(cfg, exp, out_dir, tg):
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


def run_strong_cr(cfg, exp, out_dir, map_spec, grid):
    kind, c = exp["eps_fn"], exp["eps_fn_c"]
    eps_fn = cg.ConstantEps(c) if kind == "constant" else cg.RadialEps(c)
    pts = exp["points"]
    if pts is None:
        rng = np.random.default_rng(cfg["rng_seed"])
        pts = BoxSet.full(grid).sample_points(exp["n_samples"], rng)
    rows = []
    found_any = False
    tg = None  # one graph for every point that is not fixed within eps
    for p in pts:
        if tg is None and cg.fixed_point_chain(map_spec, p, eps_fn) is None:
            tg = _build_graph(cfg, map_spec, grid, False, eps_fn)
        chain = cg.strong_chain_search(map_spec, p, eps_fn, grid,
                                       max_len=exp["max_len"], tg=tg)
        found_any |= chain is not None
        rows.append({"point": list(map(float, p)),
                     "found": chain is not None,
                     "length": None if chain is None else len(chain)})
    results = {"eps_fn": {"kind": kind, "c": c}, "searches": rows,
               "any_found": found_any}
    return results, [], 0


def run_escape(cfg, exp, out_dir, map_spec, grid):
    centers = grid.centers()
    mask = np.all((centers >= exp["K_lower"]) & (centers < exp["K_upper"]),
                  axis=1)
    K = BoxSet(grid, mask)
    if not len(K):
        raise ConfigError("experiment.K_lower and K_upper hold no box center")
    fraction = conley.escape_fraction(
        map_spec, K, exp["radius"], exp["n_max"], exp["samples"],
        rng_seed=cfg["rng_seed"])
    results = {"K_boxes": len(K), "radius": exp["radius"],
               "n_max": exp["n_max"], "bounded_fraction": fraction}
    return results, [], 0


def _shadow_search(map_spec, po, eps, grid_resolution):
    """`shadow_search`, after one stderr warning if its seed lattice is
    above `SEED_LATTICE_BUDGET`; a lattice too large to index is a config
    error."""
    try:
        size = sh.seed_lattice_size(map_spec.dim, eps, grid_resolution)
    except ValueError as e:
        raise ConfigError(f"experiment.grid_resolution: {e}") from e
    if size > SEED_LATTICE_BUDGET:
        click.echo(f"warning: the shadow search scans a seed lattice of "
                   f"{size:,} points, above the budget of "
                   f"{SEED_LATTICE_BUDGET:,}, and may run for minutes; a "
                   f"larger grid_resolution or a smaller eps shrinks it",
                   err=True)
    return sh.shadow_search(map_spec, po, eps, grid_resolution)


def run_shadow(cfg, exp, out_dir, map_spec, grid):
    x0 = exp["x0"] if exp["x0"] is not None else np.full(map_spec.dim, 0.1)
    res = exp["grid_resolution"] or exp["eps"] / 10.0
    try:
        po = sh.random_pseudo_orbit(map_spec, x0, cfg["delta"], exp["N"],
                                    rng_seed=cfg["rng_seed"])
    except sh.NonFiniteOrbitError as e:
        raise ConfigError(f"the pseudo-orbit from experiment.x0 overflows "
                          f"within experiment.N steps: {e}") from e
    result = _shadow_search(map_spec, po, exp["eps"], res)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "pseudo_orbit.csv"
    sh.pseudo_orbit_to_csv(po, csv)
    results = {
        "delta": po.delta, "N": exp["N"], "eps": exp["eps"],
        "shadowed": result.shadowed, "achieved_eps": result.achieved_eps,
        "method": result.method, "seed_point": result.x,
        "search_resolution": result.search_resolution,
    }
    return results, [csv.name], 0


def run_splice(cfg, exp, out_dir, map_spec, grid):
    try:
        po = sh.splice_pseudo_orbit(map_spec, exp["q"], exp["x0"], cfg["delta"],
                                    n_back=exp["n_back"],
                                    n_forward=exp["n_forward"])
    except sh.NoApproachError as e:
        return {"spliced": False, "min_distance": e.min_distance}, [], ASSERTION_EXIT
    except ValueError as e:
        # the backward tail of q is no orbit once f^-1 loses the
        # coordinates' precision (the standard map at a huge K)
        raise ConfigError(f"the splice of experiment.q and x0 is no "
                          f"pseudo-orbit: {e}") from e
    result = _shadow_search(map_spec, po, exp["eps"], exp["grid_resolution"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "splice_orbit.csv"
    sh.pseudo_orbit_to_csv(po, csv)
    results = {
        "spliced": True, "n0": po.provenance["n0"],
        "delta": po.delta, "eps": exp["eps"],
        "shadowed": result.shadowed, "achieved_eps": result.achieved_eps,
        "method": result.method,
    }
    return results, [csv.name], 0


def _is_saddle(hp) -> bool:
    """Whether hp has a real unstable and a real stable eigendirection."""
    try:
        for side in ("unstable", "stable"):
            mf._real_eigenpair(hp, side)
    except mf.NoRealEigendirectionError:
        return False
    return True


def _find_anchor(cfg, exp, map_spec, grid):
    tol = cfg["tolerances"]
    points = mf.find_periodic_points(map_spec, exp["period"], grid,
                                     tol_fix=tol["tol_fix"],
                                     tol_hyp=tol["tol_hyp"])
    hyper = [p for p in points if p.is_hyperbolic and _is_saddle(p)]
    if not hyper:
        raise ConfigError("no hyperbolic saddle found")
    if exp["anchor"] is not None:
        hyper.sort(key=lambda h: float(map_spec.distance(h.point, exp["anchor"])))
    return hyper[0], points


def _grow(map_spec, hp, side, arclength, max_seg):
    try:
        return mf.grow_manifold(map_spec, hp, side, arclength, max_seg)
    except mf.NoRealEigendirectionError as e:
        raise ConfigError(f"cannot grow the anchor's {side} manifold: {e}") from e


def _anchor_manifolds(cfg, exp, map_spec, grid):
    """The anchor, the periodic points found, and the anchor's W^u and W^s."""
    hp, points = _find_anchor(cfg, exp, map_spec, grid)
    Wu, Ws = (_grow(map_spec, hp, side, exp["arclength"], exp["max_seg"])
              for side in ("unstable", "stable"))
    return hp, points, Wu, Ws


def _warn_capped(capped: int, max_seg: float):
    """One stderr warning when growth left segments longer than max_seg."""
    if capped:
        click.echo(f"warning: {capped} manifold segments are longer than "
                   f"max_seg {max_seg:g}: growth hit its refinement cap, so "
                   f"the polylines are under-resolved there", err=True)


def run_manifolds(cfg, exp, out_dir, map_spec, grid):
    hp, all_points, Wu, Ws = _anchor_manifolds(cfg, exp, map_spec, grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for poly, nm in ((Wu, "unstable"), (Ws, "stable")):
        csv = out_dir / f"manifold_{nm}.csv"
        write_csv(csv, ["index"] + [f"x{i}" for i in range(map_spec.dim)],
                  poly.vertices)
        artifacts.append(csv.name)
    if map_spec.dim == 2:
        artifacts.append(_plot(
            out_dir, "manifolds.svg",
            [{"kind": "polyline", "data": Wu.vertices, "color": 1},
             {"kind": "polyline", "data": Ws.vertices, "color": 0}], grid))
    results = {
        "n_periodic_points": len(all_points),
        "anchor": hp.point,
        "eigenvalues": [complex(v).real for v in hp.eigenvalues],
        "unstable_vertices": int(Wu.vertices.shape[0]),
        "stable_vertices": int(Ws.vertices.shape[0]),
        "arclength": exp["arclength"],
        "capped_segments": Wu.capped + Ws.capped,
    }
    _warn_capped(results["capped_segments"], exp["max_seg"])
    return results, artifacts, 0


def run_homoclinic(cfg, exp, out_dir, map_spec, grid):
    hp, _, Wu, Ws = _anchor_manifolds(cfg, exp, map_spec, grid)
    try:
        hits = mf.homoclinic_points(Wu, Ws, map_spec=map_spec,
                                    tol_int=cfg["tolerances"]["tol_int"])
    except mf.SegmentLengthError as e:
        raise ConfigError(f"experiment.max_seg: {e}") from e
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "homoclinic_points.csv"
    write_csv(csv, ["index", "x0", "x1", "angle", "dist_from_anchor"],
              [[*h.point, h.angle, h.distance_from_anchor] for h in hits])
    artifacts = [csv.name]
    if map_spec.dim == 2:
        layers = [{"kind": "polyline", "data": Wu.vertices, "color": 1},
                  {"kind": "polyline", "data": Ws.vertices, "color": 0}]
        if hits:
            layers.append({"kind": "cloud",
                           "data": np.asarray([h.point for h in hits]),
                           "color": 4})
        artifacts.append(_plot(out_dir, "homoclinic.svg", layers, grid))
    results = {
        "anchor": hp.point,
        "arclength": exp["arclength"],
        "n_hits": len(hits),
        "nearest_distance": hits[0].distance_from_anchor if hits else None,
        "capped_segments": Wu.capped + Ws.capped,
    }
    _warn_capped(results["capped_segments"], exp["max_seg"])
    return results, artifacts, 0


def run_accumulate(cfg, exp, out_dir, map_spec, grid):
    hp, _ = _find_anchor(cfg, exp, map_spec, grid)
    q, key = exp["q"], "q"
    if q is None:
        arc, key = exp["q_arclength"], "q_arclength"
        Wu = _grow(map_spec, hp, "unstable", arc * 1.2, exp["max_seg"])
        k = int(np.searchsorted(Wu.arclength, arc))
        q = Wu.vertices[min(k, Wu.vertices.shape[0] - 1)]
    try:
        rows = mf.accumulation_check(map_spec, hp, q, exp["radii"],
                                     exp["arclength_schedule"],
                                     max_seg=exp["max_seg"],
                                     tol_int=cfg["tolerances"]["tol_int"])
    except mf.NoRealEigendirectionError as e:
        raise ConfigError(f"cannot grow the anchor's manifolds: {e}") from e
    except mf.BasePointError as e:
        raise ConfigError(f"experiment.{key}: {e}") from e
    except mf.SegmentLengthError as e:
        raise ConfigError(f"experiment.max_seg: {e}") from e
    results = {
        "anchor": hp.point, "q": q,
        "rows": [{"radius": r.radius, "found": r.found,
                  "arclength_used": r.arclength_used,
                  "hit": None if r.hit is None else list(map(float, r.hit.point))}
                 for r in rows],
        "all_found": all(r.found for r in rows),
        "capped_segments": max((r.capped for r in rows), default=0),
    }
    _warn_capped(results["capped_segments"], exp["max_seg"])
    code = 0 if exp["allow_missing"] or results["all_found"] else ASSERTION_EXIT
    return results, [], code


def run_volume(cfg, exp, out_dir, map_spec, grid):
    window = ((grid.domain.lower, grid.domain.upper) if grid is not None
              else ([0.0] * map_spec.dim, [1.0] * map_spec.dim))
    rep = volume_check(map_spec, window, exp["samples"], exp["tol"],
                       rng_seed=cfg["rng_seed"])
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


def run_subcommand(name: str, config_path: str, out: str | None,
                   seed: int | None, threads=None) -> int:
    """Run one subcommand and write its report; returns the exit code.

    Every config value is checked before any graph, manifold or orbit
    work.  `threads` is a retired fifth argument, kept so that five-argument
    callers keep working; any value but None is a config error.
    """
    try:
        if threads is not None:
            raise ConfigError("threads is no longer supported")
        cfg = load_config(config_path)
        if seed is not None:
            cfg["rng_seed"] = _NATURAL(seed, "--seed")
        out_dir = Path(out) if out is not None else Path(cfg["out"])
        cfg["out"] = str(out_dir)
        t0 = time.perf_counter()
        map_spec, grid = _map_and_grid(name, cfg)
        exp = read_experiment(name, cfg["experiment"], map_spec.dim, grid)
        tg = None  # the run's one graph, for the subcommands in _ON_GRAPH
        if name in _ON_GRAPH:
            blocks = _ON_GRAPH[name] and not exp.get("include_sink", False)
            tg = _build_graph(cfg, map_spec, grid, blocks)
        results, artifacts, code = {}, [], 0
        for sub in _ALL_SAFE if name == "all" else [name]:
            inputs = (tg,) if sub in _ON_GRAPH else (map_spec, grid)
            results[sub], a, c = _SUBCOMMANDS[sub](cfg, exp, out_dir, *inputs)
            artifacts += a
            code = max(code, c)
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        return VALIDATION_EXIT
    wall = time.perf_counter() - t0
    write_report(out_dir, name, cfg, results if name == "all" else results[name],
                 artifacts, wall)
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

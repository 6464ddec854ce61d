"""The benchmark's workloads: inputs made from a seed, the timed calls into
dynkit, and the untimed checks of their outputs.

Each workload is a list of `Op`s run in order, one at a time (closed loop,
single process).  An op's `run` is the timed call; `check` inspects what it
returned.  Checks come in two strengths:

* `Check.verdict` - an acceptance-level verdict did not hold (identity
  fails, a cat pseudo-orbit is not shadowed, a hit fails the membership
  test).  The op counts as failed.
* `Check.oracle` - a number or artifact the program produced disagrees
  with an independent recomputation (closed forms, scipy strong
  components, a re-evaluated witness, byte-identical reruns).  The op
  counts as failed and the run as incorrect.

An op that raises or exits 2 counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from dynkit import chain_graph, cli, shadowing, system

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

WORKLOADS = ("torus-cr", "attractors", "shadow", "homoclinic")


class Check:
    """Findings of one op's output check."""

    def __init__(self):
        self.failed: list[str] = []
        self.wrong: list[str] = []

    def verdict(self, ok, message: str):
        if not ok:
            self.failed.append(message)

    def oracle(self, ok, message: str):
        if not ok:
            self.failed.append(message)
            self.wrong.append(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any, Check], None]
    prepare: Optional[Callable[[], Any]] = None


# ---------------------------------------------------------------------------
# independent oracles (no dynkit code)
# ---------------------------------------------------------------------------

_CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
_CAT_INV = np.array([[1.0, -1.0], [-1.0, 2.0]])


def cat_forward(p):
    return np.mod(p @ _CAT.T, 1.0)


def cat_inverse(p):
    return np.mod(p @ _CAT_INV.T, 1.0)


def standard_forward(p, K):
    kick = K / (2.0 * math.pi) * np.sin(2.0 * math.pi * p[..., 0])
    return np.mod(np.stack([p[..., 0] + p[..., 1] + kick, p[..., 1] + kick],
                           axis=-1), 1.0)


def torus_distance(a, b):
    d = (np.asarray(b) - np.asarray(a) + 0.5) % 1.0 - 0.5
    return np.linalg.norm(d, axis=-1)


def cat_membership(points, anchor, steps=20, tol=1e-3) -> int:
    """How many points fail to come within `tol` of the anchor after
    `steps` forward and `steps` backward iterations of the cat map."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    fwd, bwd = points, points
    for _ in range(steps):
        fwd = cat_forward(fwd)
        bwd = cat_inverse(bwd)
    bad = (torus_distance(fwd, anchor) >= tol) | (torus_distance(bwd, anchor) >= tol)
    return int(np.count_nonzero(bad))


def scipy_recurrent_bits(offsets, targets, nboxes):
    """Boxes in a nontrivial strong component (size > 1 or a self loop),
    from scipy.sparse.csgraph on the same CSR; the sink node is dropped."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = offsets.size - 1
    adj = csr_matrix((np.ones(targets.size, dtype=np.int8), targets, offsets),
                     shape=(n, n))
    _, labels = connected_components(adj, directed=True, connection="strong")
    sizes = np.bincount(labels)
    src = np.repeat(np.arange(n), np.diff(offsets))
    loops = np.zeros(n, dtype=bool)
    loops[src[src == targets]] = True
    return ((sizes[labels] > 1) | loops)[:nboxes]


def rle_bits(boxset: dict, nboxes: int) -> np.ndarray:
    bits = np.zeros(nboxes, dtype=bool)
    for start, length in boxset["rle"]:
        bits[start:start + length] = True
    return bits


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------

def _torus(depth):
    return {"lower": [0.0, 0.0], "upper": [1.0, 1.0],
            "periodic": [True, True], "depth": [depth, depth]}


_CUBIC_TERMS = [{"c": 1.5, "e": [1]}, {"c": -0.5, "e": [3]}]
CUBIC_1D = {"name": "poly", "dimension": 1, "components": [_CUBIC_TERMS]}
CUBIC_2D = {"name": "poly", "dimension": 2, "components": [
    [{"c": t["c"], "e": t["e"] + [0]} for t in _CUBIC_TERMS],
    [{"c": t["c"], "e": [0] + t["e"]} for t in _CUBIC_TERMS],
]}
CUBIC_GRID_1D = {"lower": [-2.0], "upper": [2.0], "depth": [12]}
CUBIC_GRID_2D = {"lower": [-2.0, -2.0], "upper": [2.0, 2.0], "depth": [6, 6]}


class CliOp:
    """One `cli.run_subcommand` call with a generated config file."""

    def __init__(self, work: Path, name: str, subcommand: str, config: dict):
        self.name = name
        self.subcommand = subcommand
        self.out = work / name
        self.path = work / f"{name}.json"
        self.path.write_text(json.dumps(config, indent=2) + "\n")

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.run_subcommand(self.subcommand, str(self.path),
                                      str(self.out), None, None)

    def report_bytes(self):
        path = self.out / "report.json"
        return path.read_bytes() if path.exists() else None

    def results(self):
        return json.loads(self.report_bytes())["results"]

    def op(self, check, prepare=None) -> Op:
        return Op(self.name, self.run, check, prepare)


def _report_written(code, ch: Check) -> bool:
    """Exit 0 is the passing verdict; with 0 or 3 a report exists to check."""
    ch.verdict(code == 0, f"exit {code}")
    return code in (0, 3)


def torus_cr(work: Path, seed: int) -> list[Op]:
    """`all` on the cat map at depth 7 and `cr` on the standard map."""
    cat = CliOp(work, "cat-all", "all", {
        "map": {"name": "cat"}, "grid": _torus(7), "eps_box_diameters": 1.0,
        "rng_seed": seed})
    std = CliOp(work, "standard-cr", "cr", {
        "map": {"name": "standard", "K": 0.97}, "grid": _torus(8),
        "eps_box_diameters": 1.0, "rng_seed": seed})

    def check_cat(code, previous, ch):
        if not _report_written(code, ch):
            return
        now = cat.report_bytes()
        r = json.loads(now)["results"]
        # criterion 1 closed form: hyperbolic toral automorphism
        ch.oracle(r["cr"]["chain_recurrent_fraction"] == 1.0, "cat CR fraction != 1")
        ch.oracle(r["components"]["n_components"] == 1, "cat has != 1 component")
        ch.oracle(r["components"]["chain_transitive"], "cat not chain transitive")
        ch.verdict(r["conley-verify"]["identity_holds"], "cat identity fails")
        ch.oracle(previous is None or previous == now,
                  "report.json differs from the previous run at the same out path")

    def check_std(code, _, ch):
        if not _report_written(code, ch):
            return
        r = std.results()
        count = r["chain_recurrent_boxes"]["count"]
        ch.oracle(sum(n for _, n in r["chain_recurrent_boxes"]["rle"]) == count,
                  "standard CR rle does not match its count")
        ch.oracle(r["chain_recurrent_fraction"] == count / r["graph"]["nboxes"],
                  "standard CR fraction does not match its count")

    return [cat.op(check_cat, prepare=cat.report_bytes), std.op(check_std)]


def attractors(work: Path, seed: int) -> list[Op]:
    """Conley decomposition on the 1-D cubic and the 2-D product cubic."""
    h = 4.0 / 2 ** 12
    base = {"map": CUBIC_1D, "grid": CUBIC_GRID_1D, "eps": h / 4, "rng_seed": seed}
    verify1 = CliOp(work, "cubic1-verify", "conley-verify", base)
    attr1 = CliOp(work, "cubic1-attractors", "attractors", base)
    verify2 = CliOp(work, "cubic2-verify", "conley-verify", {
        "map": CUBIC_2D, "grid": CUBIC_GRID_2D, "eps": 0.015625,
        "rng_seed": seed})

    def check_verify(op):
        def check(code, _, ch):
            if not _report_written(code, ch):
                return
            r = op.results()
            ch.verdict(r["identity_holds"], "Conley identity fails "
                       f"(symmetric difference {r['symmetric_difference']})")
            ch.oracle((code == 3) == (not r["identity_holds"]),
                      "exit code disagrees with identity_holds")
            ch.oracle(r["symmetric_difference"] ==
                      r["lhs_only"]["count"] + r["rhs_only"]["count"],
                      "symmetric difference != |lhs_only| + |rhs_only|")
        return check

    def check_verify1(code, prepared, ch):
        check_verify(verify1)(code, prepared, ch)
        if code not in (0, 3):
            return
        r = verify1.results()
        cfg = cli.validate_config(json.loads(verify1.path.read_text()))
        grid = cli.build_grid(cfg)
        g = chain_graph.build_graph(grid, cli.build_map(cfg), cli.resolve_eps(cfg, grid))
        ch.oracle(g.n_edges == r["graph"]["n_edges"], "rebuilt CSR differs")
        bits = scipy_recurrent_bits(g.offsets, g.targets, g.nboxes)
        ch.oracle(np.array_equal(bits, chain_graph.chain_recurrent_boxes(g).bits),
                  "CR set differs from scipy strong components")
        ch.oracle(int(bits.sum()) == g.nboxes - r["lhs_count"],
                  "reported non-recurrent count differs from scipy")

    def check_attr(code, _, ch):
        if not _report_written(code, ch):
            return
        r = attr1.results()
        n = r["graph"]["nboxes"]
        ch.oracle(r["n_blocks"] == len(r["records"]), "n_blocks != #records")
        for rec in r["records"]:
            block, attractor, basin = (rle_bits(rec[k], n)
                                       for k in ("block", "attractor", "basin"))
            ch.oracle(attractor.any() and not (attractor & ~block).any()
                      and not (block & ~basin).any(),
                      "a record is not nested attractor <= block <= basin")

    return [verify1.op(check_verify1), attr1.op(check_attr),
            verify2.op(check_verify(verify2))]


def homoclinic(work: Path, seed: int) -> list[Op]:
    """Cat homoclinic points, standard-map manifolds, cat accumulation."""
    hom = CliOp(work, "cat-homoclinic", "homoclinic", {
        "map": {"name": "cat"}, "grid": _torus(3), "rng_seed": seed,
        "experiment": {"arclength": 40, "max_seg": 0.01}})
    man = CliOp(work, "standard-manifolds", "manifolds", {
        "map": {"name": "standard", "K": 0.97}, "grid": _torus(6),
        "rng_seed": seed, "experiment": {"period": 3, "arclength": 5}})
    acc = CliOp(work, "cat-accumulate", "accumulate", {
        "map": {"name": "cat"}, "grid": _torus(3), "rng_seed": seed,
        "experiment": {"arclength_schedule": [5, 10, 20, 40], "max_seg": 0.02,
                       "radii": [0.1, 0.03, 0.01]}})

    def check_hom(code, _, ch):
        if not _report_written(code, ch):
            return
        r = hom.results()
        rows = np.loadtxt(hom.out / "homoclinic_points.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        ch.oracle(rows.shape[0] == r["n_hits"], "CSV rows != n_hits")
        bad = cat_membership(rows[:, 1:3], r["anchor"])
        ch.verdict(bad == 0, f"{bad} of {rows.shape[0]} hits fail the "
                   "20-step membership test")

    def check_man(code, _, ch):
        if not _report_written(code, ch):
            return
        r = man.results()
        a = np.asarray(r["anchor"])
        x = a
        for _ in range(3):
            x = standard_forward(x, 0.97)
        ch.oracle(float(torus_distance(x, a)) < 1e-8, "anchor is not period 3")
        for side in ("unstable", "stable"):
            rows = np.loadtxt(man.out / f"manifold_{side}.csv", delimiter=",",
                              skiprows=1, ndmin=2)
            ch.oracle(rows.shape[0] == r[f"{side}_vertices"],
                      f"{side} CSV rows != reported vertices")

    def check_acc(code, _, ch):
        if not _report_written(code, ch):
            return
        r = acc.results()
        ch.verdict(r["all_found"], "accumulation radius not reached")
        hits = [row["hit"] for row in r["rows"] if row["hit"] is not None]
        bad = cat_membership(hits, r["anchor"]) if hits else 0
        ch.verdict(bad == 0, f"{bad} accumulation hits fail the membership test")

    return [hom.op(check_hom), man.op(check_man), acc.op(check_acc)]


# ---------------------------------------------------------------------------
# library ops
# ---------------------------------------------------------------------------

SHADOW = {"cat": {"K": None, "N": 30, "count": 70},
          "standard": {"K": 0.97, "N": 50, "count": 30}}
DELTA, EPS, RESOLUTION = 1e-4, 1e-2, 1e-3


def _independent(name):
    if name == "cat":
        return cat_forward
    return lambda p: standard_forward(p, SHADOW[name]["K"])


def shadow(work: Path, seed: int) -> list[Op]:
    """Random pseudo-orbits and shadow searches, cat and standard mixed."""
    rng = np.random.default_rng(seed)
    kinds = [k for k, spec in SHADOW.items() for _ in range(spec["count"])]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    ops = []
    for i, kind in enumerate(kinds):
        x0 = rng.random(2)
        orbit_seed = int(rng.integers(2 ** 31))
        ops.append(_shadow_op(f"{kind}-{i:03d}", kind, x0, orbit_seed))
    return ops


def _shadow_op(name, kind, x0, orbit_seed) -> Op:
    params = {} if SHADOW[kind]["K"] is None else {"K": SHADOW[kind]["K"]}
    N = SHADOW[kind]["N"]

    def run():
        m = system.make_map(kind, **params)
        po = shadowing.random_pseudo_orbit(m, x0, DELTA, N, rng_seed=orbit_seed)
        return po, shadowing.shadow_search(m, po, EPS, RESOLUTION)

    def check(outcome, _, ch):
        po, res = outcome
        f = _independent(kind)
        y = po.points
        ch.oracle(np.max(torus_distance(f(y[:-1]), y[1:])) <= DELTA,
                  "pseudo-orbit jumps exceed delta")
        if res.method == "refined":
            z = res.witness
            ch.oracle(np.max(torus_distance(f(z[:-1]), z[1:])) < 1e-11,
                      "refined witness defect >= 1e-11")
            achieved = float(np.max(torus_distance(z, y)))
            ch.oracle(abs(achieved - res.achieved_eps) <= 1e-12,
                      "refined witness distance differs from achieved_eps")
        else:
            x = np.asarray(res.x, dtype=float)
            achieved = float(torus_distance(x, y[0]))
            for k in range(1, y.shape[0]):
                x = f(x)
                achieved = max(achieved, float(torus_distance(x, y[k])))
            ch.oracle(abs(achieved - res.achieved_eps) <= 1e-9 + 1e-6 * achieved,
                      "re-iterated seed orbit differs from achieved_eps")
        ch.oracle(res.shadowed == (res.achieved_eps <= EPS),
                  "shadowed flag disagrees with achieved_eps")
        if kind == "cat":
            ch.verdict(res.shadowed, "cat pseudo-orbit not shadowed (criterion 8)")

    return Op(name, run, check)


# ---------------------------------------------------------------------------

def source_digest() -> str:
    """Digest of the dynkit sources, so out paths are fixed per program."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dynkit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def build(workload: str, seed: int, work: Optional[Path] = None) -> list[Op]:
    """The ops of one workload; configs are written under `work`."""
    if work is None:
        work = OUT / "work" / f"{workload}-{source_digest()}-s{seed}"
    work.mkdir(parents=True, exist_ok=True)
    makers = {"torus-cr": torus_cr, "attractors": attractors,
              "shadow": shadow, "homoclinic": homoclinic}
    return makers[workload](work, seed)

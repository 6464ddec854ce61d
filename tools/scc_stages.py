"""Per-stage times of the chain-recurrence graph pipeline.

The cases are torus graphs at eps = 1 box diameter, where the pivot's
forward-backward step ends the SCC pass, and product cubics 1.5 x - 0.5
x^3 per axis on [-2, 2]^dim, where the cover pyramid does most of it.
For each case this builds the graph and times, each as the best of
`--reps` runs in plain seconds: `build_graph` (the cover ranges) and the
CSR written from the ranges on demand.  Each rep also runs
`chain_recurrent_boxes` once on a fresh copy of the graph, with timers
on the stages of its SCC pass: the in-degrees read from the ranges
(`_cover_counts` over every box), the pivot's forward search and its
backward search restricted to the forward set (`_cover_search`), the
cover pyramid (`_pyramid_candidates`, its Tarjan runs on the coarser
levels included) and the Tarjan run on the finest level's candidates
outside the pivot's component (`_tarjan`; a chain-transitive torus graph
calls neither), with the nodes passed to it.  `pyramid_candidates`
lists the boxes Tarjan runs on at each level, coarse to fine, the last
one without the pivot's component.  It also reports the peak allocation
of `build_graph` and of `chain_recurrent_boxes` on a fresh graph
(tracemalloc, which sees numpy buffers), and sha256 digests of the
chain-component record (`component_index`: the int32 index and m), of
the CSR and of the cover (start, length and escapes, widened to int64
so that the storage dtype does not enter), so two checkouts can be
compared for identical results.  The four small cases run by default;
`cubic3-d6` (262,144 boxes of a 3-D grid), `standard-d10` and `cat-d11`
(1 M and 4 M boxes) run only when named:

    PYTHONPATH=src python3 tools/scc_stages.py --reps 5
    PYTHONPATH=src python3 tools/scc_stages.py --case cubic3-d6 --reps 3
    PYTHONPATH=src python3 tools/scc_stages.py --case cat-d11 --reps 1

The last line of output is the JSON record of every case.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import time
import tracemalloc

import numpy as np

from dynkit import chain_graph as cg
from dynkit.phase_space import Domain, Grid
from dynkit.system import make_map, polynomial_map


def _torus(name: str, params: dict, depth: int):
    """(grid, map, eps) of a torus map at eps = 1 box diameter."""
    grid = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))
    return grid, make_map(name, **params), grid.box_diameter


def _cubic(dim: int, depth: int, eps: float):
    """(grid, map, eps) of the product cubic on [-2, 2]^dim."""
    unit = np.eye(dim, dtype=int)
    m = polynomial_map([[{"c": 1.5, "e": unit[a].tolist()},
                         {"c": -0.5, "e": (3 * unit[a]).tolist()}]
                        for a in range(dim)], dim)
    grid = Grid(Domain((-2.0,) * dim, (2.0,) * dim, (False,) * dim),
                (depth,) * dim)
    return grid, m, eps


CASES = {
    "standard-d8": lambda: _torus("standard", {"K": 0.97}, 8),
    "cat-d7": lambda: _torus("cat", {}, 7),
    "standard-d9": lambda: _torus("standard", {"K": 0.97}, 9),
    "cubic2-d8": lambda: _cubic(2, 8, 1 / 64),
    "cubic3-d6": lambda: _cubic(3, 6, 1 / 32),
    "standard-d10": lambda: _torus("standard", {"K": 0.97}, 10),
    "cat-d11": lambda: _torus("cat", {}, 11),
}
DEFAULT_CASES = ("standard-d8", "cat-d7", "standard-d9", "cubic2-d8")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _best(fn, reps: int) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _peak_mb(fn) -> tuple[float, object]:
    """(peak MB that `fn()` allocates above what is held before, its
    result)."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    out = fn()
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return peak / 2 ** 20, out


STAGES = ("in_degrees_s", "forward_s", "backward_s", "pyramid_s",
          "tarjan_s")


def _timed_pass(g, reps: int) -> tuple[dict, list]:
    """(best seconds per stage, boxes passed to Tarjan per level, coarse
    to fine) of `reps` runs of `chain_recurrent_boxes`, each on a fresh
    copy of g, with timers wrapped around the stage functions of
    `chain_graph`."""
    real = {fn: getattr(cg, fn)
            for fn in ("_cover_counts", "_cover_search", "_pyramid_candidates",
                       "_induced_sccs", "_tarjan")}
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(reps):
        spent = dict.fromkeys(STAGES, 0.0)
        levels = []
        in_pyramid = False

        def clock(stage, fn, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spent[stage] += time.perf_counter() - t0
            return out

        def counts(g, boxes=None):
            # a call over every box is the in-degree pass; the forward
            # search's own calls are timed with the search
            if boxes is not None:
                return real["_cover_counts"](g, boxes)
            return clock("in_degrees_s", real["_cover_counts"], g)

        def search(*args, backward=False, **kwargs):
            return clock("backward_s" if backward else "forward_s",
                         real["_cover_search"], *args, backward=backward,
                         **kwargs)

        def pyramid(g):
            nonlocal in_pyramid
            in_pyramid = True
            try:
                return clock("pyramid_s", real["_pyramid_candidates"], g)
            finally:
                in_pyramid = False

        def induced(shape, start, length, members):
            levels.append(int(members.size))
            return real["_induced_sccs"](shape, start, length, members)

        def tarjan(off, tgt):
            # the coarser levels' runs are timed with the pyramid
            if in_pyramid:
                return real["_tarjan"](off, tgt)
            return clock("tarjan_s", real["_tarjan"], off, tgt)

        try:
            (cg._cover_counts, cg._cover_search, cg._pyramid_candidates,
             cg._induced_sccs, cg._tarjan) = \
                counts, search, pyramid, induced, tarjan
            cg.chain_recurrent_boxes(dataclasses.replace(
                g, _csr=None, _components=None))
        finally:
            for fn, f in real.items():
                setattr(cg, fn, f)
        best = {k: min(best[k], spent[k]) for k in STAGES}
    return best, levels


def run_case(name: str, reps: int) -> dict:
    grid, m, eps = CASES[name]()
    build_s, g = _best(lambda: cg.build_graph(grid, m, eps), reps)
    del g
    build_peak_mb, g = _peak_mb(lambda: cg.build_graph(grid, m, eps))
    stages, levels = _timed_pass(g, reps)
    csr_s, (off, tgt) = _best(
        lambda: dataclasses.replace(g, _csr=None)._edges(), reps)
    csr_sha = _digest(off, tgt)
    del off, tgt
    fresh = dataclasses.replace(g, _csr=None, _components=None)
    peak_mb, _ = _peak_mb(lambda: cg.chain_recurrent_boxes(fresh))
    start, length = g.cover
    return {"case": name, "nboxes": g.nboxes, "edges": g.n_edges,
            "build_s": round(build_s, 4),
            "build_peak_mb": round(build_peak_mb, 1),
            **{k: round(v, 4) for k, v in stages.items()},
            "csr_s": round(csr_s, 4), "pyramid_candidates": levels,
            "cr_peak_mb": round(peak_mb, 1),
            "csr_written": fresh._csr is not None,
            "components_sha": _digest(*map(np.asarray,
                                           cg.component_index(fresh))),
            "csr_sha": csr_sha,
            "cover_sha": _digest(*(a.astype(np.int64) for a in
                                   (start, length, g.escapes)))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", choices=sorted(CASES),
                    help="case to run (repeatable; default: "
                    + ", ".join(DEFAULT_CASES) + ")")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    rows = [run_case(name, args.reps) for name in args.case or DEFAULT_CASES]
    for r in rows:
        print(f"{r['case']:12s} {r['edges']:>9d} edges  build {r['build_s']:.4f}"
              f" (peak {r['build_peak_mb']:.1f} MB)"
              f"  in-degrees {r['in_degrees_s']:.4f}"
              f"  forward {r['forward_s']:.4f}  backward {r['backward_s']:.4f}"
              f"  pyramid {r['pyramid_s']:.4f}  csr {r['csr_s']:.4f}"
              f"  tarjan {r['tarjan_s']:.4f} s"
              f" (candidates {r['pyramid_candidates']})"
              f"  cr peak {r['cr_peak_mb']:.1f} MB")
    print(json.dumps(rows))


if __name__ == "__main__":
    main()

"""Per-stage times of the chain-recurrence graph pipeline on torus graphs.

For each case this builds the eps = 1 box diameter graph and times, each
as the best of `--reps` runs in plain seconds: `build_graph` (the cover
ranges) and the CSR written from the ranges on demand.  Each rep also
runs `chain_recurrent_boxes` once on a fresh copy of the graph, with
timers on the stages of its SCC pass: the in-degrees read from the
ranges (`_cover_counts` over every box), the pivot's forward search and
its backward search restricted to the forward set (`_cover_search`),
and the Tarjan pass over the boxes outside the pivot's component
(`_tarjan`, which a chain-transitive torus graph never calls), with the
roots passed to it.  It also reports the peak allocation of
`build_graph` and of `chain_recurrent_boxes` on a fresh graph
(tracemalloc, which sees numpy buffers), and sha256 digests of the SCC
labels, of the chain-component record (`component_index`: the int32
index and m), of the CSR and of the cover (start, length and escapes,
widened to int64 so that the storage dtype does not enter), so two
checkouts can be compared for identical results.  The three small cases run by
default; `standard-d10` and `cat-d11` (1 M and 4 M boxes) run only when
named:

    PYTHONPATH=src python3 tools/scc_stages.py --reps 5
    PYTHONPATH=src python3 tools/scc_stages.py --case standard-d9 --reps 3
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
from dynkit.system import make_map

CASES = {
    "standard-d8": ("standard", {"K": 0.97}, 8),
    "cat-d7": ("cat", {}, 7),
    "standard-d9": ("standard", {"K": 0.97}, 9),
    "standard-d10": ("standard", {"K": 0.97}, 10),
    "cat-d11": ("cat", {}, 11),
}
DEFAULT_CASES = ("standard-d8", "cat-d7", "standard-d9")


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


STAGES = ("in_degrees_s", "forward_s", "backward_s", "tarjan_s")


def _timed_pass(g, reps: int) -> tuple[dict, int]:
    """(best seconds per stage, roots passed to `_tarjan`) of `reps` runs
    of `chain_recurrent_boxes`, each on a fresh copy of g, with timers
    wrapped around the stage functions of `chain_graph`."""
    real = {fn: getattr(cg, fn)
            for fn in ("_cover_counts", "_cover_search", "_tarjan")}
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(reps):
        spent = dict.fromkeys(STAGES, 0.0)
        roots = 0

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

        def tarjan(off, tgt, roots_in, *rest):
            nonlocal roots
            roots += len(roots_in)
            return clock("tarjan_s", real["_tarjan"], off, tgt, roots_in,
                         *rest)

        try:
            cg._cover_counts, cg._cover_search, cg._tarjan = \
                counts, search, tarjan
            cg.chain_recurrent_boxes(dataclasses.replace(
                g, _csr=None, _components=None))
        finally:
            for fn, f in real.items():
                setattr(cg, fn, f)
        best = {k: min(best[k], spent[k]) for k in STAGES}
    return best, roots


def run_case(name: str, reps: int) -> dict:
    map_name, params, depth = CASES[name]
    grid = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))
    m = make_map(map_name, **params)
    build_s, g = _best(lambda: cg.build_graph(grid, m, grid.box_diameter),
                       reps)
    del g
    build_peak_mb, g = _peak_mb(
        lambda: cg.build_graph(grid, m, grid.box_diameter))
    stages, roots = _timed_pass(g, reps)
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
            "csr_s": round(csr_s, 4), "tarjan_roots": roots,
            "cr_peak_mb": round(peak_mb, 1),
            "csr_written": fresh._csr is not None,
            "labels_sha": _digest(fresh.scc_labels()),
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
              f"  csr {r['csr_s']:.4f}  tarjan {r['tarjan_s']:.4f} s"
              f" ({r['tarjan_roots']} roots)  cr peak {r['cr_peak_mb']:.1f} MB")
    print(json.dumps(rows))


if __name__ == "__main__":
    main()

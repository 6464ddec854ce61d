"""Per-stage times of the chain-recurrence graph pipeline on torus graphs.

For each case this builds the eps = 1 box diameter graph and times, each
as the best of `--reps` runs in plain seconds: `build_graph` (the cover
ranges), the in-degrees read from them, the pivot's forward search and
its backward search restricted to the forward set, the CSR written from
the ranges on demand, and the Tarjan pass over the boxes outside the
pivot's component (none on a chain-transitive torus graph, so that pass
is skipped there).  It also reports the peak allocation of
`build_graph` and of `chain_recurrent_boxes` on a fresh graph
(tracemalloc, which sees numpy buffers), and sha256 digests of the SCC
labels, of the CSR and of the cover (start, length and escapes, widened
to int64 so that the storage dtype does not enter), so two checkouts can
be compared for identical results.  The three small cases run by
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


def run_case(name: str, reps: int) -> dict:
    map_name, params, depth = CASES[name]
    grid = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))
    m = make_map(map_name, **params)
    build_s, g = _best(lambda: cg.build_graph(grid, m, grid.box_diameter),
                       reps)
    del g
    build_peak_mb, g = _peak_mb(
        lambda: cg.build_graph(grid, m, grid.box_diameter))
    n = g.nboxes
    degrees = g._box_degrees()
    in_s, in_degrees = _best(lambda: cg._cover_counts(g), reps)
    pivot = np.zeros(n, dtype=bool)
    pivot[np.argmax(degrees * in_degrees)] = True
    cap = cg._fb_max_layers(int(degrees.sum()), n)
    forward_s, fwd = _best(
        lambda: cg._cover_search(g, pivot, max_layers=cap), reps)
    backward_s, back = _best(
        lambda: cg._cover_search(g, pivot, seen=~fwd, max_layers=cap,
                                 backward=True), reps)
    core = back & fwd
    csr_s, (off, tgt) = _best(
        lambda: dataclasses.replace(g, _csr=None)._edges(), reps)
    roots = np.flatnonzero(~core).tolist()

    def remainder():
        labels = np.full(n, -1, dtype=np.int64)
        return cg._tarjan(off, tgt, roots, np.where(core, 0, -1).tolist(),
                          labels, 1) if roots else 1

    tarjan_s, _ = _best(remainder, reps)
    csr_sha = _digest(off, tgt)
    del off, tgt
    fresh = dataclasses.replace(g, _csr=None, _labels=None, _self_loops=None)
    peak_mb, _ = _peak_mb(lambda: cg.chain_recurrent_boxes(fresh))
    start, length = g.cover
    return {"case": name, "nboxes": n, "edges": g.n_edges,
            "build_s": round(build_s, 4),
            "build_peak_mb": round(build_peak_mb, 1),
            "in_degrees_s": round(in_s, 4),
            "forward_s": round(forward_s, 4),
            "backward_s": round(backward_s, 4), "csr_s": round(csr_s, 4),
            "tarjan_s": round(tarjan_s, 4), "tarjan_roots": len(roots),
            "cr_peak_mb": round(peak_mb, 1),
            "csr_written": fresh._csr is not None,
            "labels_sha": _digest(fresh.scc_labels()),
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

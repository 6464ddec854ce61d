"""Per-stage times of the chain-recurrence graph pipeline on torus graphs.

For each case this builds the eps = 1 box diameter graph, then times
`build_graph`, `TransitionGraph.reverse()` (the transpose) and
`strongly_connected_components` given that transpose, each as the best of
`--reps` runs in plain seconds.  It also reports the transpose's peak
allocation on top of the graph (tracemalloc, which sees numpy buffers) and
sha256 digests of the SCC labels and of the transposed CSR, so two
checkouts can be compared for identical results:

    PYTHONPATH=src python3 tools/scc_stages.py --reps 5
    PYTHONPATH=src python3 tools/scc_stages.py --case standard-d9 --reps 3

The last line of output is the JSON record of every case.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import tracemalloc

import numpy as np

from dynkit.chain_graph import build_graph, strongly_connected_components
from dynkit.phase_space import Domain, Grid
from dynkit.system import make_map

CASES = {
    "standard-d8": ("standard", {"K": 0.97}, 8),
    "cat-d7": ("cat", {}, 7),
    "standard-d9": ("standard", {"K": 0.97}, 9),
}


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


def run_case(name: str, reps: int) -> dict:
    map_name, params, depth = CASES[name]
    grid = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, True)), (depth, depth))
    m = make_map(map_name, **params)
    build_s, g = _best(lambda: build_graph(grid, m, grid.box_diameter), reps)

    def transpose():
        g._reverse = None
        return g.reverse()

    reverse_s, rev = _best(transpose, reps)
    g._reverse = None
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    g.reverse()
    peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    tracemalloc.stop()
    scc_s, (n_comp, labels) = _best(
        lambda: strongly_connected_components(g.offsets, g.targets,
                                              g.nboxes, rev), reps)
    return {"case": name, "nboxes": g.nboxes, "edges": g.n_edges,
            "build_s": round(build_s, 4), "reverse_s": round(reverse_s, 4),
            "scc_s": round(scc_s, 4), "reverse_peak_mb": round(peak_mb, 1),
            "n_comp": int(n_comp), "labels_sha": _digest(labels),
            "reverse_sha": _digest(*rev)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", action="append", choices=sorted(CASES),
                    help="case to run (repeatable; default: all)")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    rows = [run_case(name, args.reps) for name in args.case or CASES]
    for r in rows:
        print(f"{r['case']:12s} {r['edges']:>9d} edges  build {r['build_s']:.4f}"
              f"  reverse {r['reverse_s']:.4f}  scc {r['scc_s']:.4f} s"
              f"  reverse peak {r['reverse_peak_mb']:.1f} MB")
    print(json.dumps(rows))


if __name__ == "__main__":
    main()

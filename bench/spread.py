"""Run a workload over several seeds and report each end-to-end metric's
quartile spread (Q3 - Q1 over the median) against its bound.

    python3 bench/spread.py --workload shadow --seeds 1-10 --seconds 25

Runs are made one after another, each a fresh `run.py` process.  The
summary is printed and written to bench/out/spread/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run_seconds of BENCHMARK.json if omitted")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results, elapsed = [], []
    for seed in seed_list(args.seeds):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        elapsed.append(time.perf_counter() - t0)
        result = json.loads(out.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed} ({elapsed[-1]:.1f} s): " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "seeds": seed_list(args.seeds),
               "seconds": seconds, "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "correct": all(r["correct"] for r in results),
               "run_elapsed_s": elapsed, "metrics": {}}
    for name, bound in bounds.items():
        s = summarise([r["metrics"][name]["value"] for r in results])
        s["bound"] = bound
        summary["metrics"][name] = s
        print(f"{name:12s} median {s['median']:.5g}  spread {s['spread']:.3f}  "
              f"bound {bound}  {'ok' if s['spread'] <= bound / 3 else 'WIDE'}")
    dest = HERE / "out" / "spread"
    dest.mkdir(parents=True, exist_ok=True)
    (dest / f"{args.workload}-{args.seeds}-{seconds}s.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

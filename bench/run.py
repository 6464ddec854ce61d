"""dynkit benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload torus-cr --seed 1 --seconds 30 --trace 0

Runs the workload's ops in order, closed loop, in one process.  With
`--trace 0` it makes full untraced passes (at least one) while the next is
expected to end within `--seconds`; each op's time is taken in
reference-speed seconds (see speed.py), `wall_s` is the sum over ops of
each op's median time, and the end-to-end metrics are reported.  With
`--trace 1`, untraced and traced full passes alternate (at least one of
each) and the per-layer metrics of the traced passes are reported: span
times in plain seconds, the traced pass time and the tracing overhead in
reference-speed seconds.  `--op NAME` keeps one op of the
workload, so a single baseline row can be re-run alone.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record (the
environment, every pass, per-op counters, check findings) goes to
bench/out/results/, and the spans of a traced run to bench/out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
]

PER_LAYER = [
    ("failed_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("cli.run_all_s", "s", "lower"),
    ("cli.run_cr_s", "s", "lower"),
    ("cli.run_conley_verify_s", "s", "lower"),
    ("cli.run_attractors_s", "s", "lower"),
    ("cli.run_homoclinic_s", "s", "lower"),
    ("cli.run_manifolds_s", "s", "lower"),
    ("cli.run_accumulate_s", "s", "lower"),
    ("cli.write_report_s", "s", "lower"),
    ("cli.emit_plot_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.builds_per_run", "count", "lower"),
    ("chain_graph.build_s", "s", "lower"),
    ("chain_graph.builds", "count", "lower"),
    ("chain_graph.edges", "count", "lower"),
    ("chain_graph.edges_per_s", "1/s", "higher"),
    ("chain_graph.csr_mb", "MB", "lower"),
    ("chain_graph.scc_s", "s", "lower"),
    ("chain_graph.scc_calls", "count", "lower"),
    ("chain_graph.scc_sets_s", "s", "lower"),
    ("chain_graph.cr_s", "s", "lower"),
    ("chain_graph.components_s", "s", "lower"),
    ("chain_graph.transitive_s", "s", "lower"),
    ("chain_graph.image_s", "s", "lower"),
    ("chain_graph.image_calls", "count", "lower"),
    ("chain_graph.escape_checks", "count", "lower"),
    ("phase_space.nboxes_calls", "count", "lower"),
    ("phase_space.morph_s", "s", "lower"),
    ("phase_space.morph_calls", "count", "lower"),
    ("conley.find_blocks_s", "s", "lower"),
    ("conley.blocks", "count", "higher"),
    ("conley.verify_s", "s", "lower"),
    ("conley.attractor_s", "s", "lower"),
    ("conley.attractor_iterations", "count", "lower"),
    ("conley.absorbed_basin_s", "s", "lower"),
    ("conley.absorbed_basin_calls", "count", "lower"),
    ("conley.basin_s", "s", "lower"),
    ("conley.invariance_s", "s", "lower"),
    ("system.eval_calls", "count", "lower"),
    ("system.eval_points", "count", "lower"),
    ("system.points_per_call", "count", "higher"),
    ("system.eval_s", "s", "lower"),
    ("system.jac_calls", "count", "lower"),
    ("system.jac_s", "s", "lower"),
    ("shadowing.search_s.cat", "s", "lower"),
    ("shadowing.search_s.standard", "s", "lower"),
    ("shadowing.searches", "count", "higher"),
    ("shadowing.success_ratio", "ratio", "higher"),
    ("shadowing.refined", "count", "higher"),
    ("shadowing.evals_per_search", "count", "lower"),
    ("shadowing.pseudo_orbit_s", "s", "lower"),
    ("manifolds.periodic_s", "s", "lower"),
    ("manifolds.periodic_points", "count", "higher"),
    ("manifolds.grow_s", "s", "lower"),
    ("manifolds.vertices", "count", "lower"),
    ("manifolds.homoclinic_s", "s", "lower"),
    ("manifolds.hits", "count", "higher"),
    ("manifolds.hits_per_s", "1/s", "higher"),
    ("manifolds.accumulation_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

MORPH = ("phase_space.BoxSet.dilate", "phase_space.BoxSet.erode",
         "phase_space.BoxSet.boundary")

# per-op counters kept in the result record (exact, repeatable)
OP_COUNTERS = ("chain_graph.build_graph", "chain_graph.edges",
               "chain_graph.strongly_connected_components",
               "phase_space.Grid.nboxes", "manifolds.hits",
               "system.map.forward", "system.map.inverse")


def pin_environment() -> dict:
    """Pin BLAS pools to one thread and drop DYNKIT_THREADS; returns the
    environment record.  Must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("DYNKIT_THREADS", None)
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "DYNKIT_THREADS": None}


def layer_metrics(tracer, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass."""
    from tracer import SpanTable

    t = SpanTable(tracer)
    n = tracer.tally
    incl = t.inclusive_s

    def ratio(a, b):
        return a / b if b else 0.0

    builds = t.count_under(("chain_graph.build_graph",), ("cli.run_subcommand",))
    evals = t.count_under(("system.map.forward", "system.map.inverse"),
                          ("shadowing.shadow_search",))
    m = {
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer),
        "cli.load_config_s": incl("cli.load_config"),
        "cli.run_all_s": incl("cli.run_subcommand[all]"),
        "cli.run_cr_s": incl("cli.run_cr"),
        "cli.run_conley_verify_s": incl("cli.run_conley_verify"),
        "cli.run_attractors_s": incl("cli.run_attractors"),
        "cli.run_homoclinic_s": incl("cli.run_homoclinic"),
        "cli.run_manifolds_s": incl("cli.run_manifolds"),
        "cli.run_accumulate_s": incl("cli.run_accumulate"),
        "cli.write_report_s": incl("cli.write_report"),
        "cli.emit_plot_s": incl("cli.emit_plot"),
        "cli.report_bytes": n["cli.report_bytes"],
        "cli.builds_per_run": int(builds.max()) if builds.size else 0,
        "chain_graph.build_s": incl("chain_graph.build_graph"),
        "chain_graph.builds": n["chain_graph.build_graph"],
        "chain_graph.edges": n["chain_graph.edges"],
        "chain_graph.csr_mb": tracer.maxima.get("chain_graph.csr_mb", 0.0),
        "chain_graph.scc_s": incl("chain_graph.strongly_connected_components"),
        "chain_graph.scc_calls": n["chain_graph.strongly_connected_components"],
        "chain_graph.scc_sets_s": t.self_s("chain_graph.nontrivial_scc_sets"),
        "chain_graph.cr_s": incl("chain_graph.chain_recurrent_boxes"),
        "chain_graph.components_s": incl("chain_graph.chain_components"),
        "chain_graph.transitive_s": incl("chain_graph.is_chain_transitive"),
        "chain_graph.image_s": incl("chain_graph.TransitionGraph.image_boxes"),
        "chain_graph.image_calls": n["chain_graph.TransitionGraph.image_boxes"],
        "chain_graph.escape_checks": n["chain_graph.TransitionGraph.set_escapes"],
        "phase_space.nboxes_calls": n["phase_space.Grid.nboxes"],
        "phase_space.morph_s": incl(*MORPH),
        "phase_space.morph_calls": sum(n[k] for k in MORPH),
        "conley.find_blocks_s": incl("conley.find_attractor_blocks"),
        "conley.blocks": n["conley.blocks"],
        "conley.verify_s": incl("conley.verify_conley_decomposition"),
        "conley.attractor_s": incl("conley.attractor_from_block"),
        "conley.attractor_iterations": n["conley.attractor_iterations"],
        "conley.absorbed_basin_s": incl("conley.absorbed_basin"),
        "conley.absorbed_basin_calls": n["conley.absorbed_basin"],
        "conley.basin_s": incl("conley.basin"),
        "conley.invariance_s": incl("conley.attractor_invariance_check"),
        "system.eval_calls": n["system.map.forward"] + n["system.map.inverse"],
        "system.eval_points": n["system.eval_points"],
        "system.eval_s": incl("system.map.forward", "system.map.inverse"),
        "system.jac_calls": n["system.map.jac"] + n["system.map.jac_abs_bound"],
        "system.jac_s": incl("system.map.jac", "system.map.jac_abs_bound"),
        "shadowing.search_s.cat": incl("shadowing.shadow_search[cat]"),
        "shadowing.search_s.standard": incl("shadowing.shadow_search[standard]"),
        "shadowing.searches": n["shadowing.shadow_search"],
        "shadowing.refined": n["shadowing.refined"],
        "shadowing.evals_per_search": ratio(int(evals.sum()), evals.size),
        "shadowing.pseudo_orbit_s": incl("shadowing.random_pseudo_orbit"),
        "manifolds.periodic_s": incl("manifolds.find_periodic_points"),
        "manifolds.periodic_points": n["manifolds.periodic_points"],
        "manifolds.grow_s": incl("manifolds.grow_manifold"),
        "manifolds.vertices": n["manifolds.vertices"],
        "manifolds.homoclinic_s": incl("manifolds.homoclinic_points"),
        "manifolds.hits": n["manifolds.hits"],
        "manifolds.accumulation_s": incl("manifolds.accumulation_check"),
    }
    m["chain_graph.edges_per_s"] = ratio(m["chain_graph.edges"], m["chain_graph.build_s"])
    m["system.points_per_call"] = ratio(m["system.eval_points"], m["system.eval_calls"])
    m["shadowing.success_ratio"] = ratio(n["shadowing.shadowed"], m["shadowing.searches"])
    m["manifolds.hits_per_s"] = ratio(m["manifolds.hits"], m["manifolds.homoclinic_s"])
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_pass(ops, tracer=None):
    """Run the ops in order, each once, and check their outputs.

    Each op's time is given in plain seconds (`s`) and in reference-speed
    seconds (`ref_s`, see speed.py).  Returns the op records and the
    process's peak RSS when the ops are done; checks run after that,
    untraced and unprobed."""
    from speed import SpeedProbe
    from workloads import Check

    instr = None
    if tracer is not None:
        from tracer import Instrumentation
        instr = Instrumentation(tracer)
        instr.install()
    records, outcomes = [], []
    try:
        with SpeedProbe() as probe:
            for op in ops:
                records.append(run_op(op, tracer, probe, outcomes))
    finally:
        if instr is not None:
            instr.uninstall()
    rss = peak_rss_mb()
    for rec, (op, outcome, prepared, error) in zip(records, outcomes):
        ch = Check()
        if error is not None:
            ch.verdict(False, "raised: " + error.strip().splitlines()[-1])
        else:
            try:
                op.check(outcome, prepared, ch)
            except Exception:
                ch.oracle(False, "check raised: " + traceback.format_exc())
        rec["failed"] = ch.failed
        rec["wrong"] = ch.wrong
    return records, rss


def run_op(op, tracer, probe, outcomes) -> dict:
    """One timed execution of `op`; appends (op, outcome, prepared, error)."""
    prepared = op.prepare() if op.prepare else None
    before = dict(tracer.tally) if tracer is not None else None
    mark = probe.mark()
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(f"bench.op[{op.name}]"):
                outcome = op.run()
        else:
            outcome = op.run()
    except Exception:
        outcome, error = None, traceback.format_exc()
    dt = time.perf_counter() - t0
    rec = {"op": op.name, "s": dt, "ref_s": dt * probe.scale(mark)}
    if tracer is not None:
        counts = {k: tracer.tally[k] - before.get(k, 0) for k in OP_COUNTERS}
        rec["counts"] = {k: v for k, v in counts.items() if v}
    outcomes.append((op, outcome, prepared, error))
    return rec


def measure(ops, seconds: float, trace: bool) -> list:
    """Full passes over the ops for about `seconds`.

    Untraced: passes, at least one, while the next pass is expected to end
    within `seconds`.  Traced: untraced and traced passes alternate, at
    least one of each, on the same rule.  Every pass is full, so every op
    runs equally often, and probed for reference-speed seconds."""
    from tracer import Tracer

    passes = []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        records, rss = run_pass(ops, tracer)
        passes.append({"traced": traced, "wall_s": sum(r["s"] for r in records),
                       "ref_wall_s": sum(r["ref_s"] for r in records),
                       "peak_rss_mb": rss, "ops": records, "tracer": tracer})
        elapsed = time.perf_counter() - t_start
        if len(passes) >= (2 if trace else 1) and \
                elapsed + passes[-1]["wall_s"] > seconds:
            return passes


def setup_probe_s(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from process start until dynkit is imported and the
    workload's inputs are generated, seen from outside the process: plain
    and in reference-speed seconds (the child probes its own speed)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    word, _, scale = line.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return dt, dt * float(scale)


def setup_probe_child(workload: str, seed: int) -> int:
    """The set-up of a run, probed: imports dynkit and generates the inputs,
    then prints `ready <speed scale>`."""
    from speed import SpeedProbe

    probe_dir = OUT / "work" / f"probe-{os.getpid()}"
    with SpeedProbe() as probe:
        import workloads
        workloads.build(workload, seed, probe_dir)
        scale = probe.scale(0)
    print(f"ready {scale!r}", flush=True)
    import shutil
    shutil.rmtree(probe_dir, ignore_errors=True)
    return 0


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--op", default=None, help="run only this op of the workload")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    env = pin_environment()
    if not (ROOT / "src" / "dynkit" / "__init__.py").is_file():
        print(f"dynkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe_child(args.workload, args.seed)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy
    env.update(numpy=numpy.__version__, scipy=scipy.__version__)

    setup = [setup_probe_s(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    ops = workloads.build(args.workload, args.seed)
    if args.op is not None:
        ops = [op for op in ops if op.name == args.op]
        if not ops:
            print(f"no op {args.op!r} in workload {args.workload!r}", file=sys.stderr)
            return 2

    passes = measure(ops, args.seconds, bool(args.trace))
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    all_ops = [r for p in passes for r in p["ops"]]
    correct = not any(r["wrong"] for r in all_ops)
    # attempted and failed count the workload's distinct ops: each runs
    # once per pass, and fails if any of its executions failed
    op_failed = {}
    for r in all_ops:
        op_failed[r["op"]] = op_failed.get(r["op"], False) or bool(r["failed"])
    attempted = len(op_failed)
    failed = sum(op_failed.values())
    failed_frac = failed / attempted

    if args.trace:
        per_pass = [layer_metrics(p["tracer"], p["ref_wall_s"]) for p in traced]
        values = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = (
            statistics.median(p["ref_wall_s"] for p in traced)
            - statistics.median(p["ref_wall_s"] for p in untraced))
        values["failed_frac"] = failed_frac
        names = [name for name, _, _ in PER_LAYER]
    else:
        # each op's time is its median over its executions, so the set of
        # values does not depend on how many executions fitted in the run
        samples = {}
        for r in all_ops:
            samples.setdefault(r["op"], []).append(r["ref_s"])
        op_s = [statistics.median(v) for v in samples.values()]
        op_ms = [s * 1e3 for s in op_s]
        values = {
            "wall_s": sum(op_s),
            "setup_s": statistics.median(ref for _, ref in setup),
            # the first pass's peak, so the number of passes that fit the
            # run does not move it
            "peak_rss_mb": passes[0]["peak_rss_mb"],
            "ok_frac": 1.0 - failed_frac,
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": percentile(op_ms, 90),
        }
        names = [name for name, _, _ in END_TO_END]
    metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in names}

    tag = f"{args.workload}{'-' + args.op if args.op else ''}-s{args.seed}-t{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    if traced:
        import numpy as np
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        arrays = {f"pass{i}_{k}": v for i, p in enumerate(traced)
                  for k, v in p["tracer"].arrays().items()}
        np.savez(OUT / "spans" / f"{tag}.npz", **arrays)
    record = {"workload": args.workload, "seed": args.seed, "op": args.op,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_s": {"plain": [s for s, _ in setup], "ref": [r for _, r in setup]},
              "correct": correct, "attempted": attempted, "failed": failed,
              "executions": len(all_ops), "metrics": metrics,
              "passes": [{k: v for k, v in p.items() if k != "tracer"}
                         for p in passes]}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for line in dict.fromkeys(f"failed op {r['op']}: {'; '.join(r['failed'])}"
                              for r in all_ops if r["failed"]):
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

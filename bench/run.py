"""Stage-timed benchmark of the halfspace boundary-value solver.

    python3 bench/run.py --workload frame-n1 --seed 1 --seconds 10 --trace 0

Runs one workload (``frame-n1``, ``frame-n2``, ``solves-n1``, ``battery``;
see ``workloads.py`` and ``README.md``) through the library's public API in
this process, checks every operation's output outside the timed region, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the library layers from the outside, reports the
per-layer metrics and writes the spans to ``bench/out/``.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3
DIGITS_CAP = 16.0

END_TO_END_UNITS = {
    "setup_s": "s", "op_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
    "oracle_digits": "digits", "identity_digits": "digits",
}
VERIFY_FAMILIES = (
    "algebra", "symbol_oracle", "example_kernel", "sector", "rellich",
    "block", "quadratic", "perturbation", "skew", "norm_equivalences",
    "duality", "dirichlet",
)
# per-layer metric -> span names whose outermost calls it sums
SPAN_SUMS = {
    "assembly.assemble_TB_s": ("assembly.assemble_TB",),
    "assembly.assemble_NB_s": ("assembly.assemble_NB",),
    "assembly.restrict_s": ("assembly.restrict",),
    "assembly.hat_h1_basis_s": ("assembly.hat_h1_basis",),
    "calculus.decompose_s": ("calculus.decompose",),
    "calculus.apply_function_s": ("calculus.apply_function",),
    "calculus.apply_to_vector_s": ("calculus.apply_to_vector",),
    "calculus.quadratic_constants_s": ("calculus.quadratic_constants",),
    "diagnostics.campaign_s": (
        "diagnostics.rellich_campaign", "diagnostics.block_campaign",
        "diagnostics.perturbation_campaign", "diagnostics.skew_scan",
        "diagnostics.psi_comparability", "diagnostics.hodge_campaign",
        "diagnostics.duality_campaign", "diagnostics.offdiag_campaign"),
    "oracles.cauchy_extension_line_s": ("oracles.cauchy_extension_line",),
    "bvp.BoundaryFrame_s": ("bvp.BoundaryFrame",),
    "bvp.invert_s": ("bvp.BoundaryFrame.invert",),
    "bvp.norms_s": ("bvp.norm_sup_t", "bvp.norm_triplebar_dt",
                    "bvp.norm_triplebar_gradx", "bvp.nontangential_max"),
    "bvp.dirichlet_residual_s": ("bvp.dirichlet_second_order_residual",),
}
# per-layer metric -> the battery check family whose mean call time it is
FAMILY_TIMES = {f"verify.check_{f}_s": f"verify.check_{f}"
                for f in VERIFY_FAMILIES}
SPAN_COUNTS = {
    "assembly.restrict_calls": "assembly.restrict",
    "calculus.apply_to_vector_calls": "calculus.apply_to_vector",
    "bvp.invert_calls": "bvp.BoundaryFrame.invert",
}
SOLVES = ("bvp.solve_neumann", "bvp.solve_regularity", "bvp.solve_neu_perp",
          "bvp.solve_dirichlet", "bvp.solve_transmission")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import ``halfspace`` from ``src/`` of this checkout only."""
    if not os.path.isfile(os.path.join(SRC, "halfspace", "__init__.py")):
        fail(f"no halfspace package under {SRC}")
    sys.path.insert(0, SRC)
    import halfspace
    if not os.path.abspath(halfspace.__file__).startswith(SRC + os.sep):
        fail(f"halfspace was imported from {halfspace.__file__}, not {SRC}")
    return halfspace


def digits(values) -> float:
    """-log10 of the worst value, clamped to [0, 16]; 0 when nothing was
    checked or a value is NaN."""
    worst = max((v if v == v else math.inf for v in values), default=1.0)
    if not worst > 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, max(0.0, -math.log10(worst)))


def run_ops(workload, seconds: float, tracer):
    """Whole rounds until the timed operations add up to ``seconds`` and
    the workload's minimum number of rounds is done."""
    results = []
    timed = 0.0
    round_index = 0
    while timed < seconds or round_index < workload.min_rounds:
        base = len(results)

        def mark(i, phase, base=base):
            op = base + i
            if tracer is not None:
                tracer.op = op if phase == "op" else f"{phase}:{op}"
        if tracer is not None:
            tracer.op = "round"
        batch = workload.run_round(round_index, mark)
        for i, res in enumerate(batch):
            print(f"bench: op {base + i} {res.label} {res.seconds:.4f} s",
                  file=sys.stderr)
        results += batch
        timed += sum(r.seconds for r in batch)
        round_index += 1
    return results, timed


def end_to_end(results, timed: float, setup_s: float) -> dict:
    ok = [r for r in results if r.ok]
    done = [r for r in results if r.error is None]
    return {
        "setup_s": setup_s,
        "op_s": statistics.median(r.seconds for r in ok),
        "ops_per_s": len(ok) / timed,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_digits": digits(v for r in done for v in r.oracle_dev),
        "identity_digits": digits(
            v for r in done for v in r.identity_defect),
    }


def per_layer(tracer, results) -> dict:
    """Per-operation means over spans opened inside timed operations.

    ``verify.check_<family>_s`` is the mean time of that family's call;
    ``oracles.constant_solver_s`` also counts the checks, where the frame
    workloads call it; the two maxima are over the whole run.
    """
    n_ops = len(results)
    in_op = [isinstance(op, int) for op in tracer.ops]
    out = {}
    for metric, names in SPAN_SUMS.items():
        hits = tracer.outermost(lambda name, names=names: name in names)
        out[metric] = sum(tracer.duration(i) for i in hits if in_op[i]) / n_ops
    for metric, name in FAMILY_TIMES.items():
        calls = [tracer.duration(i) for i, s in enumerate(tracer.names)
                 if s == name and in_op[i]]
        out[metric] = statistics.fmean(calls) if calls else 0.0
    for metric, name in SPAN_COUNTS.items():
        out[metric] = sum(1 for i, s in enumerate(tracer.names)
                          if s == name and in_op[i]) / n_ops
    hits = tracer.outermost(lambda name: name == "oracles.constant_solver")
    out["oracles.constant_solver_s"] = sum(
        tracer.duration(i) for i in hits if tracer.ops[i] != "setup") / n_ops
    selfs = tracer.self_times()
    out["bvp.solve_s"] = sum(selfs[i] for i, s in enumerate(tracer.names)
                             if s in SOLVES and in_op[i]) / n_ops
    out["assembly.peak_mb"] = tracer.assembly_peak_bytes / 2.0 ** 20
    out["calculus.cond_V_max"] = max(tracer.cond_V, default=0.0)
    covered = [0.0] * n_ops
    for i, parent in enumerate(tracer.parents):
        if in_op[i] and (parent < 0 or tracer.ops[parent] != tracer.ops[i]):
            covered[tracer.ops[i]] += tracer.duration(i)
    out["unattributed_s"] = sum(
        r.seconds - c for r, c in zip(results, covered)) / n_ops
    out["trace.op_s"] = statistics.median(r.seconds for r in results if r.ok)
    return out


PER_LAYER_UNITS = {
    **{m: "s" for m in (*SPAN_SUMS, *FAMILY_TIMES)},
    **{m: "count" for m in SPAN_COUNTS},
    "oracles.constant_solver_s": "s", "bvp.solve_s": "s",
    "assembly.peak_mb": "MB", "calculus.cond_V_max": "ratio",
    "unattributed_s": "s", "trace.op_s": "s",
}


def stage_table(tracer) -> list:
    """Self time by span name and phase, largest first (for the README)."""
    selfs = tracer.self_times()
    table = {}
    for i, name in enumerate(tracer.names):
        op = tracer.ops[i]
        phase = "op" if isinstance(op, int) else op.split(":")[0]
        key = (name, phase)
        calls, total = table.get(key, (0, 0.0))
        table[key] = (calls + 1, total + selfs[i])
    rows = [{"name": k[0], "phase": k[1], "calls": v[0], "self_s": v[1]}
            for k, v in table.items()]
    return sorted(rows, key=lambda r: -r["self_s"])


def environment(np, scipy) -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpus": os.cpu_count(),
        **{var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    halfspace = import_library()
    import numpy as np
    import scipy
    from spans import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(halfspace)
    import_s = time.perf_counter() - T_START

    workload = WORKLOADS[args.workload](args.seed)
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        reps.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(reps)

    results, timed = run_ops(workload, args.seconds, tracer)
    ok = [r for r in results if r.ok]
    for r in results:
        if not r.ok:
            print(f"bench: {args.workload} op {r.label} failed: "
                  f"{r.error or '; '.join(r.failures)}", file=sys.stderr)
    if not ok:
        fail("no operation succeeded")

    if tracer is None:
        metrics = end_to_end(results, timed, setup_s)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(tracer, results)
        units = PER_LAYER_UNITS
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        tracer.write(stem + "-spans.jsonl", {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "ops": [
                {"id": i, "label": r.label, "seconds": r.seconds, "ok": r.ok}
                for i, r in enumerate(results)],
            "environment": environment(np, scipy)})
        with open(stem + "-stages.json", "w") as fh:
            json.dump({"metrics": metrics, "stages": stage_table(tracer)},
                      fh, indent=1)
    print(json.dumps({
        "correct": all(not r.failures for r in results),
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""fsgreens benchmark: time to a checked solution, end to end and per layer.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload recon1d --seed 1 --seconds 20 --trace 0

or every workload, each in its own process, with a table of all
end-to-end metrics:

    python3 bench/run.py --workload all --seed 1 --seconds 20

A run imports fsgreens from `src/`, builds its seeded inputs and warms up
(set-up, repeated SETUP_REPS times, median reported), then repeats the
workload's fixed batch of solves as often as fills `--seconds` at the
benchmark's first commit.  Every solve is checked against its exact
solution.  Every time is reported in seconds at the speed of the host
yardstick (`yardstick.py`): each set-up and each solve is bracketed by two
runs of a fixed kernel, which cancels the host's speed swings.  With
`--trace 1` the batches alternate untraced and traced, layer spans are
recorded around every library call, sub-stage probes and the reference
solves run outside the timed batches, and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Result files (and the
spans and per-solve rows of a traced run) go to `bench/out/`.  The exit
code is 2 when fsgreens cannot be imported from the checkout and 1 when
set-up fails; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
BLAS_THREADS = 1
WORKLOAD_NAMES = ("recon1d", "apply1d", "vms_iter", "poisson2d")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "accuracy_digits": "digits",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}

# Metric -> unit for every layer span; "<span>_s" is the span's self time
# summed over one traced batch.
LAYER_SPANS = (
    "projection.functionals", "projection.project", "finescale.build", "finescale.apply",
    "finescale.surface", "basis1d.eval", "vms_advdiff.iterate", "vms_advdiff.workspace",
    "vms_advdiff.galerkin", "poisson2d.duals", "poisson2d.project", "poisson2d.series",
    "poisson2d.reconstruct", "poisson2d.eval", "poisson2d.pairing", "poisson2d.convolution",
    "poisson2d.lift", "cli.write", "bench.check",
)
PER_LAYER = {f"{name}_s": "s" for name in LAYER_SPANS}
PER_LAYER.update({
    "projection.dofs": "count",
    "finescale.build_exp_N": "exponent",
    "finescale.gram_cond_log10": "log10",
    "vms_advdiff.sweeps": "count",
    "vms_advdiff.sweep_ms": "ms",
    "poisson2d.dofs": "count",
    "poisson2d.terms": "count",
    "bench.glue_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
})


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_environment():
    """Run BLAS on the calling thread only and drop the CLI's quadrature override.

    One process with one BLAS thread stays within `nproc` threads on any
    machine.  On a shared two-core machine a second BLAS thread made the
    first BLAS-heavy call in a process three times slower and widened the
    run-to-run range of `wall_s` (see NOTES.md).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("FSG_QUAD_POINTS", None)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_library():
    """Import fsgreens from this checkout's src/ and time it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    import fsgreens
    import workloads
    elapsed = perf_counter() - start
    if not Path(fsgreens.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fsgreens resolved to {fsgreens.__file__}, not {src}")
    return workloads, elapsed


def _batch_count(workload, args) -> int:
    """The workload's batches per 20 seconds, scaled to `--seconds`.

    The count depends only on the arguments, never on measured speed, so
    two commits run the same work and report the tail at the same
    percentile.  A traced run needs one untraced and one traced batch.
    """
    count = max(1, round(workload.batches * args.seconds / 20.0))
    return max(count, 2) if args.trace else count


def _tail(times: list) -> tuple[int, float]:
    """Highest nearest-rank percentile with ten solves beyond it, never below p50."""
    ranked = sorted(times)
    if len(ranked) < 20:
        return 50, statistics.median(ranked)
    rank = len(ranked) - 10
    return 100 * rank // len(ranked), ranked[rank - 1]


def _run_batch(wl, batch, specs, ops, tracer, out, rows) -> tuple[float, float]:
    """Run the specs once; return the batch's time in seconds at the
    yardstick speed and in measured seconds, both summed over its solves."""
    from yardstick import scale, yardstick

    first = len(rows)
    sticks = []  # per solve, the yardstick seconds just before and just after it
    before = yardstick()
    for i, spec in enumerate(specs):
        tracer.tags = {"batch": batch, "solve": f"{batch}.{i}", "probe": False}
        t0 = perf_counter()
        with tracer.span("bench.solve"):
            try:
                outcome = wl.run_solve(spec, tracer, out, ops)
            except Exception as exc:  # a failed solve is counted; the run goes on
                traceback.print_exc()
                outcome = wl.Outcome(math.nan, None, False, note=f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - t0
        after = yardstick()
        sticks.append((before, after))
        extra = {}
        if tracer.enabled and outcome.probe is not None:
            tracer.tags = dict(tracer.tags, probe=True)
            with tracer.span("bench.probe"):
                try:
                    extra = outcome.probe(tracer)
                except Exception as exc:
                    traceback.print_exc()
                    outcome.ok, outcome.note = False, f"probe {type(exc).__name__}: {exc}"
            after = yardstick()
        before = after
        if not outcome.ok:
            print(f"bench: solve {batch}.{i} failed: {outcome.note}", file=sys.stderr)
        rows.append({"batch": batch, "solve": f"{batch}.{i}", "traced": tracer.enabled,
                     "kind": spec.kind, "N": spec.N, "p": spec.p, "flavor": spec.flavor,
                     "jittered": spec.boundaries is not None, "nu": spec.nu, "dofs": outcome.dofs,
                     "error": outcome.error, "residual": outcome.residual, "ok": outcome.ok,
                     "note": outcome.note, "raw_seconds": seconds, **outcome.counts, **extra})
        outcome = None  # the probe holds the solve's operators; free them before the next solve
    batch_rows = rows[first:]
    for i, row in enumerate(batch_rows):
        row["scale"] = scale(*(t for pair in sticks[max(0, i - 1):i + 2] for t in pair))
        row["seconds"] = row["raw_seconds"] * row["scale"]
    return sum(r["seconds"] for r in batch_rows), sum(r["raw_seconds"] for r in batch_rows)


def _build_exponent(rows: list) -> float | None:
    """Least-squares slope of log(build seconds) in log(N), one intercept per (p, flavor)."""
    groups: dict = {}
    for row in rows:
        if row.get("layers", {}).get("finescale.build"):
            groups.setdefault((row["p"], row["flavor"]), []).append(
                (math.log(row["N"]), math.log(row["layers"]["finescale.build"])))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx > 0 else None


def _layer_metrics(spans: list, rows: list, batches: list) -> dict:
    """Per-layer metrics of the traced batches; a layer the batch never
    touches is taken from the reference solves instead."""
    traced = [b["batch"] for b in batches if b["traced"]]
    factors = {row["solve"]: row["scale"] for row in rows}
    spans = [dict(rec, self=rec["self"] * factors[rec["solve"]]) for rec in spans]
    per_solve: dict = {}
    for rec in spans:
        if rec["name"] not in ("bench.solve", "bench.probe"):
            layers = per_solve.setdefault(rec["solve"], {})
            layers[rec["name"]] = layers.get(rec["name"], 0.0) + rec["self"]
    for row in rows:
        if row["traced"]:
            row["layers"] = per_solve.get(row["solve"], {})

    def source(name):
        """Batches to aggregate `name` over: the traced ones, or the reference pass."""
        present = any(rec["name"] == name and rec["batch"] in traced for rec in spans)
        return traced if present else ["ref"]

    def batch_sum(name, batch):
        return sum(r["self"] for r in spans if r["name"] == name and r["batch"] == batch)

    def batch_rows(batch):
        return [r for r in rows if r["batch"] == batch]

    metrics = {f"{name}_s": statistics.median(batch_sum(name, b) for b in source(name))
               for name in LAYER_SPANS}
    for metric, key in (("projection.dofs", "dofs"), ("vms_advdiff.sweeps", "sweeps"),
                        ("poisson2d.dofs", "dofs_2d"), ("poisson2d.terms", "terms")):
        metrics[metric] = (sum(r.get(key, 0) for r in batch_rows(traced[0]))
                           or sum(r.get(key, 0) for r in batch_rows("ref")))
    conds = [r["gram_cond_log10"] for r in batch_rows(traced[0]) if "gram_cond_log10" in r]
    metrics["finescale.gram_cond_log10"] = max(
        conds or [r["gram_cond_log10"] for r in batch_rows("ref") if "gram_cond_log10" in r])
    exponent = _build_exponent([r for b in traced for r in batch_rows(b)])
    metrics["finescale.build_exp_N"] = (exponent if exponent is not None
                                        else _build_exponent(batch_rows("ref")))
    vms = source("vms_advdiff.iterate")
    sweep_s = statistics.median(batch_sum("vms_advdiff.iterate", b)
                                - batch_sum("vms_advdiff.workspace", b) for b in vms)
    metrics["vms_advdiff.sweep_ms"] = 1e3 * sweep_s / sum(r.get("sweeps", 0)
                                                          for r in batch_rows(vms[0]))
    metrics["trace.wall_s"] = statistics.median(b["wall"] for b in batches if b["traced"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        b["wall"] for b in batches if not b["traced"])
    spanned = statistics.median(
        sum(r["self"] for r in spans
            if r["batch"] == b and not r["probe"] and r["name"] != "bench.solve")
        for b in traced)
    metrics["bench.glue_s"] = metrics["trace.wall_s"] - spanned
    return metrics


def _environment() -> dict:
    import numpy
    import scipy
    return {"nproc": _nproc(), "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": _git_commit()}


def run_workload(args) -> int:
    _pin_environment()
    try:
        wl, import_raw_s = _import_library()
    except ImportError as exc:
        print(f"bench: cannot import fsgreens from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    from tracing import Tracer
    from yardstick import scale, yardstick

    yardstick()  # warm the kernel once
    import_s = import_raw_s * scale(yardstick(), yardstick())

    workload = wl.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    out = str(OUT / f"{workload.name}.csv")

    off = Tracer(False)
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPS):
        before = yardstick()
        start = perf_counter()
        specs = workload.inputs(np.random.default_rng([args.seed, workload.index]))
        ops = workload.operators(off) if workload.operators else None
        for spec in workload.warmup:
            outcome = wl.run_solve(spec, off, out, ops)
            if not outcome.ok:
                print(f"bench: set-up solve failed: {outcome.note}", file=sys.stderr)
                return 1
        setup_raw.append(perf_counter() - start)
        setup_times.append(setup_raw[-1] * scale(before, yardstick()))
    setup_s = import_s + statistics.median(setup_times)

    tracer = Tracer(False)
    batches, rows = [], []
    for index in range(_batch_count(workload, args)):
        tracer.enabled = bool(args.trace) and index % 2 == 1
        wall, raw = _run_batch(wl, index, specs, ops, tracer, out, rows)
        batches.append({"batch": index, "traced": tracer.enabled, "wall": wall, "raw_wall": raw})

    if args.trace:
        # The reference solves run once untraced to warm their code paths,
        # then traced; only the traced pass is kept.
        tracer.enabled = False
        _run_batch(wl, "ref", wl.REFERENCE, None, tracer, out, [])
        tracer.enabled = True
        _run_batch(wl, "ref", wl.REFERENCE, None, tracer, out, rows)
        spans = tracer.self_times()
        metrics = _layer_metrics(spans, rows, batches)
        units = PER_LAYER
    else:
        times = [r["seconds"] for r in rows]
        tail_pct, tail = _tail(times)
        errors = [r["error"] for r in rows if r["error"] is not None and math.isfinite(r["error"])]
        failed = sum(not r["ok"] for r in rows)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(b["wall"] for b in batches),
            "solve_s.p50": statistics.median(times),
            "solve_s.tail": tail,
            "accuracy_digits": min((-math.log10(max(e, 1e-17)) for e in errors), default=0.0),
            "pass_frac": 1.0 - failed / len(rows),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"bench: {workload.name} seed {args.seed}: solve_s.tail is p{tail_pct} of "
              f"{len(times)} solves; {len(batches)} batches of {len(specs)}")
        raw_wall = statistics.median(b["raw_wall"] for b in batches)
        print(f"bench: {workload.name} measured seconds: wall {raw_wall:.6g}, set-up "
              f"{import_raw_s + statistics.median(setup_raw):.6g}; host speed "
              f"{metrics['wall_s'] / raw_wall:.3g} x the yardstick's")

    failed = sum(not r["ok"] for r in rows)
    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(),
              "setup_runs_s": setup_times, "setup_raw_s": setup_raw, "import_s": import_s,
              "import_raw_s": import_raw_s, "batches": batches,
              "rows": rows, "result": result}
    if args.trace:
        record["spans"] = spans
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    for name, unit in units.items():
        print(f"bench: {workload.name} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other; a table, then
    one merged JSON line with metrics named <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
            print(f"{name:<10} {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

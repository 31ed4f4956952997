"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {table7,fuzz,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Prints the workload's named figures, then
as its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` the workload runs once
untraced and once with the layer wrappers of :mod:`tracing` installed,
prints the tracing overhead, and the metrics are the per-layer metrics.
Exits 1 when a correctness check failed, 2 when the program under test
cannot be found or imported.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("table7", "fuzz", "serve")

#: Span names of the wrapped layers, each reported as ``.calls`` and
#: ``.self_s``.
_WRAPPED = (
    "dse.execute", "model.cegar", "model.translate", "solver.query",
    "automata.compile", "automata.accepts", "regex.exec", "regex.parse",
    "conformance.check",
)


def _declared_metrics():
    """``(end_to_end, per_layer)``: metric name -> unit, as declared in
    ``BENCHMARK.json`` and in its order.  A per-layer metric a workload
    does not reach reads 0 there."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in declared[kind]}
        for kind in ("end_to_end", "per_layer")
    )


#: The program modules the workloads drive.
MODULES = (
    "repro.conformance", "repro.dse", "repro.eval", "repro.serve.client",
    "repro.service.runner",
)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise ImportError(f"no program source under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for module in MODULES:
        importlib.import_module(module)


def _import_seconds(times: int) -> List[float]:
    """``times`` timings of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = "import " + ", ".join(MODULES)
    found = []
    for _ in range(times):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        found.append(time.perf_counter() - started)
    return found


def _cold_caches() -> None:
    """Drop the program's in-process memo tables, so that every run of a
    workload, traced or not, starts from the same cold state."""
    from repro.automata.ops import clear_caches
    from repro.constraints.printer import canonical_regex

    clear_caches()
    canonical_regex.cache_clear()


def _run_workload(args, tracer=None):
    name, seed, seconds = args.workload, args.seed, args.seconds
    _cold_caches()
    if name == "table7":
        import workload_table7

        return workload_table7.run(seed, seconds, tracer, args.input_seed)
    if name == "fuzz":
        import workload_fuzz

        return workload_fuzz.run(seed, seconds, tracer, args.input_seed)
    import workload_serve

    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    return workload_serve.run(
        seed, seconds, tracer, args.input_seed, root=ROOT, scratch=scratch
    )


def _print_figures(name: str, outcome, end_to_end) -> None:
    print(f"== {name}: {outcome.attempted} attempted, {outcome.failed} failed")
    for metric, unit in end_to_end.items():
        print(f"  {metric:<24} {outcome.metrics[metric]:>14.6g} {unit}")
    for metric, value, unit, extra in outcome.report:
        print(f"  {metric:<24} {value:>14.6g} {unit:<6} {extra}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'error_share':<24} {share:>14.6g} ratio  "
          f"{outcome.failed} failed of {outcome.attempted}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")


def _traced(args, untraced, end_to_end, per_layer):
    from repro.automata import automata_cache_counters
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        outcome = _run_workload(args, tracer)
        # _run_workload reset the counters, so these are this run's.
        counters = automata_cache_counters()
    finally:
        tracer.uninstall()
    _print_figures(f"{args.workload} (traced)", outcome, end_to_end)

    layer = dict.fromkeys(per_layer, 0)
    for span_name, totals in tracer.layer_totals().items():
        if span_name in _WRAPPED:
            layer[f"{span_name}.calls"] = totals["calls"]
            layer[f"{span_name}.self_s"] = totals["self_s"]
    hits, misses = counters["hits"], counters["misses"]
    layer["automata.interner.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layer.update(outcome.layer)
    base = untraced.metrics["wall_s"]
    traced_wall = outcome.metrics["wall_s"]
    layer["trace.untraced_wall_s"] = base
    layer["trace.traced_wall_s"] = traced_wall
    layer["trace.overhead_share"] = (traced_wall - base) / base if base else 0.0
    print(
        f"tracing overhead ({args.workload}): wall_s traced {traced_wall:.4f} s"
        f" - untraced {base:.4f} s = {traced_wall - base:+.4f} s"
        f" ({100.0 * layer['trace.overhead_share']:+.1f}% of untraced)"
    )
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv")
    tracer.write(spans)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans, ROOT)}")
    for metric, unit in per_layer.items():
        print(f"  {metric:<32} {layer[metric]:>14.6g} {unit}")
    return outcome, {name: (layer[name], unit) for name, unit in per_layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--input-seed", type=int, default=1909,
        help="seed of the table7 population, the fuzz campaign and the "
        "serve corpus (default 1909; --seed orders the work within them)",
    )
    args = parser.parse_args(argv)

    try:
        end_to_end, per_layer = _declared_metrics()
        _import_program()
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    # The import is timed three times before the workload and three times
    # after it, following one untimed import that warms the page cache.
    # On a shared host CPU speed drifts over seconds and other tenants'
    # bursts only ever add time, so the fastest of samples taken far apart
    # is the import's own cost.
    _import_seconds(1)
    imports = _import_seconds(3)
    outcome = _run_workload(args)
    imports += _import_seconds(3)
    outcome.metrics["setup_s"] += min(imports)
    outcome.note("import_s", min(imports), "s",
                 "fastest of " + " ".join(f"{t:.3f}" for t in imports))
    _print_figures(args.workload, outcome, end_to_end)
    metrics = {name: (outcome.metrics[name], unit) for name, unit in end_to_end.items()}
    if args.trace:
        traced, metrics = _traced(args, outcome, end_to_end, per_layer)
        outcome.attempted += traced.attempted
        outcome.failed += traced.failed
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

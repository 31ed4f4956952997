"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``solve PATTERN [-f FLAGS] [--negate]`` — generate an input the regex
  matches (CEGAR-validated captures) or rejects;
- ``exec PATTERN SUBJECT [-f FLAGS]`` — run the concrete ES6 matcher;
- ``analyze FILE`` — dynamic symbolic execution of a mini-JS program;
- ``batch FILE... | batch --survey -n N`` — run many analyses across a
  worker pool with a shared solver query cache (the service layer);
- ``serve --socket PATH | --port N`` — keep that worker pool warm in a
  long-lived daemon; concurrent clients submit jobs over
  newline-delimited JSON and results stream back as they land, with
  duplicate work coalesced across clients (see :mod:`repro.serve`);
- ``submit [--socket PATH | --port N] FILE...`` — client for ``serve``:
  job-spec ``.json`` files or mini-JS programs in, a batch report (or
  ``--stream``\\ ed JSON result lines) out; ``--stats`` prints the
  daemon's scheduler gauges and observability snapshot;

``solve``/``analyze``/``batch`` accept ``--backend SPEC`` to pick the
solver backend (``native``, ``smtlib:z3``,
``portfolio:native+smtlib``, ``cached:native``, ...) — see
:mod:`repro.solver.backends` — ``--automata-cache DIR`` to persist
compiled DFAs across processes and invocations, and ``--query-cache
DIR`` to persist definitive solver answers the same way (implies a
``cached:`` level when the spec lacks one); ``batch --dedup``
additionally coalesces jobs posing identical canonical queries into
single-flight executions.

``solve``/``analyze``/``batch`` also accept the observability flags
``--trace FILE`` / ``--trace-format {jsonl,chrome}`` (span traces,
merged deterministically across worker processes; the chrome format
opens in Perfetto), ``--metrics-json FILE`` (labeled counter /
gauge / histogram snapshot), and ``--slow-query-ms MS`` (log solver
queries over the threshold with fingerprint, backend, and
refinement depth) — see :mod:`repro.obs`.

``batch``/``serve`` accept the fault-tolerance flags ``--retry-max N``
/ ``--retry-backoff-s S`` (re-dispatch jobs whose worker crashed or
timed out, with exponential backoff and deterministic jitter),
``--quarantine-after N`` (poison-job fuse), and ``--fault-plan FILE``
(chaos-testing fault injection; see :mod:`repro.faults`); ``submit
--health`` prints the daemon's liveness/readiness report.

- ``survey [-n N]`` — regenerate the §7.1 survey tables;
- ``smtlib PATTERN [-f FLAGS]`` — print the membership model as SMT-LIB;
- ``dot PATTERN`` — print the DFA of a classical regex as Graphviz DOT.
"""

from __future__ import annotations

import argparse
import sys


def _check_backend_spec(spec) -> int:
    """Validate a ``--backend`` spec up front; 0 ok, 2 on a bad spec."""
    if spec is None:
        return 0
    from repro.solver.backends import BackendError, make_backend

    try:
        make_backend(spec)
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _check_query_cache_flags(args) -> int:
    """A cap without a store would silently bound nothing; 0 ok, 2 bad."""
    if args.query_cache_max is not None and args.query_cache is None:
        print(
            "error: --query-cache-max requires --query-cache "
            "(there is no store to cap without one)",
            file=sys.stderr,
        )
        return 2
    return 0


def _resolve_backend(spec, query_cache, timeout=None, query_cache_max=None):
    """The backend argument for one-shot commands.

    Without ``--query-cache`` the spec string is handed through
    unchanged (downstream resolves it lazily).  With it, the backend is
    built here so the persistent query store is attached — implying a
    ``cached:`` level when the spec lacks one, since a store nobody
    consults would be pointless — and ``--query-cache-max`` caps the
    store with age-based GC.  ``timeout`` must mirror whatever the
    downstream consumer would have threaded into a lazy resolution, so
    adding the flag never changes solve semantics.
    """
    if query_cache is None:
        return spec
    from repro.solver.backends import make_backend

    spec = spec or "native"
    if not spec.startswith("cached:"):
        spec = "cached:" + spec
    return make_backend(
        spec,
        timeout=timeout,
        query_cache=query_cache,
        query_cache_max=query_cache_max,
    )


def _start_obs(args):
    """Configure tracing/metrics for a one-shot command, or ``None``.

    Returns the :class:`~repro.obs.export.ObsRun` whose ``finish()``
    writes the requested artifacts; with none of the flags set nothing
    is imported or configured (the strictly-disabled fast path).
    """
    if (
        getattr(args, "trace", None) is None
        and getattr(args, "metrics_json", None) is None
        and getattr(args, "slow_query_ms", None) is None
    ):
        return None
    from repro.obs.export import ObsRun

    return ObsRun.start(
        trace=args.trace,
        trace_format=args.trace_format,
        metrics_json=args.metrics_json,
        slow_query_ms=args.slow_query_ms,
    )


def _finish_obs(obs_run) -> None:
    """Write and announce the observability artifacts of a one-shot run."""
    if obs_run is None:
        return
    summary = obs_run.finish()
    if summary.trace_path:
        print(f"trace:   {summary.trace_path} ({summary.span_count} spans)")
    if summary.metrics_path:
        print(f"metrics: {summary.metrics_path}")
    if summary.slow_queries:
        worst = max(e.get("ms", 0.0) for e in summary.slow_queries)
        print(
            f"slow queries: {len(summary.slow_queries)} "
            f"(worst {worst:.1f}ms)"
        )


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.model import solve_input
    from repro.solver import SAT, UNSAT

    if _check_backend_spec(args.backend):
        return 2
    if _check_query_cache_flags(args):
        return 2
    if args.automata_cache:
        from repro.automata import configure_automata_cache

        configure_automata_cache(args.automata_cache)
    if args.backend:
        print(f"backend: {args.backend}")
    backend = _resolve_backend(
        args.backend, args.query_cache, query_cache_max=args.query_cache_max
    )
    obs_run = _start_obs(args)
    try:
        result, word, captures = solve_input(
            args.pattern, args.flags, backend=backend, negate=args.negate
        )
    except BaseException:
        if obs_run is not None:
            obs_run.abort()
        raise
    _finish_obs(obs_run)
    if result.status == UNSAT:
        print(
            "unsatisfiable (the pattern matches every input)"
            if args.negate else "unsatisfiable"
        )
        return 1
    if result.status != SAT:
        cause = result.unknown_cause
        print(f"unknown ({cause})" if cause else "unknown")
        return 1
    print(f"input:  {word!r}")
    for index in sorted(captures):
        value = captures[index]
        shown = "undefined" if value is None else repr(value)
        print(f"  C{index} = {shown}")
    return 0


def _cmd_exec(args: argparse.Namespace) -> int:
    from repro.regex import RegExp

    result = RegExp(args.pattern, args.flags).exec(args.subject)
    if result is None:
        print("no match")
        return 1
    print(f"match at {result.index}:")
    for index, value in enumerate(result):
        shown = "undefined" if value is None else repr(value)
        print(f"  [{index}] = {shown}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.dse import RegexSupportLevel, analyze
    from repro.dse.engine import EngineConfig

    if _check_backend_spec(args.backend):
        return 2
    if _check_query_cache_flags(args):
        return 2
    with open(args.file) as handle:
        source = handle.read()
    level = RegexSupportLevel[args.level.upper()]
    obs_run = _start_obs(args)
    try:
        result = analyze(
            source,
            level=level,
            max_tests=args.max_tests,
            time_budget=args.time_budget,
            backend=_resolve_backend(
                args.backend,
                args.query_cache,
                # what the engine would thread into a lazy spec resolution
                timeout=EngineConfig().solver_timeout,
                query_cache_max=args.query_cache_max,
            ),
            automata_cache=args.automata_cache,
        )
    except BaseException:
        if obs_run is not None:
            obs_run.abort()
        raise
    _finish_obs(obs_run)
    print(f"tests run:   {result.tests_run}")
    print(f"coverage:    {result.coverage:.1%} "
          f"({len(result.covered)}/{result.statement_count} statements)")
    print(f"queries:     {result.queries} ({result.sat_queries} SAT)")
    print(f"regex ops:   {result.regex_ops}")
    if result.failures:
        print("failures:")
        for failure in result.failures:
            print(f"  - {failure}")
    return 0 if not result.failures else 2


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.service import (
        BatchRunner,
        RunnerConfig,
        analyze_jobs_from_files,
        format_batch_report,
        survey_workload,
    )

    if _check_backend_spec(args.backend):
        return 2
    if _check_query_cache_flags(args):
        return 2
    if args.survey:
        jobs = survey_workload(
            n_packages=args.packages,
            seed=args.seed,
            shards=max(1, args.workers) * 4,
            solve_cap=args.solve_cap,
            backend=args.backend,
        )
    elif args.files:
        try:
            jobs = analyze_jobs_from_files(
                args.files,
                level=args.level,
                max_tests=args.max_tests,
                time_budget=args.time_budget,
                backend=args.backend,
            )
        except OSError as exc:
            print(f"batch: cannot read {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        print("batch: provide mini-JS FILEs or --survey", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan:
        with open(args.fault_plan) as handle:
            fault_plan = json.load(handle)
    runner = BatchRunner(
        RunnerConfig(
            workers=args.workers,
            job_timeout=args.job_timeout,
            use_cache=not args.no_cache,
            cache_size=args.cache_size,
            automata_cache=args.automata_cache,
            query_cache=args.query_cache,
            query_cache_max=args.query_cache_max,
            dedup=args.dedup,
            trace=args.trace,
            trace_format=args.trace_format,
            metrics_json=args.metrics_json,
            slow_query_ms=args.slow_query_ms,
            retry_max=args.retry_max,
            retry_backoff_s=args.retry_backoff_s,
            quarantine_after=args.quarantine_after,
            fault_plan=fault_plan,
        )
    )
    report = runner.run(jobs)
    print(format_batch_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_spec(), handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0 if all(r.status == "ok" for r in report.results) else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.conformance import register_planted_backend
    from repro.service import (
        BatchRunner,
        RunnerConfig,
        format_batch_report,
        fuzz_workload,
        merge_fuzz,
    )

    # The deliberately-unsound test backend must be resolvable before
    # --oracle-backend specs are validated.
    register_planted_backend()
    if _check_backend_spec(args.backend):
        return 2
    for spec in args.oracle_backend or []:
        if _check_backend_spec(spec):
            return 2
    if _check_query_cache_flags(args):
        return 2
    if args.artifacts_max is not None and args.artifacts is None:
        print(
            "error: --artifacts-max requires --artifacts "
            "(there is no store to cap without one)",
            file=sys.stderr,
        )
        return 2
    shards = args.shards
    if shards is None:
        shards = max(1, args.workers) * 2 if args.workers else 1
    jobs = fuzz_workload(
        budget=args.pairs,
        seed=args.seed,
        shards=shards,
        backend=args.backend,
        oracle_backends=args.oracle_backend or None,
        solver_timeout=args.solver_timeout,
        shrink=not args.no_shrink,
        artifact_dir=args.artifacts,
        artifact_max=args.artifacts_max,
        on_disagreement=args.on_disagreement,
    )
    fault_plan = None
    if args.fault_plan:
        with open(args.fault_plan) as handle:
            fault_plan = json.load(handle)
    runner = BatchRunner(
        RunnerConfig(
            workers=args.workers,
            job_timeout=args.job_timeout,
            automata_cache=args.automata_cache,
            query_cache=args.query_cache,
            query_cache_max=args.query_cache_max,
            trace=args.trace,
            trace_format=args.trace_format,
            metrics_json=args.metrics_json,
            slow_query_ms=args.slow_query_ms,
            retry_max=args.retry_max,
            retry_backoff_s=args.retry_backoff_s,
            quarantine_after=args.quarantine_after,
            fault_plan=fault_plan,
        )
    )
    report = runner.run(jobs)
    print(format_batch_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_spec(), handle, indent=2)
        print(f"\nwrote {args.json}")
    if not all(r.status == "ok" for r in report.results):
        return 1
    merged = merge_fuzz(report.of_kind("fuzz"))
    if args.fail_on_find and merged["disagreements"]:
        return 3
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.cli import run_serve

    if _check_query_cache_flags(args):
        return 2
    return run_serve(args)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.serve.cli import run_worker

    return run_worker(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.cli import run_submit

    if _check_backend_spec(args.backend):
        return 2
    return run_submit(args)


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.corpus import (
        CorpusConfig,
        format_table4,
        format_table5,
        generate_corpus,
        survey_packages,
    )

    corpus = generate_corpus(
        CorpusConfig(n_packages=args.packages, seed=args.seed)
    )
    result = survey_packages(corpus)
    print(format_table4(result))
    print()
    print(format_table5(result))
    return 0


def _cmd_smtlib(args: argparse.Namespace) -> int:
    from repro.constraints import StrVar
    from repro.constraints.printer import to_smtlib
    from repro.model.api import SymbolicRegExp

    regexp = SymbolicRegExp(args.pattern, args.flags)
    model = regexp.exec_model(StrVar("input"))
    formula = model.no_match_formula if args.negate else model.match_formula
    print(to_smtlib(formula))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.automata import dfa_for, to_dot
    from repro.automata.build import erase_captures
    from repro.regex import parse_regex

    node = erase_captures(parse_regex(args.pattern, args.flags).body)
    print(to_dot(dfa_for(node)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Sound ES6 regex semantics for dynamic symbolic execution "
            "(PLDI 2019 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    backend_help = (
        "solver backend spec: native, native?timeout=2, smtlib:z3, "
        "portfolio:native+smtlib, cached:native, ... (nestable)"
    )
    automata_cache_help = (
        "directory of the persistent automata compilation cache "
        "(compiled DFAs are reused across processes and invocations)"
    )
    query_cache_help = (
        "directory of the persistent solver query cache (definitive "
        "answers are replayed across processes and invocations; implies "
        "a cached: level when the spec lacks one)"
    )
    query_cache_max_help = (
        "cap the persistent query cache at N entries (age-based GC "
        "evicts the oldest entries past the cap)"
    )

    def _add_fault_flags(command) -> None:
        command.add_argument(
            "--retry-max", type=int, default=0, metavar="N",
            help="re-dispatch a job up to N times after a worker crash "
            "or timeout (exponential backoff; 0 = fail fast)",
        )
        command.add_argument(
            "--retry-backoff-s", type=float, default=0.25, metavar="S",
            help="base backoff before the first retry (doubles per "
            "attempt, deterministic jitter)",
        )
        command.add_argument(
            "--quarantine-after", type=int, default=None, metavar="N",
            help="quarantine a job after it kills N workers "
            "(default: retry-max + 1)",
        )
        command.add_argument(
            "--fault-plan", default=None, metavar="FILE",
            help="JSON fault-injection plan (chaos testing; "
            "faults are never active without one)",
        )

    def _add_obs_flags(command) -> None:
        command.add_argument(
            "--trace", default=None, metavar="FILE",
            help="write a span trace of the run to FILE",
        )
        command.add_argument(
            "--trace-format", default="jsonl",
            choices=["jsonl", "chrome"],
            help="trace file format: jsonl (one span per line) or "
            "chrome (trace-event JSON, viewable in Perfetto/about:tracing)",
        )
        command.add_argument(
            "--metrics-json", default=None, metavar="FILE",
            help="write the merged metrics registry snapshot to FILE",
        )
        command.add_argument(
            "--slow-query-ms", type=float, default=None, metavar="MS",
            help="log solver queries slower than MS milliseconds "
            "(with fingerprint, backend, refinement depth)",
        )

    solve = sub.add_parser("solve", help="find a (non-)matching input")
    solve.add_argument("pattern")
    solve.add_argument("-f", "--flags", default="")
    solve.add_argument("--negate", action="store_true")
    solve.add_argument("--backend", default=None, help=backend_help)
    solve.add_argument(
        "--automata-cache", default=None, help=automata_cache_help
    )
    solve.add_argument(
        "--query-cache", default=None, help=query_cache_help
    )
    solve.add_argument(
        "--query-cache-max", type=int, default=None,
        help=query_cache_max_help,
    )
    _add_obs_flags(solve)
    solve.set_defaults(fn=_cmd_solve)

    exec_ = sub.add_parser("exec", help="concrete ES6 exec")
    exec_.add_argument("pattern")
    exec_.add_argument("subject")
    exec_.add_argument("-f", "--flags", default="")
    exec_.set_defaults(fn=_cmd_exec)

    analyze = sub.add_parser("analyze", help="DSE of a mini-JS file")
    analyze.add_argument("file")
    analyze.add_argument(
        "--level",
        default="refined",
        choices=["concrete", "model", "captures", "refined"],
    )
    analyze.add_argument("--max-tests", type=int, default=50)
    analyze.add_argument("--time-budget", type=float, default=30.0)
    analyze.add_argument("--backend", default=None, help=backend_help)
    analyze.add_argument(
        "--automata-cache", default=None, help=automata_cache_help
    )
    analyze.add_argument(
        "--query-cache", default=None, help=query_cache_help
    )
    analyze.add_argument(
        "--query-cache-max", type=int, default=None,
        help=query_cache_max_help,
    )
    _add_obs_flags(analyze)
    analyze.set_defaults(fn=_cmd_analyze)

    batch = sub.add_parser(
        "batch", help="run many analyses across a worker pool"
    )
    batch.add_argument("files", nargs="*", help="mini-JS programs")
    batch.add_argument(
        "--survey",
        action="store_true",
        help="run the synthetic-corpus survey workload instead of FILEs",
    )
    batch.add_argument("-n", "--packages", type=int, default=200)
    batch.add_argument("--seed", type=int, default=1909)
    batch.add_argument(
        "--solve-cap",
        type=int,
        default=48,
        help="max solve jobs derived from survey regex literals",
    )
    batch.add_argument(
        "-w",
        "--workers",
        type=int,
        default=2,
        help="worker processes (0 = run inline)",
    )
    batch.add_argument("--job-timeout", type=float, default=300.0)
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the solver query cache",
    )
    batch.add_argument("--cache-size", type=int, default=4096)
    batch.add_argument(
        "--level",
        default="refined",
        choices=["concrete", "model", "captures", "refined"],
    )
    batch.add_argument("--max-tests", type=int, default=40)
    batch.add_argument("--time-budget", type=float, default=10.0)
    batch.add_argument("--backend", default=None, help=backend_help)
    batch.add_argument(
        "--automata-cache", default=None, help=automata_cache_help
    )
    batch.add_argument(
        "--query-cache", default=None, help=query_cache_help
    )
    batch.add_argument(
        "--query-cache-max", type=int, default=None,
        help=query_cache_max_help,
    )
    batch.add_argument(
        "--dedup",
        action="store_true",
        help="coalesce jobs posing identical canonical queries into "
        "single-flight executions before dispatch",
    )
    batch.add_argument("--json", help="also write the report as JSON")
    _add_fault_flags(batch)
    _add_obs_flags(batch)
    batch.set_defaults(fn=_cmd_batch)

    fuzz = sub.add_parser(
        "fuzz",
        help="conformance-fuzz the matcher against solver backends",
    )
    fuzz.add_argument(
        "-n", "--pairs", type=int, default=50,
        help="regex/input pairs to generate (the campaign budget)",
    )
    fuzz.add_argument("--seed", type=int, default=1909)
    fuzz.add_argument("--backend", default=None, help=backend_help)
    fuzz.add_argument(
        "--oracle-backend", action="append", default=None,
        metavar="SPEC",
        help="a solver decider for the differential oracle (repeat "
        "for several; default: --backend or native; 'planted:' is the "
        "deliberately-unsound harness-test backend)",
    )
    fuzz.add_argument(
        "--solver-timeout", type=float, default=2.0,
        help="per-check solver budget in seconds (UNKNOWN tolerated)",
    )
    fuzz.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="persist shrunk disagreement artifacts under DIR "
        "(deduped by canonical fingerprint)",
    )
    fuzz.add_argument(
        "--artifacts-max", type=int, default=None, metavar="N",
        help="cap the artifact store at N entries (oldest-mtime GC)",
    )
    fuzz.add_argument(
        "--on-disagreement", default="collect",
        choices=["collect", "raise"],
        help="collect: triage the find and keep fuzzing (default); "
        "raise: fail the job on the first contradiction",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debug minimization of disagreements",
    )
    fuzz.add_argument(
        "--fail-on-find", action="store_true",
        help="exit 3 when any disagreement was found (CI gate)",
    )
    fuzz.add_argument(
        "-w", "--workers", type=int, default=0,
        help="worker processes (0 = run inline)",
    )
    fuzz.add_argument(
        "--shards", type=int, default=None,
        help="split the budget into this many fuzz jobs "
        "(default: 2 per worker, 1 inline)",
    )
    fuzz.add_argument("--job-timeout", type=float, default=600.0)
    fuzz.add_argument(
        "--automata-cache", default=None, help=automata_cache_help
    )
    fuzz.add_argument(
        "--query-cache", default=None, help=query_cache_help
    )
    fuzz.add_argument(
        "--query-cache-max", type=int, default=None,
        help=query_cache_max_help,
    )
    fuzz.add_argument("--json", help="also write the report as JSON")
    _add_fault_flags(fuzz)
    _add_obs_flags(fuzz)
    fuzz.set_defaults(fn=_cmd_fuzz)

    serve = sub.add_parser(
        "serve", help="run the long-lived analysis daemon"
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a unix socket at PATH",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind host (with --port)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="listen on a TCP port (0 = pick one)",
    )
    serve.add_argument(
        "-w", "--workers", type=int, default=2,
        help="worker processes (0 = run jobs inline)",
    )
    serve.add_argument("--job-timeout", type=float, default=300.0)
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the solver query cache",
    )
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument(
        "--automata-cache", default=None, help=automata_cache_help
    )
    serve.add_argument(
        "--query-cache", default=None, help=query_cache_help
    )
    serve.add_argument(
        "--query-cache-max", type=int, default=None,
        help=query_cache_max_help,
    )
    serve.add_argument(
        "--max-queue", type=int, default=128,
        help="admission bound: queued jobs beyond this are rejected "
        "with an explicit 'overloaded' frame",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None,
        help="jobs dispatched into the pool at once (default: workers)",
    )
    serve.add_argument(
        "--no-single-flight", action="store_true",
        help="disable cross-client coalescing and replay of identical jobs",
    )
    serve.add_argument(
        "--cluster", action="store_true",
        help="act as the fleet coordinator: accept worker-node "
        "registrations and shard jobs across them under leases "
        "(falls back to the local pool when no workers are healthy)",
    )
    serve.add_argument(
        "--heartbeat-s", type=float, default=2.0, metavar="S",
        help="heartbeat interval assigned to worker nodes (--cluster)",
    )
    serve.add_argument(
        "--heartbeat-miss", type=int, default=3, metavar="N",
        help="missed heartbeats before a node is declared dead and "
        "its leases re-dispatched (--cluster)",
    )
    _add_fault_flags(serve)
    _add_obs_flags(serve)
    serve.set_defaults(fn=_cmd_serve)

    worker = sub.add_parser(
        "worker", help="run one cluster worker node (joins a --cluster "
        "serve daemon and executes leased jobs)"
    )
    worker.add_argument(
        "--join", required=True, metavar="ADDR",
        help="coordinator address: unix socket path (or unix:PATH) "
        "or HOST:PORT",
    )
    worker.add_argument(
        "--capacity", type=int, default=1,
        help="concurrent leases this node accepts",
    )
    worker.add_argument(
        "-w", "--workers", type=int, default=0,
        help="local worker processes (0 = run jobs inline on "
        "capacity-many threads)",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable node name (default: coordinator-assigned)",
    )
    worker.add_argument("--job-timeout", type=float, default=300.0)
    worker.add_argument(
        "--automata-cache", default=None, help=automata_cache_help
    )
    worker.add_argument(
        "--query-cache", default=None, help=query_cache_help
    )
    worker.add_argument(
        "--no-remote-cache", action="store_true",
        help="do not read caches through the coordinator's stores",
    )
    _add_fault_flags(worker)
    worker.set_defaults(fn=_cmd_worker)

    submit = sub.add_parser(
        "submit", help="submit jobs to a running serve daemon"
    )
    submit.add_argument(
        "files", nargs="*",
        help="job-spec .json files (object or list) or mini-JS programs",
    )
    submit.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon unix socket path",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument(
        "--port", type=int, default=None, help="daemon TCP port"
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="socket timeout while waiting on results",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block for all results and print a batch report (default)",
    )
    submit.add_argument(
        "--stream", action="store_true",
        help="print each result as a JSON line the moment it lands",
    )
    submit.add_argument(
        "--stats", action="store_true",
        help="print the daemon's stats (scheduler gauges + obs snapshot)",
    )
    submit.add_argument(
        "--health", action="store_true",
        help="print the daemon's health report (liveness, readiness, "
        "worker-pool state); exit 0 iff ready",
    )
    submit.add_argument(
        "--level", default="refined",
        choices=["concrete", "model", "captures", "refined"],
        help="analysis level for mini-JS FILEs",
    )
    submit.add_argument("--max-tests", type=int, default=40)
    submit.add_argument("--time-budget", type=float, default=10.0)
    submit.add_argument("--backend", default=None, help=backend_help)
    submit.add_argument(
        "--wait-on-overload", type=float, default=0.0, metavar="S",
        help="on an 'overloaded' rejection, back off per the daemon's "
        "retry_after hint and retry for up to S seconds before "
        "counting the job as rejected (default 0 = fail fast)",
    )
    submit.add_argument("--json", help="also write the report as JSON")
    submit.set_defaults(fn=_cmd_submit)

    survey = sub.add_parser("survey", help="regenerate Tables 4/5")
    survey.add_argument("-n", "--packages", type=int, default=4000)
    survey.add_argument("--seed", type=int, default=1909)
    survey.set_defaults(fn=_cmd_survey)

    smtlib = sub.add_parser("smtlib", help="print the model as SMT-LIB")
    smtlib.add_argument("pattern")
    smtlib.add_argument("-f", "--flags", default="")
    smtlib.add_argument("--negate", action="store_true")
    smtlib.set_defaults(fn=_cmd_smtlib)

    dot = sub.add_parser("dot", help="print a classical regex's DFA")
    dot.add_argument("pattern")
    dot.add_argument("-f", "--flags", default="")
    dot.set_defaults(fn=_cmd_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

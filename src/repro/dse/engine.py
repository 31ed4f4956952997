"""The DSE driver: generational search over mini-JS programs (§6.2).

One :class:`DseEngine` run plays the role of ExpoSE analysing one
package: execute a test case concretely, collect the path condition,
flip each clause, solve (through CEGAR at the full support level), and
enqueue the discovered inputs via the CUPA scheduler.  Coverage is
statement coverage over parse-time statement ids, the paper's metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.constraints import Formula, StrVar, conj
from repro.dse.astnodes import Program
from repro.dse.interpreter import (
    BranchRecord,
    Interpreter,
    RegexSupportLevel,
    Trace,
)
from repro.dse.parser import parse_program
from repro.dse.strategy import CupaScheduler, QueuedTest
from repro.model.cegar import CegarSolver
from repro.solver import SAT, Solver, SolverStats
from repro.solver.backends import make_backend
from repro.solver.stats import WORK_COUNTERS, QueryRecord


@dataclass
class EngineConfig:
    level: RegexSupportLevel = RegexSupportLevel.REFINED
    max_tests: int = 60
    time_budget: float = 30.0  # seconds
    refinement_limit: int = 20
    solver_timeout: float = 3.0
    max_flips_per_trace: int = 24
    seed: int = 1909
    #: Solver backend spec (``repro.solver.backends.make_backend``) used
    #: when no explicit ``solver_factory``/``backend`` argument is given.
    backend: Optional[str] = None
    #: Directory for the persistent automata compilation cache
    #: (``repro.automata.configure_automata_cache``); ``None`` keeps the
    #: in-memory interner only.  Process-global once attached.
    automata_cache: Optional[str] = None


@dataclass
class EngineResult:
    """Aggregated outcome of one analysis run (one 'package')."""

    covered: Set[int] = field(default_factory=set)
    statement_count: int = 0
    tests_run: int = 0
    queries: int = 0
    sat_queries: int = 0
    failures: List[str] = field(default_factory=list)
    stats: SolverStats = field(default_factory=SolverStats)
    regex_ops: int = 0
    concretizations: int = 0
    wall_time: float = 0.0

    @property
    def coverage(self) -> float:
        if self.statement_count == 0:
            return 0.0
        return len(self.covered) / self.statement_count

    @property
    def tests_per_minute(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return self.tests_run * 60.0 / self.wall_time


def default_solver_factory(timeout: float) -> Solver:
    """The stock solver construction (no query cache)."""
    return Solver(timeout=timeout, stats=None)


class DseEngine:
    """Dynamic symbolic execution of one mini-JS program.

    The solver is chosen through the pluggable backend API: ``backend``
    (or ``config.backend``) is any spec accepted by
    :func:`repro.solver.backends.make_backend` — ``native``,
    ``smtlib:z3``, ``portfolio:native+smtlib``, ``cached:native``, or an
    already-built backend object.  The backend is built once and reused
    for every flipped branch of the run, with per-backend tallies
    recorded into ``result.stats``.

    ``solver_factory`` remains the service layer's lower-level injection
    seam (it wins over ``backend``): called once with
    ``timeout=config.solver_timeout``, e.g. to hand in a
    :class:`repro.solver.backends.CachedBackend` sharing one query cache
    across runs.
    """

    def __init__(
        self,
        source: str | Program,
        config: Optional[EngineConfig] = None,
        solver_factory: Optional[Callable[..., Solver]] = None,
        backend: Optional[str] = None,
    ):
        self.program = (
            source if isinstance(source, Program) else parse_program(source)
        )
        self.config = config or EngineConfig()
        self.result = EngineResult(
            statement_count=self.program.statement_count,
            stats=SolverStats(),
        )
        if solver_factory is not None:
            self._base_solver = solver_factory(
                timeout=self.config.solver_timeout
            )
            binder = getattr(self._base_solver, "bind_stats", None)
            if callable(binder):
                binder(self.result.stats)
        else:
            self._base_solver = make_backend(
                backend or self.config.backend,
                timeout=self.config.solver_timeout,
                stats=self.result.stats,
            )
        self._cegar = CegarSolver(
            solver=self._base_solver,
            refinement_limit=self.config.refinement_limit,
            stats=self.result.stats,
        )
        self._scheduler = CupaScheduler(self.config.seed)
        self._explored: Set[Tuple] = set()
        self._seen_inputs: Set[Tuple] = set()

    # -- main loop ---------------------------------------------------------

    def run(self) -> EngineResult:
        from repro.automata import (
            automata_cache_counters,
            configure_automata_cache,
        )
        from repro.automata.cache import counters_delta

        if self.config.automata_cache:
            configure_automata_cache(self.config.automata_cache)
        automata0 = automata_cache_counters()
        deadline = time.monotonic() + self.config.time_budget
        # The factory may hand us a (possibly shared) caching solver;
        # snapshot its counters so the run's stats report only its own
        # hits and misses.
        hits0 = getattr(self._base_solver, "hits", 0)
        misses0 = getattr(self._base_solver, "misses", 0)
        self._enqueue(QueuedTest(inputs={}, origin_site=-1))
        with obs.span(
            "dse:run", level=self.config.level.name
        ) as run_span:
            while (
                self._scheduler
                and self.result.tests_run < self.config.max_tests
                and time.monotonic() < deadline
            ):
                test = self._scheduler.pop()
                trace = self._execute(test.inputs)
                self._expand(trace, test, deadline)
            run_span.set(
                tests=self.result.tests_run,
                queries=self.result.queries,
                covered=len(self.result.covered),
            )
        self.result.wall_time = (
            self.config.time_budget - max(0.0, deadline - time.monotonic())
        )
        if getattr(self._base_solver, "stats", None) is not self.result.stats:
            # A caching solver whose ``stats`` sink is already our stats
            # object records its hits/misses itself (``record_cache``);
            # the snapshot diff covers every other caching solver.
            self.result.stats.cache_hits += (
                getattr(self._base_solver, "hits", 0) - hits0
            )
            self.result.stats.cache_misses += (
                getattr(self._base_solver, "misses", 0) - misses0
            )
        self.result.stats.record_automata(
            counters_delta(automata0, automata_cache_counters())
        )
        return self.result

    def _execute(self, inputs: Dict[str, str]) -> Trace:
        interpreter = Interpreter(
            self.program, inputs, level=self.config.level
        )
        with obs.span("dse:execute", inputs=len(inputs)) as exec_span:
            trace = interpreter.run()
            exec_span.set(branches=len(trace.branches))
        self.result.tests_run += 1
        self.result.covered |= trace.covered
        self.result.regex_ops += trace.regex_ops
        self.result.concretizations += trace.concretizations
        for failure in trace.failures:
            message = f"{failure} (inputs: {inputs!r})"
            if message not in self.result.failures:
                self.result.failures.append(message)
        return trace

    # -- clause flipping -----------------------------------------------------

    def _expand(
        self, trace: Trace, origin: QueuedTest, deadline: float
    ) -> None:
        branches = trace.branches[: self.config.max_flips_per_trace]
        for i, branch in enumerate(branches):
            if time.monotonic() > deadline:
                return
            signature = self._signature(branches, i)
            if signature in self._explored:
                continue
            self._explored.add(signature)
            model = self._solve_flip(branches, i)
            if model is None:
                continue
            inputs = self._extract_inputs(model, origin.inputs, trace)
            key = tuple(sorted(inputs.items()))
            if key in self._seen_inputs:
                continue
            self._seen_inputs.add(key)
            self._enqueue(
                QueuedTest(
                    inputs=inputs,
                    origin_site=branch.site,
                    generation=origin.generation + 1,
                )
            )

    def _signature(
        self, branches: Sequence[BranchRecord], flip_index: int
    ) -> Tuple:
        prefix = tuple(
            (b.site, b.polarity) for b in branches[:flip_index]
        )
        flip = branches[flip_index]
        return (prefix, flip.site, not flip.polarity)

    def _solve_flip(
        self, branches: Sequence[BranchRecord], flip_index: int
    ):
        clauses: List[Formula] = [
            b.taken for b in branches[:flip_index]
        ]
        clauses.append(branches[flip_index].flipped)
        constraints = []
        for b in branches[:flip_index]:
            constraints.extend(b.taken_constraints)
        constraints.extend(branches[flip_index].flipped_constraints)

        problem = conj(clauses)
        self.result.queries += 1
        with obs.span(
            "dse:flip",
            site=branches[flip_index].site,
            depth=flip_index,
        ) as flip_span:
            if self.config.level == RegexSupportLevel.REFINED:
                solved = self._cegar.solve(problem, constraints)
                flip_span.set(status=solved.status)
                if solved.status != SAT:
                    return None
                self.result.sat_queries += 1
                return solved.model
            # Lower support levels: raw solve, models taken at face
            # value (the paper's pre-refinement behaviour — spurious
            # capture assignments may produce inputs that do not flip
            # the branch).
            started = time.perf_counter()
            raw = self._base_solver.solve(problem)
            self.result.stats.record(
                QueryRecord(
                    seconds=time.perf_counter() - started,
                    status=raw.status,
                    had_regex=bool(constraints),
                    had_captures=any(
                        len(c.captures) > 1 for c in constraints
                    ),
                    unknown_cause=raw.unknown_cause,
                    **{name: getattr(raw, name) for name in WORK_COUNTERS},
                )
            )
            flip_span.set(status=raw.status)
            if raw.status != SAT:
                return None
            self.result.sat_queries += 1
            return raw.model

    def _extract_inputs(
        self, model, base_inputs: Dict[str, str], trace: Trace
    ) -> Dict[str, str]:
        inputs = dict(base_inputs)
        for var in model.assignment:
            if var.name.startswith("in$"):
                value = model.assignment[var]
                if isinstance(value, str):
                    inputs[var.name[3:]] = value
        return inputs

    def _enqueue(self, test: QueuedTest) -> None:
        self._scheduler.add(test)


def analyze(
    source: str,
    level: RegexSupportLevel = RegexSupportLevel.REFINED,
    max_tests: int = 60,
    time_budget: float = 30.0,
    seed: int = 1909,
    solver_factory: Optional[Callable[..., Solver]] = None,
    backend: Optional[str] = None,
    automata_cache: Optional[str] = None,
) -> EngineResult:
    """One-call analysis of a mini-JS program — the library entry point."""
    config = EngineConfig(
        level=level,
        max_tests=max_tests,
        time_budget=time_budget,
        seed=seed,
        backend=backend,
        automata_cache=automata_cache,
    )
    return DseEngine(source, config, solver_factory=solver_factory).run()

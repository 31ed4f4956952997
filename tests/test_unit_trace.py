"""Unit-trace parity: a speed-up of the native solver must do the same work.

Verdicts depend on the work units a query spends, not on the clock
(``repro.solver.core.Budget``).  A change that only makes each unit
cheaper therefore keeps, query for query, the status, the UNKNOWN cause
and the unit count.  This file pins that for the paper's Table 7 ladder
as the repository benchmark runs it: ``generate_population(20, 1909)``
× the four regex support levels through ``DseEngine`` with
``max_tests=8`` and a solver timeout of 0.5 s.  The solver's clock is
frozen, as in ``tests/test_solver_budget.py``, so the wall-clock
backstop never fires and only the budget can end a query.

The reference ``tests/data/unit_trace_table7.json`` holds, for each
package and level, the ``(status, unknown_cause, units)`` of every
solver query in order.  It is regenerated only by a change that means
to change the solver's work (a new pruning rule, a different charge):

    PYTHONPATH=src python tests/test_unit_trace.py

run on the commit *before* the change shows what the trace was; run
after it, ``git diff tests/data`` shows every query that moved, and the
commit that regenerates the file says why each moved.

The second half cross-checks the incremental split enumeration of
``_Core._enumerate_splits`` against the naive loop it replaced, kept
here as the reference: on random split problems both yield the same
assignments in the same order and leave the budget at the same
``spent``, also when the allowance runs out mid-enumeration.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
import types
from typing import Dict, Iterator, List, Optional

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "data", "unit_trace_table7.json")

POPULATION = 20
INPUT_SEED = 1909
MAX_TESTS = 8
SOLVER_TIMEOUT = 0.5


def _frozen_clock():
    """``time`` for the solver core with ``monotonic`` stopped."""
    return types.SimpleNamespace(
        monotonic=lambda: 1000.0, perf_counter=time.perf_counter
    )


def unit_trace() -> Dict[str, List[list]]:
    """``{"package/LEVEL": [[status, unknown_cause, units], ...]}`` of
    one Table 7 ladder pass, with the solver's clock frozen by the
    caller."""
    from repro.dse import DseEngine, EngineConfig
    from repro.eval import generate_population
    from repro.eval.breakdown import LEVELS

    trace: Dict[str, List[list]] = {}
    for name, source in generate_population(POPULATION, INPUT_SEED):
        for _, level in LEVELS:
            config = EngineConfig(
                level=level,
                max_tests=MAX_TESTS,
                time_budget=1e6,
                solver_timeout=SOLVER_TIMEOUT,
            )
            result = DseEngine(source, config).run()
            trace[f"{name}/{level.name}"] = [
                [record.status, record.unknown_cause, record.units]
                for record in result.stats.queries
            ]
    return trace


# -- the Table 7 trace ---------------------------------------------------------


def test_table7_unit_trace_matches_the_reference(monkeypatch, clean_automata):
    from repro.solver import core as solver_core

    monkeypatch.setattr(solver_core, "time", _frozen_clock())
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    trace = unit_trace()
    assert sorted(trace) == sorted(reference)
    moved = [
        f"{key} query {i}: {want} -> {got}"
        for key in reference
        for i, (want, got) in enumerate(
            zip(reference[key], trace[key] + [None] * len(reference[key]))
        )
        if want != got
    ] + [
        f"{key}: {len(trace[key])} queries, reference {len(reference[key])}"
        for key in reference
        if len(trace[key]) != len(reference[key])
    ]
    assert not moved, "\n".join(moved[:20])


# -- incremental split enumeration against the naive loop ---------------------


def naive_enumerate_splits(core, value, parts, model) -> Iterator[dict]:
    """``_Core._enumerate_splits`` as it was before it stepped its
    automata incrementally: every candidate ``value[pos:end]`` is a
    membership test from the start state."""
    from repro.constraints import StrConst, Undef
    from repro.constraints.terms import UNDEF

    budget = core.budget
    automata: dict = {}

    def part_dfa(rep):
        if rep not in automata:
            automata[rep] = core._automaton_for(core._class(rep))
        return automata[rep]

    def rec(pos, idx, chosen):
        budget.spent += 1
        if idx == len(parts):
            if pos == len(value):
                yield dict(chosen)
            return
        part = parts[idx]
        if isinstance(part, StrConst):
            if value.startswith(part.value, pos):
                yield from rec(pos + len(part.value), idx + 1, chosen)
            return
        if isinstance(part, Undef):
            return
        rep = core._find(part)
        cls = core._class(rep)
        fixed: Optional[str] = None
        if rep in chosen:
            fixed = chosen[rep]
        elif cls.const is not None:
            fixed = cls.const
        elif rep in model:
            fixed = model[rep]
        if fixed is not None:
            if fixed is not UNDEF and value.startswith(fixed, pos):
                yield from rec(pos + len(fixed), idx + 1, chosen)
            return
        dfa = part_dfa(rep)
        for end in range(pos, len(value) + 1):
            budget.spent += 1
            if budget.exhausted():
                return
            sub = value[pos:end]
            if sub in cls.excluded:
                continue
            if dfa is not None:
                budget.spent += len(sub)
                if not dfa.accepts_word(sub):
                    continue
            chosen[rep] = sub
            yield from rec(end, idx + 1, chosen)
            del chosen[rep]

    yield from rec(0, 0, {})


#: Memberships a split part may carry: plain DFAs, ones whose language
#: dies early, an empty one, and wide alternations (lazy unions, and
#: per-option complements when negated).
REGEXES = [
    "a*", "(ab)*", "[ab]+c?", "a?b?c?", "c", "b[^c]*", "(?:a|b|c|ab|ba)",
    "(?:aa|bb|cc|abc|ca)*", "[^a]*", "(?:a|bc|cab|b)", "[]",
]


def _split_problem(rng: random.Random):
    """A core with up to three constrained variables, split parts over
    them, a target word and a partial model."""
    from repro.constraints import Eq, InRe, Not, StrConst, StrVar
    from repro.regex import parse_regex
    from repro.solver.core import Budget, Solver, _Core
    from repro.solver.model import Model

    names = [StrVar(f"v{i}") for i in range(3)]
    literals = []
    for var in names:
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            membership = InRe(var, parse_regex(rng.choice(REGEXES)).body)
            literals.append(membership if rng.random() < 0.8 else Not(membership))
        for _ in range(rng.choice([0, 0, 1, 3])):
            word = "".join(rng.choice("abc") for _ in range(rng.randint(0, 3)))
            literals.append(Not(Eq(var, StrConst(word))))
    core = _Core(Solver(timeout=0.5))
    core.budget = Budget(0.5)
    assert core._load(literals)
    parts = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.2:
            parts.append(StrConst(rng.choice(["a", "b", "ab", ""])))
        else:
            parts.append(rng.choice(names))
    value = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
    model = Model()
    if rng.random() < 0.3:
        model.set(rng.choice(names), rng.choice(["", "a", "b", None]))
    return core, tuple(parts), value, model


def _run(core, enumerate_splits, value, parts, model, allowance):
    from repro.solver.core import Budget

    core.budget = Budget(0.5)
    core.budget.allowance = allowance
    assignments = list(enumerate_splits(core, value, parts, model))
    return assignments, core.budget.spent, core.budget.cause


@pytest.mark.parametrize("seed", range(8))
def test_incremental_splits_match_the_naive_loop(monkeypatch, seed):
    from repro.solver import core as solver_core
    from repro.solver.core import _Core

    monkeypatch.setattr(solver_core, "time", _frozen_clock())
    rng = random.Random(seed)
    lazy = exhausted = 0
    for _ in range(150):
        core, parts, value, model = _split_problem(rng)
        lazy += any(
            type(core._automaton_for(cls)).__name__.startswith("Lazy")
            for cls in core._live()
        )
        full = _run(core, naive_enumerate_splits, value, parts, model, 10**9)
        core._split_steppers = {}
        assert _run(
            core, _Core._enumerate_splits, value, parts, model, 10**9
        ) == full
        # An allowance that runs out part-way through.
        allowance = rng.randint(0, max(full[1], 1))
        want = _run(core, naive_enumerate_splits, value, parts, model, allowance)
        core._split_steppers = {}
        got = _run(core, _Core._enumerate_splits, value, parts, model, allowance)
        assert got == want
        exhausted += want[2] is not None
    # The problems reach the cases the enumeration distinguishes.
    assert lazy and exhausted


def main() -> None:
    from repro.solver import core as solver_core

    solver_core.time = _frozen_clock()
    trace = unit_trace()
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as handle:
        handle.write("{\n")
        items = sorted(trace.items())
        for i, (key, queries) in enumerate(items):
            comma = "," if i + 1 < len(items) else ""
            handle.write(f"  {json.dumps(key)}: {json.dumps(queries)}{comma}\n")
        handle.write("}\n")
    queries = sum(len(q) for q in trace.values())
    unknown = sum(1 for q in trace.values() for s, _, _ in q if s == "unknown")
    print(f"wrote {REFERENCE}: {queries} queries, {unknown} unknown")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    main()

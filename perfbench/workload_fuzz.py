"""``fuzz``: a conformance campaign through the differential oracle.

The campaign is ``generate_pairs(PAIRS, input_seed)``; ``--seed``
shuffles the order its pairs are checked in.  Each word of each pair is
one ``DifferentialOracle(("native",)).check``.  No DSE and no CEGAR run:
the regex parser, the ES6 matcher, model translation, automata
membership and the solver decide every check.  One pass over the
campaign is the fixed work; passes repeat while the window has room.

Each check is timed on the wall clock and on the process' CPU clock.
``op_p50_ms`` is the median CPU time.  The median check is about 1.5 ms
of pure computation, and the shared host takes the process off its core
in stretches of seconds to minutes, so the median wall time followed
the host's load rather than the program.  The wall-clock figures are
printed as ``check_p50_ms`` and ``check_tail_ms``.
"""

from __future__ import annotations

import random
import signal
import time
from typing import List

from measure import Outcome, median, summarise

#: Pairs in the campaign: one pass takes about 10 s on a 2-core box.
PAIRS = 100
#: Oracle solver timeout.  The fuzz CLI default is 2 s, where the
#: undecided checks (about one in seven) hold over 90% of a campaign's
#: time and one pass would take nearly four minutes.  At 0.1 s they hold about
#: 85%, and the median check is a decided one.
ORACLE_TIMEOUT = 0.1
#: A check still running after this long is stopped and counted as
#: undecided.  The solver checks its deadline in its candidate search but
#: not while splitting concatenations, where some generated patterns (the
#: one that hits depends on the process' string hash seed) run for
#: minutes past the oracle timeout.
OVERRUN_S = 1.0


class _Overrun(BaseException):
    """Raised into a check that outlived :data:`OVERRUN_S`.

    A ``BaseException`` so the oracle's ``except Exception`` around the
    solver does not turn it into an ``error`` verdict.
    """


def _interrupt(signum, frame):
    raise _Overrun()


def _setup(seed: int, input_seed: int):
    from repro.conformance import DifferentialOracle, generate_pairs

    pairs = generate_pairs(PAIRS, input_seed)
    random.Random(seed).shuffle(pairs)
    return pairs, DifferentialOracle(("native",), timeout=ORACLE_TIMEOUT)


def run(seed: int, seconds: float, tracer=None, input_seed: int = 1909) -> Outcome:
    outcome = Outcome()
    setups = []
    for _ in range(3):
        started = time.perf_counter()
        pairs, oracle = _setup(seed, input_seed)
        setups.append(time.perf_counter() - started)

    check_seconds: List[float] = []
    check_cpu: List[float] = []
    passes: List[float] = []
    verdicts = {}
    unknown_s = 0.0
    skipped = overruns = 0
    previous = signal.signal(signal.SIGALRM, _interrupt)
    window_start = time.perf_counter()
    try:
        while True:
            pass_start = time.perf_counter()
            for pair in pairs:
                for word in pair.inputs:
                    if tracer is not None:
                        tracer.context = f"{pair.seed}/{word!r}"
                    started = time.perf_counter()
                    cpu_started = time.process_time()
                    try:
                        signal.setitimer(signal.ITIMER_REAL, OVERRUN_S)
                        try:
                            checked = oracle.check(
                                pair.pattern, pair.flags, word, seed=pair.seed
                            )
                        finally:
                            # The timer is one-shot: once it has fired,
                            # the _Overrun is caught below.
                            signal.setitimer(signal.ITIMER_REAL, 0)
                    except _Overrun:
                        checked = "overrun"
                    except Exception as exc:  # a crashing check is a failure
                        outcome.attempted += 1
                        outcome.fail(f"/{pair.pattern}/{pair.flags} on {word!r}: {exc!r}")
                        continue
                    took = time.perf_counter() - started
                    cpu = time.process_time() - cpu_started
                    if checked is None:
                        skipped += 1
                        continue
                    outcome.attempted += 1
                    check_seconds.append(took)
                    check_cpu.append(cpu)
                    if checked == "overrun":
                        overruns += 1
                        unknown_s += took
                        continue
                    verdict = checked.verdicts.get("native")
                    verdicts[verdict] = verdicts.get(verdict, 0) + 1
                    if verdict == "error":
                        outcome.fail(f"/{pair.pattern}/{pair.flags} on {word!r}: error verdict")
                    elif verdict not in ("match", "nomatch"):
                        unknown_s += took
                    if checked.disagreement is not None:
                        outcome.fail(
                            f"/{pair.pattern}/{pair.flags} on {word!r}: "
                            f"disagreement {checked.verdicts}"
                        )
            passes.append(time.perf_counter() - pass_start)
            if time.perf_counter() - window_start + passes[-1] > seconds:
                break
    finally:
        signal.signal(signal.SIGALRM, previous)

    decided = verdicts.get("match", 0) + verdicts.get("nomatch", 0)
    summarise(
        outcome,
        setup_s=setups,
        batch_s=passes,
        ops=len(check_seconds),
        op_seconds=check_cpu,
        busy_s=sum(check_seconds),
        decided=decided,
        decidable=len(check_seconds),
    )
    outcome.note("checks_per_s", outcome.metrics["ops_per_s"], "1/s")
    outcome.timing("check", check_seconds)
    outcome.note("check_cpu_p50_ms", median(check_cpu) * 1000.0, "ms",
                 "process CPU time (op_p50_ms)")
    outcome.note("passes", len(passes), "count", f"{PAIRS} pairs each")
    outcome.note("skipped", skipped, "count")
    outcome.note("overruns", overruns, "count", f"checks stopped after {OVERRUN_S} s")

    layer = outcome.layer
    layer["conformance.undecided"] = len(check_seconds) - decided
    layer["conformance.overruns"] = overruns
    layer["solver.query.sat"] = verdicts.get("match", 0)
    layer["solver.query.unsat"] = verdicts.get("nomatch", 0)
    layer["solver.query.unknown"] = verdicts.get("unknown", 0)
    layer["solver.unknown_s"] = unknown_s
    total = sum(check_seconds)
    layer["solver.unknown_time_share"] = unknown_s / total if total else 0.0
    return outcome

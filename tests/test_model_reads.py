"""Each side of a regex model is translated only when it is read.

``ExecModel`` builds its match side and its §4.4 no-match side on
first read.  These tests pin who reads what: the differential oracle
reads only match sides, a solve job only the side it asks for, and DSE
builds a matched branch's no-match side only when it flips that branch.
A translation is observed as a call of ``Translator.membership``; the
patterns all have captures, so neither side takes the purely regular
fast path around the translator.
"""

import pytest

from repro.model.translate import Translator


@pytest.fixture
def memberships(monkeypatch):
    """The ``positive`` flag of every ``Translator.membership`` call."""
    calls = []
    original = Translator.membership

    def recording(self, word, positive=True, **kwargs):
        calls.append(positive)
        return original(self, word, positive=positive, **kwargs)

    monkeypatch.setattr(Translator, "membership", recording)
    return calls


def test_oracle_checks_translate_only_match_sides(memberships):
    from repro.conformance.oracle import DifferentialOracle

    oracle = DifferentialOracle(timeout=2.0)
    for pattern, flags, word in [
        (r"(a)\1", "", "aa"),
        (r"(a)\1", "", "ab"),
        (r"\b(\w+)(?=!)", "", "hi!"),
        (r"^(x|y)+$", "m", "x\nyy"),
    ]:
        assert oracle.check(pattern, flags, word) is not None
    assert memberships and False not in memberships


@pytest.mark.parametrize("negate", [False, True])
def test_solve_job_translates_only_its_side(memberships, negate):
    from repro.service.jobs import SolveJob

    job = SolveJob(job_id="s", pattern=r"(a+)b\1", negate=negate)
    assert job.dedup_key() is not None
    assert job.run().status == "ok"
    assert memberships and set(memberships) == {not negate}


def test_dse_builds_a_no_match_side_only_when_flipped(memberships):
    from repro.dse.interpreter import Interpreter
    from repro.dse.parser import parse_program

    program = parse_program(
        'var s = symbol("s", "aa");\n'
        "if (/(a)\\1/.test(s)) { var hit = 1; }\n"
    )
    branches = Interpreter(program).run().branches
    regex_branch = next(b for b in branches if b.polarity)
    assert memberships == []  # running the path reads no side
    regex_branch.taken
    assert memberships == [True]
    regex_branch.flipped
    regex_branch.flipped
    assert memberships == [True, False]


def test_dse_run_builds_only_the_no_match_sides_it_reads(
    memberships, monkeypatch
):
    from repro.dse import DseEngine, EngineConfig
    from repro.model.api import ExecModel

    read = set()  # ExecModels whose no-match side some flip reads
    original = DseEngine._solve_flip

    def recording(self, branches, flip_index):
        for i, branch in enumerate(branches[: flip_index + 1]):
            model = getattr(branch.side, "__self__", None)
            if not isinstance(model, ExecModel):
                continue
            # A flip reads its own branch's other side and the taken
            # side of every branch before it.
            outcome = not branch.polarity if i == flip_index else (
                branch.polarity
            )
            if not outcome:
                read.add(model)
        return original(self, branches, flip_index)

    monkeypatch.setattr(DseEngine, "_solve_flip", recording)
    source = (
        'var s = symbol("s", "aa");\n'
        "if (/(a)\\1/.test(s)) { var hit = 1; }\n"
        'if (/\\b(b+)c/.test(s)) { var other = 2; }\n'
    )
    config = EngineConfig(max_tests=6, time_budget=30)
    result = DseEngine(source, config).run()
    assert result.tests_run > 1
    assert read and memberships.count(False) == len(read)

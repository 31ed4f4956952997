"""The regex model's formulas are pinned by digest.

``tests/data/model_formulas.json`` holds, for a fixed set of patterns,
the sha256 digests of ``repr(match_formula)`` and
``repr(no_match_formula)`` of ``SymbolicRegExp(pattern, flags)
.exec_model(StrVar("in"))``.  A change to how the model is built (lazy
sides, shared translators, cheaper contexts) must leave every formula
identical, and so every verdict, unit count and coverage cell.

The pattern set is

- every ``(pattern, flags)`` of ``generate_pairs(100, 1909)``, and
- every regex literal ``extract_regex_literals`` finds in the sources
  of ``generate_population(20, 1909)``, in population order,

with exact duplicates dropped.  Before each pattern the fresh-variable
counter (``repro.constraints.terms._var_counter``) and the exec-model
id counter (``repro.model.api._exec_ids``) restart at 0, so the
variable names in a formula do not depend on what ran before it.  The
match side is read before the no-match side.

The data file was written from the code before lazy sides were
introduced, by::

    PYTHONPATH=src python tests/test_formula_identity.py

Regenerate it only for a change that is meant to alter the formulas,
and say so in the change's notes.
"""

import hashlib
import itertools
import json
import pathlib

DATA = pathlib.Path(__file__).parent / "data" / "model_formulas.json"


def _cases():
    from repro.conformance.gen import generate_pairs
    from repro.corpus.extract import extract_regex_literals
    from repro.eval.breakdown import generate_population

    seen = set()
    for pair in generate_pairs(100, 1909):
        key = (pair.pattern, pair.flags)
        if key not in seen:
            seen.add(key)
            yield key
    for _, source in generate_population(20, 1909):
        for literal in extract_regex_literals(source):
            key = (literal.source, literal.flags)
            if key not in seen:
                seen.add(key)
                yield key


def _digest(formula) -> str:
    return hashlib.sha256(repr(formula).encode("utf-8")).hexdigest()


def _formulas(pattern, flags, reset):
    from repro.constraints import StrVar
    from repro.model import SymbolicRegExp

    reset()
    model = SymbolicRegExp(pattern, flags).exec_model(StrVar("in"))
    return {
        "match": _digest(model.match_formula),
        "no_match": _digest(model.no_match_formula),
    }


def test_model_formulas_unchanged(monkeypatch):
    import repro.constraints.terms as terms
    import repro.model.api as api

    def reset():
        monkeypatch.setattr(terms, "_var_counter", itertools.count())
        monkeypatch.setattr(api, "_exec_ids", itertools.count())

    expected = json.loads(DATA.read_text())
    cases = list(_cases())
    assert [[p, f] for p, f in cases] == [
        [entry["pattern"], entry["flags"]] for entry in expected
    ]
    for (pattern, flags), entry in zip(cases, expected):
        got = _formulas(pattern, flags, reset)
        assert got == {
            "match": entry["match"], "no_match": entry["no_match"]
        }, f"/{pattern}/{flags}"


def _generate() -> None:
    import repro.constraints.terms as terms
    import repro.model.api as api

    def reset():
        terms._var_counter = itertools.count()
        api._exec_ids = itertools.count()

    entries = [
        {"pattern": pattern, "flags": flags,
         **_formulas(pattern, flags, reset)}
        for pattern, flags in _cases()
    ]
    DATA.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} patterns to {DATA}")


if __name__ == "__main__":
    _generate()

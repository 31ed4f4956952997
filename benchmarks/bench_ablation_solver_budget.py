"""Ablation — solver search budgets (design-choice supporting data).

Sweeps the string solver's candidate/combination budgets over a mixed
query bank (anchored captures, backreferences, boundaries, precedence
traps).  Shows that the model fragment needs only modest search: the
default budget solves the full bank, and the gain from quadrupling it
is nil — evidence for the bounded-search design.
"""

from repro.eval.ablation import (
    format_budget_ablation,
    run_budget_ablation,
)


def test_solver_budget_ablation(benchmark, record_table):
    points = benchmark.pedantic(
        run_budget_ablation, rounds=1, iterations=1
    )
    table = format_budget_ablation(points)
    record_table(
        "ablation_solver_budget.txt",
        "Ablation — solver budget sweep\n" + table,
    )

    by_label = {p.label: p for p in points}
    # The default budget solves everything in the bank.
    assert by_label["default"].solved == by_label["default"].total
    # Larger budgets cannot do better (and must not do worse).
    assert by_label["large"].solved == by_label["default"].solved
    # Solved counts are monotone in budget.
    order = ["tiny", "small", "default", "large"]
    solved = [by_label[label].solved for label in order]
    assert solved == sorted(solved)

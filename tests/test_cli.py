"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestSolveCommand:
    def test_solve_matching(self, capsys):
        assert main(["solve", r"(a+)b"]) == 0
        out = capsys.readouterr().out
        assert "input:" in out and "C1" in out

    def test_solve_negated(self, capsys):
        assert main(["solve", "^a+$", "--negate"]) == 0
        assert "input:" in capsys.readouterr().out

    def test_solve_unsat(self, capsys):
        assert main(["solve", "^(?=b)a$"]) == 1
        assert capsys.readouterr().out.strip() == "unsatisfiable"

    def test_solve_unknown_is_not_unsat(self, capsys):
        # No z3 binary: the one-shot SMT-LIB backend answers UNKNOWN.
        assert main(["solve", r"(a+)b", "--backend", "smtlib:z3"]) == 1
        out = capsys.readouterr().out
        assert "unknown" in out and "unsatisfiable" not in out

    def test_solve_unknown_names_its_cause(self, capsys, monkeypatch):
        from repro.solver import core

        monkeypatch.setattr(core, "UNITS_PER_SECOND", 0)
        assert main(["solve", r"(a+)b"]) == 1
        assert "unknown (budget)" in capsys.readouterr().out

    def test_solve_negated_unsat(self, capsys):
        assert main(["solve", "[^]*", "--negate"]) == 1
        assert "unsatisfiable" in capsys.readouterr().out

    def test_solve_with_portfolio_backend(self, capsys):
        # smtlib degrades to UNKNOWN without a binary; native still wins.
        assert main(
            ["solve", r"(a+)b", "--backend", "portfolio:native+smtlib"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend: portfolio:native+smtlib" in out
        assert "input:" in out

    def test_solve_with_cached_backend(self, capsys):
        assert main(["solve", "^a+$", "--negate",
                     "--backend", "cached:native"]) == 0
        assert "input:" in capsys.readouterr().out

    def test_solve_with_bad_backend_spec(self, capsys):
        assert main(["solve", "a", "--backend", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown solver backend" in err

    @pytest.mark.parametrize(
        "spec", ["session:z3", "route:z3", "cached:route:z3"]
    )
    def test_solve_rejects_removed_schemes(self, spec, capsys):
        assert main(["solve", r"(a+)b", "--backend", spec]) == 2
        err = capsys.readouterr().err
        assert "unknown solver backend" in err
        registered = err.split("registered schemes:", 1)[1]
        schemes = {s.strip() for s in registered.split(",")}
        assert {"native", "smtlib", "portfolio", "cached"} <= schemes
        assert not schemes & {"session", "route"}

    def test_solve_with_query_cache(self, tmp_path, capsys):
        store = tmp_path / "queries"
        argv = ["solve", "^a+b$", "--query-cache", str(store)]
        assert main(argv) == 0
        assert any(store.rglob("*.qry"))
        assert main(argv) == 0  # warm run replays the stored answer
        assert "input:" in capsys.readouterr().out

    def test_analyze_with_bad_backend_spec(self, tmp_path, capsys):
        program = tmp_path / "p.js"
        program.write_text("var x = 1;\n")
        assert main(
            ["analyze", str(program), "--backend", "native?nope=1"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestExecCommand:
    def test_match(self, capsys):
        assert main(["exec", r"(\d+)", "abc123"]) == 0
        out = capsys.readouterr().out
        assert "match at 3" in out and "'123'" in out

    def test_no_match(self, capsys):
        assert main(["exec", "z", "abc"]) == 1

    def test_flags(self, capsys):
        assert main(["exec", "ABC", "xabcx", "-f", "i"]) == 0


class TestAnalyzeCommand:
    def test_finds_bug(self, tmp_path, capsys):
        program = tmp_path / "prog.js"
        program.write_text(
            'var s = symbol("s", "");\n'
            'if (s === "boom") { assert(false, "found"); }\n'
        )
        code = main(["analyze", str(program), "--max-tests", "10"])
        out = capsys.readouterr().out
        assert code == 2
        assert "found" in out and "coverage" in out

    def test_clean_program(self, tmp_path, capsys):
        program = tmp_path / "ok.js"
        program.write_text("var x = 1 + 2;\n")
        assert main(["analyze", str(program)]) == 0


class TestBatchCommand:
    def test_batch_files_with_workers(self, tmp_path, capsys):
        a = tmp_path / "a.js"
        a.write_text(
            'var s = symbol("s", "");\n'
            'if (/^a+$/.test(s)) { 1; } else { 2; }\n'
        )
        b = tmp_path / "b.js"
        b.write_text('var t = symbol("t", "");\nif (t === "k") { 1; }\n')
        code = main(
            [
                "batch", str(a), str(b),
                "--workers", "2", "--max-tests", "6",
                "--time-budget", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 ok" in out
        assert "query cache:" in out
        assert "a.js" in out and "b.js" in out

    def test_batch_survey_inline_with_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "batch", "--survey", "-n", "40", "--workers", "0",
                "--solve-cap", "8", "--json", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Total Regex" in out
        assert "solved" in out
        import json

        spec = json.loads(out_path.read_text())
        assert spec["statuses"] == {"ok": len(spec["results"])}

    def test_batch_without_input_errors(self, capsys):
        assert main(["batch"]) == 2

    def test_batch_query_cache_persists_across_invocations(
        self, tmp_path, capsys
    ):
        store = tmp_path / "queries"
        argv = [
            "batch", "--survey", "-n", "30", "--workers", "0",
            "--solve-cap", "6", "--query-cache", str(store),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert any(store.rglob("*.qry"))  # the store was populated
        assert main(argv) == 0  # warm invocation replays from disk
        out = capsys.readouterr().out
        assert "0 misses" in out

    def test_batch_with_backend_spec(self, tmp_path, capsys):
        program = tmp_path / "p.js"
        program.write_text(
            'var s = symbol("s", "");\n'
            'if (/^ab?$/.test(s)) { 1; } else { 2; }\n'
        )
        code = main(
            [
                "batch", str(program),
                "--workers", "0", "--max-tests", "6",
                "--time-budget", "5", "--backend", "cached:native",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Solver backends" in out
        assert "cached:native" in out


class TestSurveyCommand:
    def test_small_survey(self, capsys):
        assert main(["survey", "-n", "120"]) == 0
        out = capsys.readouterr().out
        assert "with capture groups" in out and "Backreferences" in out


class TestSmtlibCommand:
    def test_prints_script(self, capsys):
        assert main(["smtlib", "a+b"]) == 0
        out = capsys.readouterr().out
        assert "(set-logic QF_S)" in out and "(check-sat)" in out

    def test_negated(self, capsys):
        assert main(["smtlib", "a", "--negate"]) == 0
        assert "str.in_re" in capsys.readouterr().out


class TestDotCommand:
    def test_prints_digraph(self, capsys):
        assert main(["dot", "(ab|c)*"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and "doublecircle" in out
